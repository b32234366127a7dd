package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/ltm"
	"repro/internal/setcover"
)

// setcoverGreedy runs the one-shot greedy on the pool's CSR instance — an
// independent fresh fold to compare the cached family against.
func setcoverGreedy(pool *Pool, p int) (*setcover.Solution, error) {
	return setcover.Greedy(pool.SetcoverInstance(), p)
}

// coverageBatchPool samples one pool for the batch tests.
func coverageBatchPool(t *testing.T) *Pool {
	t.Helper()
	in := testInstance(t)
	pool, err := New(in).SamplePool(context.Background(), 12000, 0, 21)
	if err != nil {
		t.Fatal(err)
	}
	if pool.NumType1() == 0 {
		t.Fatal("no type-1 realizations")
	}
	return pool
}

// randomQuerySets builds a batch of every shape the scan treats apart:
// nil, empty and full sets, singletons, small random sets, unions of
// pooled paths (the solver-output shape), large random and near-universe
// sets, a set over a smaller universe (built before a delta added
// nodes), and the same set twice.
func randomQuerySets(rng *rand.Rand, pool *Pool) []*graph.NodeSet {
	n := pool.Universe()
	full := graph.NewNodeSet(n)
	full.Fill()
	sets := []*graph.NodeSet{nil, graph.NewNodeSet(n), full}
	for i := 0; i < 3; i++ {
		sets = append(sets, graph.NewNodeSetOf(n, pool.Path(rng.Intn(pool.NumType1()))[0]))
	}
	for i := 0; i < 4; i++ {
		s := graph.NewNodeSet(n)
		for j := 0; j < 1+rng.Intn(5); j++ {
			s.Add(graph.Node(rng.Intn(n)))
		}
		sets = append(sets, s)
	}
	for i := 0; i < 3; i++ {
		s := graph.NewNodeSet(n)
		for j := 0; j < 1+rng.Intn(8); j++ {
			for _, v := range pool.Path(rng.Intn(pool.NumType1())) {
				s.Add(v)
			}
		}
		sets = append(sets, s)
	}
	for i := 0; i < 2; i++ {
		s := graph.NewNodeSet(n)
		for v := 0; v < n; v++ {
			if rng.Intn(4) > 0 {
				s.Add(graph.Node(v))
			}
		}
		sets = append(sets, s)
	}
	for i := 0; i < 3; i++ {
		s := full.Clone()
		for j := 0; j < rng.Intn(4); j++ {
			s.Remove(graph.Node(rng.Intn(n)))
		}
		sets = append(sets, s)
	}
	older := graph.NewNodeSet(n - 2)
	older.Fill()
	return append(sets, older, sets[len(sets)-1])
}

// referenceCount is F(B_l, I) by the definition, one path at a time: a
// path counts when every node of it is a member of invited; nil is the
// empty set, and a node beyond invited's universe is not a member.
func referenceCount(p *Pool, invited *graph.NodeSet) int64 {
	var covered int64
	for i := 0; i < p.NumType1(); i++ {
		ok := true
		for _, v := range p.Path(i) {
			if invited == nil || int(v) >= invited.Universe() || !invited.Contains(v) {
				ok = false
				break
			}
		}
		if ok {
			covered++
		}
	}
	return covered
}

// mustMeasureLikeReference checks CoverageCount, EstimateF and
// EstimateFMany on p against referenceCount for every set of sets.
func mustMeasureLikeReference(t *testing.T, label string, p *Pool, sets []*graph.NodeSet) {
	t.Helper()
	many := p.EstimateFMany(sets)
	if len(many) != len(sets) {
		t.Fatalf("%s: %d estimates for %d sets", label, len(many), len(sets))
	}
	for j, s := range sets {
		want := referenceCount(p, s)
		if got := p.CoverageCount(s); got != want {
			t.Fatalf("%s set %d: CoverageCount %d, reference %d", label, j, got, want)
		}
		wantF := float64(want) / float64(p.Total())
		if got := p.EstimateF(s); got != wantF {
			t.Fatalf("%s set %d: EstimateF %v, reference %v", label, j, got, wantF)
		}
		if many[j] != wantF {
			t.Fatalf("%s set %d: EstimateFMany %v, reference %v", label, j, many[j], wantF)
		}
	}
}

// TestEstimateFMatchesReference: the path scan measures every set shape
// exactly like the per-path definition, on fresh, grown, truncated and
// restored pools, for an instance whose target is the largest node and
// one whose target is the smallest.
func TestEstimateFMatchesReference(t *testing.T) {
	ctx := context.Background()
	instances := []*ltm.Instance{testInstance(t), mustInstance(t, randomConnected(9, 40, 60), 39, 0)}
	for k, in := range instances {
		rng := rand.New(rand.NewSource(int64(k)))
		fresh, err := New(in).SamplePool(ctx, 2*ChunkSize+300, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		sess := New(in).NewSession(5, 2)
		pools := map[string]*Pool{"fresh": fresh}
		for _, l := range []int64{700, 2*ChunkSize + 300} {
			if pools["grown"], err = sess.Pool(ctx, l); err != nil {
				t.Fatal(err)
			}
		}
		if pools["truncated"], err = sess.Pool(ctx, ChunkSize+11); err != nil {
			t.Fatal(err)
		}
		pools["truncated view of fresh"] = fresh.Truncate(999)
		restored := New(in).NewSession(5, 2)
		if err := restored.Restore(bytes.NewReader(snapshotOf(t, sess))); err != nil {
			t.Fatal(err)
		}
		if pools["restored"], err = restored.Pool(ctx, 2*ChunkSize+300); err != nil {
			t.Fatal(err)
		}
		if pools["restored, truncated"], err = restored.Pool(ctx, 1500); err != nil {
			t.Fatal(err)
		}
		for name, p := range pools {
			if p.NumType1() == 0 {
				t.Fatalf("instance %d %s: no type-1 realizations", k, name)
			}
			for round := 0; round < 3; round++ {
				mustMeasureLikeReference(t, fmt.Sprintf("instance %d %s round %d", k, name, round), p, randomQuerySets(rng, p))
			}
		}
	}
}

// TestCoverageCountsEdgeBatches: empty batches and degenerate entries.
func TestCoverageCountsEdgeBatches(t *testing.T) {
	pool := coverageBatchPool(t)
	if got := pool.EstimateFMany(nil); len(got) != 0 {
		t.Errorf("nil batch: %v, want empty", got)
	}
	if got := pool.EstimateFMany([]*graph.NodeSet{}); len(got) != 0 {
		t.Errorf("empty batch: %v, want empty", got)
	}
	// All-nil and all-empty batches count no coverage (paths are non-empty).
	degenerate := []*graph.NodeSet{nil, graph.NewNodeSet(pool.Universe())}
	for j, f := range pool.EstimateFMany(degenerate) {
		if c := pool.CoverageCount(degenerate[j]); f != 0 || c != 0 {
			t.Errorf("degenerate set %d: estimate %v, count %d, want 0", j, f, c)
		}
	}
	// Duplicated sets must count independently and identically.
	full := graph.NewNodeSet(pool.Universe())
	full.Fill()
	dup := pool.EstimateFMany([]*graph.NodeSet{full, full, full})
	for j := 1; j < len(dup); j++ {
		if dup[j] != dup[0] {
			t.Errorf("duplicate sets disagree: %v", dup)
		}
	}
	if got := pool.CoverageCount(full); got != int64(pool.NumType1()) {
		t.Errorf("full-universe count = %d, want %d", got, pool.NumType1())
	}
	if want := float64(pool.NumType1()) / float64(pool.Total()); dup[0] != want {
		t.Errorf("full-universe estimate = %v, want %v", dup[0], want)
	}
}

// TestEstimateFManyMatchesEstimateF: the batched estimates equal the
// single-set estimates bit for bit, for batches of every length up to
// 33, and an empty batch gives an empty result.
func TestEstimateFManyMatchesEstimateF(t *testing.T) {
	pool := coverageBatchPool(t)
	rng := rand.New(rand.NewSource(13))
	var sets []*graph.NodeSet
	for len(sets) <= 33 {
		sets = append(sets, randomQuerySets(rng, pool)...)
	}
	for k := 0; k <= 33; k++ {
		got := pool.EstimateFMany(sets[:k])
		if len(got) != k {
			t.Fatalf("batch of %d: %d estimates", k, len(got))
		}
		for j, s := range sets[:k] {
			if want := pool.EstimateF(s); got[j] != want {
				t.Fatalf("batch of %d, set %d: batch %v, single %v", k, j, got[j], want)
			}
		}
	}
}

// TestCoverageConcurrent: many goroutines measuring one pool at once
// (CI runs it under -race) all get the answers a lone caller gets.
func TestCoverageConcurrent(t *testing.T) {
	pool := coverageBatchPool(t)
	sets := randomQuerySets(rand.New(rand.NewSource(17)), pool)
	want := pool.EstimateFMany(sets)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				j := (w + round) % len(sets)
				if got := pool.EstimateF(sets[j]); got != want[j] {
					errs <- fmt.Sprintf("EstimateF(set %d) = %v, want %v", j, got, want[j])
					return
				}
				if got := pool.EstimateFMany(sets); !slices.Equal(got, want) {
					errs <- fmt.Sprintf("EstimateFMany = %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestSessionEstimateFMany: the session path must grow the pool and agree
// with per-set EstimateF at the same trial count.
func TestSessionEstimateFMany(t *testing.T) {
	in := testInstance(t)
	ctx := context.Background()
	sess := New(in).NewEvalSession(7, 0)
	n := in.Graph().NumNodes()
	a := graph.NewNodeSet(n)
	a.Fill()
	b := graph.NewNodeSet(n)
	b.Add(graph.Node(n - 1))
	got, err := sess.EstimateFMany(ctx, []*graph.NodeSet{a, b}, 6000)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Size() != 6000 {
		t.Fatalf("session size = %d, want 6000", sess.Size())
	}
	for j, s := range []*graph.NodeSet{a, b} {
		want, err := sess.EstimateF(ctx, s, 6000)
		if err != nil {
			t.Fatal(err)
		}
		if got[j] != want {
			t.Errorf("set %d: batch %v, single %v", j, got[j], want)
		}
	}
}

// TestPoolFamilyCachedAndAccounted: Family() must build once, be shared
// across calls, agree with a fresh fold of the same CSR instance, and
// show up in the pool's MemBytes the moment it exists.
func TestPoolFamilyCachedAndAccounted(t *testing.T) {
	pool := coverageBatchPool(t)
	pre := pool.MemBytes()
	if pool.FamilyMemBytes() != 0 {
		t.Fatalf("FamilyMemBytes before build = %d, want 0", pool.FamilyMemBytes())
	}
	fam, err := pool.Family()
	if err != nil {
		t.Fatal(err)
	}
	again, err := pool.Family()
	if err != nil {
		t.Fatal(err)
	}
	if fam != again {
		t.Error("Family() not cached: distinct pointers")
	}
	if fam.NumSets() != pool.NumType1() {
		t.Errorf("family |U| = %d, want %d", fam.NumSets(), pool.NumType1())
	}
	if pool.FamilyMemBytes() != fam.MemBytes() {
		t.Errorf("FamilyMemBytes = %d, want %d", pool.FamilyMemBytes(), fam.MemBytes())
	}
	if got := pool.MemBytes(); got != pre+fam.MemBytes() {
		t.Errorf("MemBytes after family build = %d, want %d", got, pre+fam.MemBytes())
	}
	// Solves through the cached family must match one-shot Greedy on the
	// same CSR instance (the engine-side half of the parity guarantee; the
	// solver-level parity tests live in internal/setcover).
	demand := pool.NumType1() / 2
	if demand < 1 {
		demand = 1
	}
	got, err := fam.Solve(demand)
	if err != nil {
		t.Fatal(err)
	}
	want, err := setcoverGreedy(pool, demand)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Union) != len(want.Union) || got.Covered != want.Covered || got.Picked != want.Picked {
		t.Fatalf("family solve %+v != one-shot %+v", got, want)
	}
	for i := range got.Union {
		if got.Union[i] != want.Union[i] {
			t.Fatalf("unions differ at %d", i)
		}
	}
}

// TestTruncatedViewFamilyIndependent: a truncated view folds its own
// (smaller) family over its own path prefix, independent of the parent's.
func TestTruncatedViewFamilyIndependent(t *testing.T) {
	in := testInstance(t)
	pool, err := New(in).SamplePool(context.Background(), 8000, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	view := pool.Truncate(2000)
	oneShot, err := New(in).SamplePool(context.Background(), 2000, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	vf, err := view.Family()
	if err != nil {
		t.Fatal(err)
	}
	of, err := oneShot.Family()
	if err != nil {
		t.Fatal(err)
	}
	if vf.NumSets() != of.NumSets() || vf.NumFolded() != of.NumFolded() {
		t.Fatalf("view family (%d sets, %d folded) != one-shot (%d, %d)",
			vf.NumSets(), vf.NumFolded(), of.NumSets(), of.NumFolded())
	}
	if view.FamilyMemBytes() != vf.MemBytes() {
		t.Errorf("view FamilyMemBytes = %d, want %d", view.FamilyMemBytes(), vf.MemBytes())
	}
}

// TestPoolFamilyBoundGrows: one pool serves budgeted solves at budgets
// 1, 2, 4 and 8 (each folding only the paths that fit), then a demand
// solve (the full family), then the budgets again, from several
// goroutines at once — so the race lane covers the cache replacement.
// Every answer equals a fresh pool's full family's, the cache only
// grows, and MemBytes counts exactly the one family the pool holds.
func TestPoolFamilyBoundGrows(t *testing.T) {
	ctx := context.Background()
	pool := coverageBatchPool(t)
	ref := coverageBatchPool(t)
	full, err := ref.Family()
	if err != nil {
		t.Fatal(err)
	}
	budgets := []int{1, 2, 4, 8}
	want := make(map[int]*setcover.Solution)
	for _, b := range budgets {
		if want[b], err = full.SolveBudget(b); err != nil {
			t.Fatal(err)
		}
	}
	demand := max(pool.NumType1()/2, 1)
	wantDemand, err := full.Solve(demand)
	if err != nil {
		t.Fatal(err)
	}
	base := pool.MemBytes()

	check := func(got *setcover.Solution, want *setcover.Solution, what string) error {
		if !slices.Equal(got.Union, want.Union) || got.Covered != want.Covered || got.Picked != want.Picked {
			return fmt.Errorf("%s: %+v, fresh full family %+v", what, got, want)
		}
		return nil
	}
	solveMax := func(b int) error {
		fam, err := pool.FamilyCtx(ctx, b)
		if err != nil {
			return err
		}
		if fam.Bound() < b {
			return fmt.Errorf("budget %d served by a family bounded at %d", b, fam.Bound())
		}
		got, err := fam.SolveBudget(b)
		if err != nil {
			return err
		}
		return check(got, want[b], fmt.Sprintf("budget %d", b))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range budgets {
				if err := solveMax(b); err != nil {
					errs <- err
					return
				}
			}
			fam, err := pool.FamilyCtx(ctx, setcover.Unbounded)
			if err != nil {
				errs <- err
				return
			}
			got, err := fam.Solve(demand)
			if err != nil {
				errs <- err
				return
			}
			if err := check(got, wantDemand, "demand"); err != nil {
				errs <- err
				return
			}
			for _, b := range budgets {
				if err := solveMax(b); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	fam, err := pool.Family()
	if err != nil {
		t.Fatal(err)
	}
	if fam.Bound() != setcover.Unbounded || fam.NumFolded() != full.NumFolded() {
		t.Fatalf("cached family bound %d with %d folded sets after a demand solve, want the full %d", fam.Bound(), fam.NumFolded(), full.NumFolded())
	}
	if got, want := pool.MemBytes(), base+fam.MemBytes(); got != want {
		t.Errorf("MemBytes %d, want %d: the pool and exactly one family", got, want)
	}
	// A fresh pool's budget-1 fold leaves the longer paths out.
	small, err := ref.Truncate(ref.Total()-1).FamilyCtx(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if small.Bound() != 1 || small.MemBytes() >= full.MemBytes() {
		t.Errorf("budget-1 family: bound %d, %d bytes against the full family's %d", small.Bound(), small.MemBytes(), full.MemBytes())
	}
}
