package engine

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/ltm"
	"repro/internal/realization"
	"repro/internal/rng"
	"repro/internal/weights"
)

func line(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.Node(i), graph.Node(i+1))
	}
	return b.Build()
}

func randomConnected(seed int64, n, extra int) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.Node(i), graph.Node(r.Intn(i)))
	}
	for i := 0; i < extra; i++ {
		b.AddEdge(graph.Node(r.Intn(n)), graph.Node(r.Intn(n)))
	}
	return b.Build()
}

func mustInstance(t *testing.T, g *graph.Graph, s, tt graph.Node) *ltm.Instance {
	t.Helper()
	in, err := ltm.NewInstance(g, weights.NewDegree(g), s, tt)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// testInstance returns a random instance large enough that pools span
// several chunks and paths vary in length.
func testInstance(t *testing.T) *ltm.Instance {
	t.Helper()
	g := randomConnected(3, 30, 40)
	if g.HasEdge(0, 29) {
		t.Skip("adjacent s,t")
	}
	return mustInstance(t, g, 0, 29)
}

func TestSamplePoolLine(t *testing.T) {
	in := mustInstance(t, line(4), 0, 3)
	pool, err := New(in).SamplePool(context.Background(), 20000, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Total() != 20000 {
		t.Errorf("Total = %d", pool.Total())
	}
	if frac := pool.FractionType1(); math.Abs(frac-0.5) > 0.02 {
		t.Errorf("FractionType1 = %v, want ~0.5", frac)
	}
	invited := graph.NewNodeSetOf(4, 2, 3)
	if got, want := pool.EstimateF(invited), pool.FractionType1(); got != want {
		t.Errorf("EstimateF(full path) = %v, want %v (all type-1 covered)", got, want)
	}
	if got := pool.EstimateF(graph.NewNodeSetOf(4, 3)); got != 0 {
		t.Errorf("EstimateF(partial) = %v, want 0", got)
	}
	if got := pool.CoverageCount(invited); got != int64(pool.NumType1()) {
		t.Errorf("CoverageCount = %d, want %d", got, pool.NumType1())
	}
}

func TestSamplePoolValidation(t *testing.T) {
	in := mustInstance(t, line(4), 0, 3)
	if _, err := New(in).SamplePool(context.Background(), 0, 1, 1); err == nil {
		t.Error("zero pool size accepted")
	}
	if _, err := New(in).EstimateF(context.Background(), graph.NewNodeSet(4), 0, 1, 1); err == nil {
		t.Error("zero trials accepted")
	}
}

func poolsEqual(a, b *Pool) bool {
	if a.total != b.total || len(a.arena) != len(b.arena) || len(a.offsets) != len(b.offsets) {
		return false
	}
	for i := range a.arena {
		if a.arena[i] != b.arena[i] {
			return false
		}
	}
	for i := range a.offsets {
		if a.offsets[i] != b.offsets[i] {
			return false
		}
	}
	return true
}

// TestPoolWorkerCountIndependence is the engine's central determinism
// guarantee: pool contents are a pure function of (seed, l), byte-
// identical for any worker count.
func TestPoolWorkerCountIndependence(t *testing.T) {
	in := testInstance(t)
	ctx := context.Background()
	const l = 5000 // spans 3 chunks, last one partial
	ref, err := New(in).SamplePool(ctx, l, 1, 77)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		got, err := New(in).SamplePool(ctx, l, workers, 77)
		if err != nil {
			t.Fatal(err)
		}
		if !poolsEqual(ref, got) {
			t.Errorf("pool with workers=%d differs from workers=1", workers)
		}
	}
}

// perPathPool rebuilds the pre-engine representation — one freshly
// allocated []graph.Node per type-1 path — from the documented stream
// layout: draw i of the pool reads the stream (seed, nsPool, i) from its
// start (chunk c's draw j is pool draw c·ChunkSize + j). Each path is the
// sorted walk: pools store a path's node set ascending.
func perPathPool(in *ltm.Instance, l, seed int64) [][]graph.Node {
	var paths [][]graph.Node
	sp := realization.NewSampler(in)
	for i := int64(0); i < l; i++ {
		st := rng.DerivedStream(seed, nsPool, uint64(i))
		if tg := sp.SampleTG(&st); tg.Outcome == realization.Type1 {
			slices.Sort(tg.Path)
			paths = append(paths, tg.Path)
		}
	}
	return paths
}

// TestCSRAgreesWithPerPathPool checks the CSR pool against the old
// per-path representation: identical (sorted) paths, identical coverage
// counts.
func TestCSRAgreesWithPerPathPool(t *testing.T) {
	in := testInstance(t)
	const l, seed = 5000, 42
	pool, err := New(in).SamplePool(context.Background(), l, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	paths := perPathPool(in, l, seed)
	if pool.NumType1() != len(paths) {
		t.Fatalf("NumType1 = %d, per-path count = %d", pool.NumType1(), len(paths))
	}
	for i, p := range paths {
		got := pool.Path(i)
		if len(got) != len(p) {
			t.Fatalf("path %d: %v vs %v", i, got, p)
		}
		for j := range p {
			if got[j] != p[j] {
				t.Fatalf("path %d: %v vs %v", i, got, p)
			}
		}
	}
	// Coverage counts agree between the per-path scan and the CSR scan,
	// on a spread of random invitation sets.
	n := in.Graph().NumNodes()
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		invited := graph.NewNodeSet(n)
		for v := 0; v < n; v++ {
			if r.Intn(3) > 0 {
				invited.Add(graph.Node(v))
			}
		}
		var perPath int64
		for _, p := range paths {
			covered := true
			for _, v := range p {
				if !invited.Contains(v) {
					covered = false
					break
				}
			}
			if covered {
				perPath++
			}
		}
		if scan := pool.CoverageCount(invited); scan != perPath {
			t.Fatalf("trial %d: CSR scan %d vs per-path %d", trial, scan, perPath)
		}
	}
}

func TestEstimateFWorkerCountIndependence(t *testing.T) {
	in := testInstance(t)
	ctx := context.Background()
	invited := graph.NewNodeSet(in.Graph().NumNodes())
	invited.Fill()
	ref, err := New(in).EstimateF(ctx, invited, 5000, 1, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := New(in).EstimateF(ctx, invited, 5000, workers, 13)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Errorf("EstimateF with workers=%d: %v, want %v", workers, got, ref)
		}
	}
}

// TestSessionGrowthConsistency: a pool grown through a session in several
// steps is byte-identical to a one-shot pool of the final size, and
// growing never resamples cached draws.
func TestSessionGrowthConsistency(t *testing.T) {
	in := testInstance(t)
	ctx := context.Background()
	eng := New(in)
	sess := eng.NewSession(77, 4)
	sizes := []int64{900, 2500, 2600, 9000}
	for _, l := range sizes {
		p, err := sess.Pool(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		if p.Total() < l {
			t.Fatalf("pool total %d < requested %d", p.Total(), l)
		}
	}
	final, err := sess.Pool(ctx, 9000)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := New(in).SamplePool(ctx, 9000, 1, 77)
	if err != nil {
		t.Fatal(err)
	}
	if !poolsEqual(final, oneShot) {
		t.Error("grown session pool differs from one-shot pool of the final size")
	}
	// The ledger counts every pooled draw exactly once: growth redraws
	// partial trailing chunks, but their re-derived prefixes are already
	// counted, so after any grow sequence PoolDraws equals the pool size.
	if draws := eng.PoolDraws(); draws != 9000 {
		t.Errorf("pool draws = %d, want exactly the pool size 9000", draws)
	}
}

// TestSessionRegrowLedger is the regression test for the grow-time
// over-count: growing through a partial chunk used to re-count the
// chunk's already-counted prefix (Pool(1000) then Pool(4096) reported
// PoolDraws = 5096), breaking the documented invariant that after an
// α-sweep PoolDraws equals the pool size.
func TestSessionRegrowLedger(t *testing.T) {
	in := testInstance(t)
	ctx := context.Background()
	eng := New(in)
	sess := eng.NewSession(11, 2)
	for _, l := range []int64{1000, 4096, 5000} {
		p, err := sess.Pool(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.PoolDraws(); got != p.Total() {
			t.Errorf("after Pool(%d): PoolDraws = %d, want pool size %d", l, got, p.Total())
		}
		if eng.Draws() != eng.PoolDraws() {
			t.Errorf("after Pool(%d): Draws = %d, PoolDraws = %d, want equal (no estimator ran)",
				l, eng.Draws(), eng.PoolDraws())
		}
	}
}

// TestMemBytes: pool byte accounting is positive, grows with the pool,
// and includes the set-cover family once folded; measuring adds nothing;
// the session adds its chunk offset tables on top of the pool.
func TestMemBytes(t *testing.T) {
	in := testInstance(t)
	ctx := context.Background()
	sess := New(in).NewSession(3, 2)
	small, err := sess.Pool(ctx, 2000)
	if err != nil {
		t.Fatal(err)
	}
	smallBytes := small.MemBytes()
	if smallBytes <= 0 {
		t.Fatalf("MemBytes = %d, want positive", smallBytes)
	}
	big, err := sess.Pool(ctx, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if big.MemBytes() <= smallBytes {
		t.Errorf("grown pool MemBytes = %d, want > %d", big.MemBytes(), smallBytes)
	}
	pre := big.MemBytes()
	all := graph.NewNodeSet(big.Universe())
	all.Fill()
	big.EstimateFMany([]*graph.NodeSet{all, nil})
	if big.MemBytes() != pre {
		t.Errorf("MemBytes after measuring = %d, want %d (a scan holds nothing)", big.MemBytes(), pre)
	}
	if _, err := big.Family(); err != nil {
		t.Fatal(err)
	}
	if big.MemBytes() <= pre {
		t.Errorf("MemBytes with family = %d, want > %d (family not accounted)", big.MemBytes(), pre)
	}
	if sess.MemBytes() <= big.MemBytes() {
		t.Errorf("session MemBytes = %d, want > pool's %d (chunk offset tables)", sess.MemBytes(), big.MemBytes())
	}
}

// TestSessionSamplesOnce: repeated Pool calls at or below the cached size
// perform no sampling at all.
func TestSessionSamplesOnce(t *testing.T) {
	in := testInstance(t)
	ctx := context.Background()
	eng := New(in)
	sess := eng.NewSession(5, 2)
	if _, err := sess.Pool(ctx, 4096); err != nil { // two exact chunks
		t.Fatal(err)
	}
	base := eng.Draws()
	for i := 0; i < 5; i++ {
		for _, l := range []int64{1, 1000, 4096} {
			if _, err := sess.Pool(ctx, l); err != nil {
				t.Fatal(err)
			}
		}
	}
	if eng.Draws() != base {
		t.Errorf("cached Pool calls drew %d extra samples", eng.Draws()-base)
	}
	if sess.Size() != 4096 {
		t.Errorf("Size = %d, want 4096", sess.Size())
	}
}

// TestEvalSessionDecorrelated: the evaluation namespace yields a
// different stream family than the solve namespace for the same seed.
func TestEvalSessionDecorrelated(t *testing.T) {
	in := testInstance(t)
	ctx := context.Background()
	eng := New(in)
	solve, err := eng.NewSession(7, 2).Pool(ctx, 4000)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := eng.NewEvalSession(7, 2).Pool(ctx, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if poolsEqual(solve, eval) {
		t.Error("solve and eval pools identical: namespaces collide")
	}
}

// TestLemma1ForwardReverseAgreement is the central model-equivalence
// test: the forward Process 1 estimator and the engine's reverse
// estimator must agree on f(I) within Monte-Carlo noise.
func TestLemma1ForwardReverseAgreement(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{21, 22, 23} {
		g := randomConnected(seed, 14, 16)
		s, tt := graph.Node(0), graph.Node(13)
		if g.HasEdge(s, tt) {
			continue
		}
		in := mustInstance(t, g, s, tt)
		r := rand.New(rand.NewSource(seed * 7))
		invited := graph.NewNodeSet(14)
		invited.Add(tt)
		for v := 0; v < 14; v++ {
			if r.Intn(3) > 0 {
				invited.Add(graph.Node(v))
			}
		}
		const trials = 150000
		fwd, err := in.EstimateF(ctx, invited, trials, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		rev, err := New(in).EstimateF(ctx, invited, trials, 4, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fwd-rev) > 0.008 {
			t.Errorf("seed %d: forward %v vs reverse %v", seed, fwd, rev)
		}
	}
}

// TestLemma1UnderSubStochasticWeights repeats the forward/reverse
// agreement check with a weight scheme whose incoming weights sum to less
// than 1, so realizations exercise the ℵ₀ (no selection) branch that the
// degree convention never hits.
func TestLemma1UnderSubStochasticWeights(t *testing.T) {
	g := randomConnected(33, 12, 14)
	s, tt := graph.Node(0), graph.Node(11)
	if g.HasEdge(s, tt) {
		t.Skip("adjacent pair")
	}
	sch, err := weights.NewExplicit(g, func(u, v graph.Node) float64 {
		d := g.Degree(v)
		if d == 0 {
			return 0
		}
		return 0.7 / float64(d) // InSum = 0.7 < 1 everywhere
	})
	if err != nil {
		t.Fatal(err)
	}
	in, err := ltm.NewInstance(g, sch, s, tt)
	if err != nil {
		t.Fatal(err)
	}
	invited := graph.NewNodeSet(12)
	invited.Fill()
	ctx := context.Background()
	const trials = 200000
	fwd, err := in.EstimateF(ctx, invited, trials, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := New(in).EstimateF(ctx, invited, trials, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fwd-rev) > 0.008 {
		t.Errorf("forward %v vs reverse %v under sub-stochastic weights", fwd, rev)
	}
	// The ℵ₀ branch must actually fire: a backward walk selects no one
	// with probability 0.3 at the first step alone.
	sp := realization.NewSampler(in)
	st := rng.NewStream(7)
	type0 := 0
	for i := 0; i < 2000; i++ {
		if sp.SampleTG(&st).Outcome == realization.Type0 {
			type0++
		}
	}
	if type0 < 400 {
		t.Errorf("only %d/2000 type-0 draws; ℵ₀ branch not exercised", type0)
	}
}

// TestSetcoverInstanceZeroCopy confirms the MSC instance aliases the
// pool's arena rather than copying it.
func TestSetcoverInstanceZeroCopy(t *testing.T) {
	in := testInstance(t)
	pool, err := New(in).SamplePool(context.Background(), 3000, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pool.NumType1() == 0 {
		t.Skip("no type-1 paths")
	}
	inst := pool.SetcoverInstance()
	if inst.NumSets() != pool.NumType1() {
		t.Fatalf("NumSets = %d, want %d", inst.NumSets(), pool.NumType1())
	}
	if &inst.SetArena[0] != &pool.arena[0] {
		t.Error("setcover arena is a copy, not an alias")
	}
	if &inst.SetOffsets[0] != &pool.offsets[0] {
		t.Error("setcover offsets are a copy, not an alias")
	}
}

// TestDrawCountGuard: absurd draw counts (e.g. an uncapped theoretical
// l*) fail with a clean error instead of a fatal allocation.
func TestDrawCountGuard(t *testing.T) {
	in := mustInstance(t, line(4), 0, 3)
	huge := int64(maxPoolChunks+1) * ChunkSize
	if _, err := New(in).SamplePool(context.Background(), huge, 1, 1); err == nil {
		t.Error("oversized pool accepted")
	}
	if _, err := New(in).NewSession(1, 1).Pool(context.Background(), huge); err == nil {
		t.Error("oversized session pool accepted")
	}
	if _, err := New(in).EstimateF(context.Background(), graph.NewNodeSet(4), huge, 1, 1); err == nil {
		t.Error("oversized estimate accepted")
	}
}

// TestTruncatedViewMatchesOneShot: Pool(l) on a cache grown far beyond l
// returns exactly the pool one-shot sampling of l draws would have
// produced — path for path — so any result computed at size l is
// independent of the session's growth history. This is the invariant a
// serving layer relies on to evict and re-admit sessions without
// changing answers.
func TestTruncatedViewMatchesOneShot(t *testing.T) {
	in := testInstance(t)
	ctx := context.Background()
	sess := New(in).NewSession(21, 3)
	if _, err := sess.Pool(ctx, 9000); err != nil { // grow the cache first
		t.Fatal(err)
	}
	for _, l := range []int64{100, 2000, 2048, 4096, 5000, 9000} {
		view, err := sess.Pool(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		oneShot, err := New(in).SamplePool(ctx, l, 1, 21)
		if err != nil {
			t.Fatal(err)
		}
		if view.Total() != l || oneShot.Total() != l {
			t.Fatalf("l=%d: totals %d / %d", l, view.Total(), oneShot.Total())
		}
		if view.NumType1() != oneShot.NumType1() {
			t.Fatalf("l=%d: NumType1 %d, one-shot %d", l, view.NumType1(), oneShot.NumType1())
		}
		for i := 0; i < view.NumType1(); i++ {
			a, b := view.Path(i), oneShot.Path(i)
			if len(a) != len(b) {
				t.Fatalf("l=%d path %d: len %d vs %d", l, i, len(a), len(b))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("l=%d path %d diverges at %d", l, i, j)
				}
			}
		}
		// The view's own coverage machinery agrees with the one-shot pool.
		all := graph.NewNodeSet(in.Graph().NumNodes())
		all.Fill()
		if got, want := view.EstimateF(all), oneShot.EstimateF(all); got != want {
			t.Errorf("l=%d: view EstimateF(V) = %v, one-shot %v", l, got, want)
		}
	}
}

// mustCanonicalPool checks that every path of p is strictly ascending
// and in the universe, and that p measures invitation sets exactly like
// the per-path reference.
func mustCanonicalPool(t *testing.T, label string, p *Pool) {
	t.Helper()
	for i := 0; i < p.NumType1(); i++ {
		path := p.Path(i)
		for k, v := range path {
			if v < 0 || int(v) >= p.universe || (k > 0 && v <= path[k-1]) {
				t.Fatalf("%s: path %d = %v is not a strictly ascending node set", label, i, path)
			}
		}
	}
	if p.NumType1() > 0 {
		mustMeasureLikeReference(t, label, p, randomQuerySets(rand.New(rand.NewSource(p.Total())), p))
	}
}

// TestPoolPathsAscending: pools hold every path as its ascending node
// set after one-shot sampling, growth, truncation, repair across a delta,
// restore from a snapshot and adopt-and-repair of an ancestor snapshot,
// for any worker count; each pool measures like the per-path reference.
func TestPoolPathsAscending(t *testing.T) {
	ctx := context.Background()
	const l = 2*ChunkSize + 500
	ran := 0
	for _, workers := range []int{1, 2, 8} {
		for trial := int64(0); trial < 3; trial++ {
			label := func(what string) string { return fmt.Sprintf("workers=%d trial=%d %s", workers, trial, what) }
			pool := func(s *Session, n int64) *Pool {
				t.Helper()
				p, err := s.Pool(ctx, n)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			r := rand.New(rand.NewSource(trial))
			g := randomConnected(7+trial, 40, 60)
			if g.HasEdge(0, 39) {
				continue
			}
			in := mustInstance(t, g, 0, 39)
			gfp1 := GraphFingerprint(g, in.Weights())
			lin := NewLineage(gfp1)
			e := New(in)
			e.Bind(lin, gfp1)

			oneShot, err := e.SamplePool(ctx, l, workers, 5)
			if err != nil {
				t.Fatal(err)
			}
			mustCanonicalPool(t, label("one-shot"), oneShot)
			sess := e.NewSession(5, workers)
			mustCanonicalPool(t, label("small"), pool(sess, l/3))
			mustCanonicalPool(t, label("grown"), pool(sess, l))
			mustCanonicalPool(t, label("truncated"), pool(sess, l/2))
			data := snapshotOf(t, sess)

			restored, err := OpenSession(New(in), bytes.NewReader(data), workers)
			if err != nil {
				t.Fatal(err)
			}
			mustCanonicalPool(t, label("restored"), pool(restored, l))
			mustCanonicalPool(t, label("restored, grown"), pool(restored, l+ChunkSize+7))

			in2, dirty := applyDelta(t, in, randomDelta(r, g, 0, 39, 2, 2))
			gfp2 := GraphFingerprint(in2.Graph(), in2.Weights())
			lin.Advance(gfp2, dirty)
			repaired, _, err := sess.RepairTo(ctx, New(in2), dirty)
			if err != nil {
				t.Fatal(err)
			}
			mustCanonicalPool(t, label("repaired"), pool(repaired, l))
			mustCanonicalPool(t, label("repaired, truncated"), pool(repaired, l/2))

			e2 := New(in2)
			e2.Bind(lin, gfp2)
			adopted, err := OpenSession(e2, bytes.NewReader(data), workers)
			if err != nil {
				t.Fatal(err)
			}
			mustCanonicalPool(t, label("adopted"), pool(adopted, l))
			ran++
		}
	}
	if ran < 6 {
		t.Fatalf("only %d of 9 cases had a non-adjacent pair", ran)
	}
}

// TestSortPath: sortPath orders distinct node ids like slices.Sort on
// both sides of its insertion-sort cutoff.
func TestSortPath(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for n := 0; n <= 80; n++ {
		p := make([]graph.Node, n)
		for i, v := range r.Perm(4 * (n + 1))[:n] {
			p[i] = graph.Node(v)
		}
		want := slices.Sorted(slices.Values(p))
		sortPath(p)
		if !slices.Equal(p, want) {
			t.Fatalf("n=%d: sortPath = %v, want %v", n, p, want)
		}
	}
}
