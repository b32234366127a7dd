package setcover

import (
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/obs"
)

// --- Pre-PR reference implementation ---------------------------------------
//
// referenceGreedy and referenceGreedyBudget are verbatim copies of the
// one-shot solvers before the Family/Solver split (per-call fold with
// encoding/binary keys, map[int32]bool union, container/heap). The
// Family/Solver path must return byte-identical Solutions — same Union,
// Covered, Demand AND Picked — across randomized instances and both
// encodings.

type refFoldedSet struct {
	elems []int32
	mult  int
}

func refFold(inst *Instance) ([]refFoldedSet, error) {
	if err := inst.validate(); err != nil {
		return nil, err
	}
	nsets := inst.NumSets()
	index := make(map[string]int, nsets)
	var folded []refFoldedSet
	var keyBuf []byte
	var elemBuf []int32
	for i := 0; i < nsets; i++ {
		elemBuf = append(elemBuf[:0], inst.set(i)...)
		sort.Slice(elemBuf, func(i, j int) bool { return elemBuf[i] < elemBuf[j] })
		out := elemBuf[:0]
		var prev int32 = -1
		for _, e := range elemBuf {
			if e < 0 || int(e) >= inst.UniverseSize {
				return nil, fmt.Errorf("%w: element %d outside universe", ErrBadInstance, e)
			}
			if e != prev {
				out = append(out, e)
				prev = e
			}
		}
		elemBuf = out
		keyBuf = keyBuf[:0]
		for _, e := range elemBuf {
			keyBuf = binary.AppendUvarint(keyBuf, uint64(e))
		}
		key := string(keyBuf)
		if j, ok := index[key]; ok {
			folded[j].mult++
			continue
		}
		index[key] = len(folded)
		folded = append(folded, refFoldedSet{elems: append([]int32(nil), elemBuf...), mult: 1})
	}
	return folded, nil
}

type refElemIndex struct {
	off []int32
	ids []int32
}

func (ix *refElemIndex) sets(e int32) []int32 { return ix.ids[ix.off[e]:ix.off[e+1]] }

func refBuildElemIndex(folded []refFoldedSet, universe int) *refElemIndex {
	off := make([]int32, universe+1)
	total := 0
	for _, fs := range folded {
		total += len(fs.elems)
		for _, e := range fs.elems {
			off[e+1]++
		}
	}
	for e := 0; e < universe; e++ {
		off[e+1] += off[e]
	}
	ids := make([]int32, total)
	next := make([]int32, universe)
	for j, fs := range folded {
		for _, e := range fs.elems {
			ids[off[e]+next[e]] = int32(j)
			next[e]++
		}
	}
	return &refElemIndex{off: off, ids: ids}
}

func referenceGreedy(inst *Instance, p int) (*Solution, error) {
	if err := inst.validate(); err != nil {
		return nil, err
	}
	if p <= 0 {
		return nil, fmt.Errorf("%w: demand must be positive", ErrBadInstance)
	}
	if p > inst.NumSets() {
		return nil, fmt.Errorf("%w: p > |U|", ErrInfeasible)
	}
	folded, err := refFold(inst)
	if err != nil {
		return nil, err
	}
	elemToSets := refBuildElemIndex(folded, inst.UniverseSize)
	maxSize := 0
	for _, fs := range folded {
		if len(fs.elems) > maxSize {
			maxSize = len(fs.elems)
		}
	}
	marg := make([]int, len(folded))
	done := make([]bool, len(folded))
	buckets := make([][]int32, maxSize+1)
	for j, fs := range folded {
		marg[j] = len(fs.elems)
		buckets[marg[j]] = append(buckets[marg[j]], int32(j))
	}
	inUnion := make(map[int32]bool)
	sol := &Solution{Demand: p}
	for j, fs := range folded {
		if marg[j] == 0 && !done[j] {
			done[j] = true
			sol.Covered += fs.mult
		}
	}
	cur := 0
	for sol.Covered < p {
		for cur <= maxSize && len(buckets[cur]) == 0 {
			cur++
		}
		if cur > maxSize {
			return nil, fmt.Errorf("%w: internal exhaustion", ErrInfeasible)
		}
		j := buckets[cur][len(buckets[cur])-1]
		buckets[cur] = buckets[cur][:len(buckets[cur])-1]
		if done[j] || marg[j] != cur {
			if !done[j] && marg[j] < cur {
				buckets[marg[j]] = append(buckets[marg[j]], j)
				if marg[j] < cur {
					cur = marg[j]
				}
			}
			continue
		}
		sol.Picked++
		for _, e := range folded[j].elems {
			if inUnion[e] {
				continue
			}
			inUnion[e] = true
			sol.Union = append(sol.Union, e)
			for _, k := range elemToSets.sets(e) {
				if done[k] {
					continue
				}
				marg[k]--
				if marg[k] == 0 {
					done[k] = true
					sol.Covered += folded[k].mult
				} else {
					buckets[marg[k]] = append(buckets[marg[k]], k)
					if marg[k] < cur {
						cur = marg[k]
					}
				}
			}
		}
	}
	sort.Slice(sol.Union, func(i, k int) bool { return sol.Union[i] < sol.Union[k] })
	return sol, nil
}

type refDensityEntry struct {
	id      int32
	marg    int
	density float64
}

type refDensityHeap []refDensityEntry

func (h refDensityHeap) Len() int { return len(h) }
func (h refDensityHeap) Less(i, j int) bool {
	if h[i].density != h[j].density {
		return h[i].density > h[j].density
	}
	if h[i].marg != h[j].marg {
		return h[i].marg < h[j].marg
	}
	return h[i].id < h[j].id
}
func (h refDensityHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refDensityHeap) Push(x any)   { *h = append(*h, x.(refDensityEntry)) }
func (h *refDensityHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func referenceGreedyBudget(inst *Instance, budget int) (*Solution, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("%w: budget must be positive", ErrBadInstance)
	}
	folded, err := refFold(inst)
	if err != nil {
		return nil, err
	}
	elemToSets := refBuildElemIndex(folded, inst.UniverseSize)
	marg := make([]int, len(folded))
	done := make([]bool, len(folded))
	sol := &Solution{}
	h := &refDensityHeap{}
	for j, fs := range folded {
		marg[j] = len(fs.elems)
		if marg[j] == 0 {
			done[j] = true
			sol.Covered += fs.mult
			continue
		}
		heap.Push(h, refDensityEntry{id: int32(j), marg: marg[j], density: float64(fs.mult) / float64(marg[j])})
	}
	inUnion := make(map[int32]bool)
	remaining := budget
	for h.Len() > 0 && remaining > 0 {
		entry := heap.Pop(h).(refDensityEntry)
		j := entry.id
		if done[j] || marg[j] != entry.marg {
			continue
		}
		if marg[j] > remaining {
			continue
		}
		sol.Picked++
		for _, e := range folded[j].elems {
			if inUnion[e] {
				continue
			}
			inUnion[e] = true
			sol.Union = append(sol.Union, e)
			remaining--
			for _, k := range elemToSets.sets(e) {
				if done[k] {
					continue
				}
				marg[k]--
				if marg[k] == 0 {
					done[k] = true
					sol.Covered += folded[k].mult
				} else {
					heap.Push(h, refDensityEntry{id: k, marg: marg[k], density: float64(folded[k].mult) / float64(marg[k])})
				}
			}
		}
	}
	sort.Slice(sol.Union, func(i, k int) bool { return sol.Union[i] < sol.Union[k] })
	return sol, nil
}

// --- Parity tests ----------------------------------------------------------

// referenceNewFamily is NewFamily before paths were stored sorted: it
// copies and sorts every set, keeps hash buckets as a map of id slices
// and inverts the fold with a universe-sized cursor array. NewFamily must
// build the same Family — sets, multiplicities, first-appearance order
// and postings — from any instance.
func referenceNewFamily(inst *Instance) (*Family, error) {
	if err := inst.validate(); err != nil {
		return nil, err
	}
	nsets := inst.NumSets()
	f := &Family{
		universe: inst.UniverseSize,
		numSets:  nsets,
		off:      make([]int32, 1, nsets+1),
	}
	buckets := make(map[uint64][]int32, nsets)
	var elemBuf []int32
probe:
	for i := 0; i < nsets; i++ {
		elemBuf = append(elemBuf[:0], inst.set(i)...)
		slices.Sort(elemBuf)
		out := elemBuf[:0]
		var prev int32 = -1
		for _, e := range elemBuf {
			if e < 0 || int(e) >= inst.UniverseSize {
				return nil, fmt.Errorf("%w: element %d outside universe [0,%d)", ErrBadInstance, e, inst.UniverseSize)
			}
			if e != prev {
				out = append(out, e)
				prev = e
			}
		}
		elemBuf = out
		h := hashElems(elemBuf)
		for _, j := range buckets[h] {
			if slices.Equal(f.set(int(j)), elemBuf) {
				f.mult[j]++
				continue probe
			}
		}
		j := int32(len(f.mult))
		f.elems = append(f.elems, elemBuf...)
		f.off = append(f.off, int32(len(f.elems)))
		f.mult = append(f.mult, 1)
		buckets[h] = append(buckets[h], j)
		if len(elemBuf) > f.maxSize {
			f.maxSize = len(elemBuf)
		}
	}
	f.idxOff = make([]int32, f.universe+1)
	for _, e := range f.elems {
		f.idxOff[e+1]++
	}
	for e := 0; e < f.universe; e++ {
		f.idxOff[e+1] += f.idxOff[e]
	}
	f.idxIDs = make([]int32, len(f.elems))
	next := make([]int32, f.universe)
	for j := range f.mult {
		for _, e := range f.set(j) {
			f.idxIDs[f.idxOff[e]+next[e]] = int32(j)
			next[e]++
		}
	}
	return f, nil
}

// canonicalInstance returns inst with every set sorted and
// de-duplicated, in CSR form — the shape a realization pool hands over.
func canonicalInstance(inst *Instance) *Instance {
	out := &Instance{UniverseSize: inst.UniverseSize, SetOffsets: []int32{0}}
	for i := 0; i < inst.NumSets(); i++ {
		set := slices.Compact(slices.Sorted(slices.Values(inst.set(i))))
		out.SetArena = append(out.SetArena, set...)
		out.SetOffsets = append(out.SetOffsets, int32(len(out.SetArena)))
	}
	return out
}

// checkFamilyParity compares NewFamily against referenceNewFamily on
// inst: equal tables, exactly sized, or the same error class.
func checkFamilyParity(t *testing.T, label string, inst *Instance) {
	t.Helper()
	want, wantErr := referenceNewFamily(inst)
	got, err := NewFamily(inst)
	if wantErr != nil || err != nil {
		if !errors.Is(err, ErrBadInstance) || !errors.Is(wantErr, ErrBadInstance) {
			t.Fatalf("%s: NewFamily err = %v, reference err = %v", label, err, wantErr)
		}
		return
	}
	if got.universe != want.universe || got.numSets != want.numSets || got.maxSize != want.maxSize {
		t.Fatalf("%s: shape (universe %d, sets %d, maxSize %d), reference (%d, %d, %d)", label,
			got.universe, got.numSets, got.maxSize, want.universe, want.numSets, want.maxSize)
	}
	for name, pair := range map[string][2][]int32{
		"elems": {got.elems, want.elems}, "off": {got.off, want.off}, "mult": {got.mult, want.mult},
		"idxOff": {got.idxOff, want.idxOff}, "idxIDs": {got.idxIDs, want.idxIDs},
	} {
		if !slices.Equal(pair[0], pair[1]) {
			t.Fatalf("%s: %s = %v, reference %v", label, name, pair[0], pair[1])
		}
		if cap(pair[0]) != len(pair[0]) {
			t.Fatalf("%s: %s has cap %d for %d entries", label, name, cap(pair[0]), len(pair[0]))
		}
	}
}

// TestNewFamilyMatchesReference: on random instances in both encodings,
// with unsorted sets and repeats (the one-shot Greedy callers) and
// canonicalized (the pool shape), with a few malformed sets mixed in,
// and under a hash that sends every set to one chain, NewFamily builds
// the reference's tables.
func TestNewFamilyMatchesReference(t *testing.T) {
	run := func(t *testing.T) {
		for seed := int64(0); seed < 80; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var inst *Instance
			if seed%2 == 0 {
				inst = realizationInstance(rng, 50+rng.Intn(600))
			} else {
				inst = randomInstance(rng)
			}
			if seed%9 == 4 {
				bad := slices.Clone(inst.Sets[0])
				bad = append(bad, []int32{-1, int32(inst.UniverseSize)}[seed%2])
				inst.Sets = append(inst.Sets, bad)
			}
			for _, enc := range []*Instance{inst, toCSR(inst), canonicalInstance(inst)} {
				checkFamilyParity(t, fmt.Sprintf("seed %d", seed), enc)
			}
		}
		checkFamilyParity(t, "empty", &Instance{UniverseSize: 3})
		checkFamilyParity(t, "empty sets", &Instance{UniverseSize: 3, Sets: [][]int32{{}, {2}, {}, {2, 2}}})
	}
	t.Run("fnv", run)
	t.Run("one-chain", func(t *testing.T) {
		orig := hashElems
		hashElems = func([]int32) uint64 { return 42 }
		defer func() { hashElems = orig }()
		run(t)
	})
}

// toCSR re-encodes an explicit-Sets instance as CSR.
func toCSR(inst *Instance) *Instance {
	var arena []int32
	offsets := []int32{0}
	for _, s := range inst.Sets {
		arena = append(arena, s...)
		offsets = append(offsets, int32(len(arena)))
	}
	return &Instance{UniverseSize: inst.UniverseSize, SetArena: arena, SetOffsets: offsets}
}

func solutionsEqual(a, b *Solution) bool {
	return reflect.DeepEqual(a.Union, b.Union) && a.Covered == b.Covered &&
		a.Demand == b.Demand && a.Picked == b.Picked
}

// realizationInstance builds an instance shaped like a realization pool:
// many short, duplicate-heavy sets.
func realizationInstance(rng *rand.Rand, copies int) *Instance {
	universe := 50 + rng.Intn(500)
	distinct := make([][]int32, 10+rng.Intn(60))
	for i := range distinct {
		sz := 1 + rng.Intn(6)
		s := make([]int32, sz)
		for j := range s {
			s[j] = int32(rng.Intn(universe))
		}
		distinct[i] = s
	}
	inst := &Instance{UniverseSize: universe}
	for i := 0; i < copies; i++ {
		inst.Sets = append(inst.Sets, distinct[rng.Intn(len(distinct))])
	}
	return inst
}

// TestFamilySolverParityGreedy: the Family/Solver path must return
// byte-identical Solutions to the pre-PR one-shot Greedy across randomized
// instances, a spread of demands, and both encodings.
func TestFamilySolverParityGreedy(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var inst *Instance
		if seed%3 == 0 {
			inst = realizationInstance(rng, 200+rng.Intn(800))
		} else {
			inst = randomInstance(rng)
		}
		for _, enc := range []*Instance{inst, toCSR(inst)} {
			fam, err := NewFamily(enc)
			if err != nil {
				t.Fatalf("seed %d: NewFamily: %v", seed, err)
			}
			sv := NewSolver(fam)
			n := enc.NumSets()
			for _, p := range []int{1, 1 + n/7, 1 + n/3, n / 2, n} {
				if p < 1 || p > n {
					continue
				}
				want, err := referenceGreedy(enc, p)
				if err != nil {
					t.Fatalf("seed %d p=%d: reference: %v", seed, p, err)
				}
				for pass := 0; pass < 2; pass++ { // reused scratch must not leak state
					got, err := sv.Solve(p)
					if err != nil {
						t.Fatalf("seed %d p=%d pass %d: Solver.Solve: %v", seed, p, pass, err)
					}
					if !solutionsEqual(got, want) {
						t.Fatalf("seed %d p=%d pass %d: solver %+v != reference %+v", seed, p, pass, got, want)
					}
				}
				got, err := Greedy(enc, p)
				if err != nil {
					t.Fatalf("seed %d p=%d: Greedy: %v", seed, p, err)
				}
				if !solutionsEqual(got, want) {
					t.Fatalf("seed %d p=%d: Greedy wrapper %+v != reference %+v", seed, p, got, want)
				}
			}
		}
	}
}

// TestFamilySolverParityBudget: same contract for the budgeted variant.
func TestFamilySolverParityBudget(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		var inst *Instance
		if seed%3 == 0 {
			inst = realizationInstance(rng, 200+rng.Intn(800))
		} else {
			inst = randomInstance(rng)
		}
		for _, enc := range []*Instance{inst, toCSR(inst)} {
			fam, err := NewFamily(enc)
			if err != nil {
				t.Fatalf("seed %d: NewFamily: %v", seed, err)
			}
			sv := NewSolver(fam)
			for _, b := range []int{1, 2, 5, inst.UniverseSize / 4, inst.UniverseSize} {
				if b < 1 {
					continue
				}
				want, err := referenceGreedyBudget(enc, b)
				if err != nil {
					t.Fatalf("seed %d b=%d: reference: %v", seed, b, err)
				}
				for pass := 0; pass < 2; pass++ {
					got, err := sv.SolveBudget(b)
					if err != nil {
						t.Fatalf("seed %d b=%d pass %d: SolveBudget: %v", seed, b, pass, err)
					}
					if !solutionsEqual(got, want) {
						t.Fatalf("seed %d b=%d pass %d: solver %+v != reference %+v", seed, b, pass, got, want)
					}
				}
			}
		}
	}
}

// TestSolverRebindParity: one roaming Solver rebound across a sequence of
// families — growing, shrinking, alternating encodings — must return the
// same Solutions as a fresh Solver per family. This is the batched
// ranking contract: scratch is shared across candidates' pools, answers
// are not.
func TestSolverRebindParity(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	var roaming *Solver
	for round := 0; round < 40; round++ {
		var inst *Instance
		switch round % 3 {
		case 0:
			inst = realizationInstance(rng, 100+rng.Intn(1500))
		case 1:
			inst = randomInstance(rng)
		default:
			inst = toCSR(randomInstance(rng))
		}
		fam, err := NewFamily(inst)
		if err != nil {
			t.Fatalf("round %d: NewFamily: %v", round, err)
		}
		if roaming == nil {
			roaming = NewSolver(fam)
		} else {
			roaming.rebind(fam)
		}
		fresh := NewSolver(fam)
		n := inst.NumSets()
		for _, p := range []int{1, 1 + n/3, n} {
			if p < 1 || p > n {
				continue
			}
			want, err := fresh.Solve(p)
			if err != nil {
				t.Fatalf("round %d p=%d: fresh Solve: %v", round, p, err)
			}
			got, err := roaming.Solve(p)
			if err != nil {
				t.Fatalf("round %d p=%d: rebound Solve: %v", round, p, err)
			}
			if !solutionsEqual(got, want) {
				t.Fatalf("round %d p=%d: rebound %+v != fresh %+v", round, p, got, want)
			}
		}
		for _, b := range []int{1, 1 + inst.UniverseSize/3} {
			want, err := fresh.SolveBudget(b)
			if err != nil {
				t.Fatalf("round %d b=%d: fresh SolveBudget: %v", round, b, err)
			}
			got, err := roaming.SolveBudget(b)
			if err != nil {
				t.Fatalf("round %d b=%d: rebound SolveBudget: %v", round, b, err)
			}
			if !solutionsEqual(got, want) {
				t.Fatalf("round %d b=%d: rebound %+v != fresh %+v", round, b, got, want)
			}
		}
	}
}

// TestSolverInterleavedKinds: alternating demand and budget solves on one
// Solver must not contaminate each other's scratch.
func TestSolverInterleavedKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	inst := realizationInstance(rng, 500)
	fam, err := NewFamily(inst)
	if err != nil {
		t.Fatal(err)
	}
	sv := NewSolver(fam)
	n := inst.NumSets()
	for i := 0; i < 20; i++ {
		p := 1 + rng.Intn(n)
		b := 1 + rng.Intn(inst.UniverseSize)
		got, err := sv.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceGreedy(inst, p)
		if err != nil {
			t.Fatal(err)
		}
		if !solutionsEqual(got, want) {
			t.Fatalf("iter %d: Solve(%d) diverged after interleaving", i, p)
		}
		gotB, err := sv.SolveBudget(b)
		if err != nil {
			t.Fatal(err)
		}
		wantB, err := referenceGreedyBudget(inst, b)
		if err != nil {
			t.Fatal(err)
		}
		if !solutionsEqual(gotB, wantB) {
			t.Fatalf("iter %d: SolveBudget(%d) diverged after interleaving", i, b)
		}
	}
}

// TestFoldCollision forces every set into one hash bucket: the fold's
// equality verification alone must keep distinct sets apart, so a hash
// collision can never merge unequal sets (or corrupt multiplicities).
func TestFoldCollision(t *testing.T) {
	orig := hashElems
	hashElems = func([]int32) uint64 { return 42 }
	defer func() { hashElems = orig }()

	inst := &Instance{
		UniverseSize: 10,
		Sets:         [][]int32{{0, 1}, {1, 2}, {0, 1}, {3}, {2, 3, 4}, {3}, {3}},
	}
	fam, err := NewFamily(inst)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fam.NumFolded(), 4; got != want {
		t.Fatalf("NumFolded = %d, want %d (collisions must not merge distinct sets)", got, want)
	}
	if got, want := fam.NumSets(), 7; got != want {
		t.Fatalf("NumSets = %d, want %d", got, want)
	}
	wantMult := []int32{2, 1, 3, 1} // first-appearance order: {0,1}, {1,2}, {3}, {2,3,4}
	if !reflect.DeepEqual(fam.mult, wantMult) {
		t.Fatalf("mult = %v, want %v", fam.mult, wantMult)
	}
	for p := 1; p <= inst.NumSets(); p++ {
		got, err := fam.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceGreedy(inst, p)
		if err != nil {
			t.Fatal(err)
		}
		if !solutionsEqual(got, want) {
			t.Fatalf("p=%d under total hash collision: %+v != %+v", p, got, want)
		}
	}
}

// TestBorrowReleaseUnbinds: a borrowed solver solves like a fresh one
// whatever family it served before, and Release drops its family and
// trace, so an idle pooled solver pins neither.
func TestBorrowReleaseUnbinds(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for round := 0; round < 20; round++ {
		inst := realizationInstance(rng, 50+rng.Intn(800))
		fam, err := NewFamily(inst)
		if err != nil {
			t.Fatal(err)
		}
		s := Borrow(fam)
		s.SetTrace(obs.NewTracer(1).Start("test"))
		p := 1 + inst.NumSets()/2
		got, err := s.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewSolver(fam).Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if !solutionsEqual(got, want) {
			t.Fatalf("round %d: borrowed %+v != fresh %+v", round, got, want)
		}
		s.Release()
		if s.f != nil || s.tr != nil {
			t.Fatalf("round %d: released solver still holds family %p / trace %p", round, s.f, s.tr)
		}
	}
}

// TestFamilyConcurrentSolvers: one Family, many goroutines, each with its
// own Solver (or the pooled Family.Solve path) — results must match the
// sequential reference. Run under -race by CI.
func TestFamilyConcurrentSolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inst := realizationInstance(rng, 2000)
	fam, err := NewFamily(inst)
	if err != nil {
		t.Fatal(err)
	}
	n := inst.NumSets()
	demands := []int{1, n / 5, n / 3, n / 2, 2 * n / 3, n}
	want := make([]*Solution, len(demands))
	for i, p := range demands {
		if want[i], err = referenceGreedy(inst, p); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sv := NewSolver(fam)
			for rep := 0; rep < 8; rep++ {
				for i, p := range demands {
					var got *Solution
					var err error
					if (g+rep)%2 == 0 {
						got, err = sv.Solve(p)
					} else {
						got, err = fam.Solve(p) // pooled-solver path
					}
					if err != nil {
						errs <- err
						return
					}
					if !solutionsEqual(got, want[i]) {
						errs <- fmt.Errorf("goroutine %d rep %d p=%d: diverged", g, rep, p)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFamilyMemBytes: the accounting must cover every immutable table.
func TestFamilyMemBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inst := realizationInstance(rng, 300)
	fam, err := NewFamily(inst)
	if err != nil {
		t.Fatal(err)
	}
	want := (int64(cap(fam.elems)) + int64(cap(fam.off)) + int64(cap(fam.mult)) +
		int64(cap(fam.idxOff)) + int64(cap(fam.idxIDs))) * 4
	if got := fam.MemBytes(); got != want || got <= 0 {
		t.Fatalf("MemBytes = %d, want %d (> 0)", got, want)
	}
}

// TestSolverAllocFree: after warm-up, a repeated solve on reused scratch
// must allocate only the returned Solution (a handful of allocations for
// the struct and its union slice, far below the per-solve fold rebuild).
func TestSolverAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inst := realizationInstance(rng, 5000)
	fam, err := NewFamily(inst)
	if err != nil {
		t.Fatal(err)
	}
	sv := NewSolver(fam)
	p := inst.NumSets() / 2
	if _, err := sv.Solve(p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sv.Solve(p); err != nil {
			t.Fatal(err)
		}
	})
	// Solution struct + grown Union backing: single digits; the pre-split
	// path allocated the whole fold + index every call (thousands).
	if allocs > 10 {
		t.Fatalf("Solver.Solve allocates %.0f/op, want ≤ 10", allocs)
	}
}
