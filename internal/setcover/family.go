package setcover

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/obs"
)

// FNV-1a constants; the fold hashes each folded set word-wise over its
// sorted distinct elements.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashElems is the fold's set hash: FNV-1a folded word-wise over the
// sorted distinct elements. It is a package variable so the collision
// test can substitute a degenerate hash and exercise the bucket
// verification path — equal hashes must never merge unequal sets.
var hashElems = func(elems []int32) uint64 {
	h := uint64(fnvOffset64)
	for _, e := range elems {
		h ^= uint64(uint32(e))
		h *= fnvPrime64
	}
	return h
}

// Family is the prebuilt, immutable fold of an MSC instance: the distinct
// canonicalized sets in CSR form (sorted, deduplicated, in first-appearance
// order), their multiplicities, and the inverted element → folded-set
// index. Building it costs the one O(Σ|U_i|) pass that Greedy used to pay
// on every call; afterwards any number of solves at any demand or budget
// run against it rebuild-free.
//
// A Family is safe for concurrent use: any number of Solvers (each owning
// its own mutable scratch) may solve against one Family from different
// goroutines. The realization engine caches one Family per pool.
type Family struct {
	universe int
	numSets  int // |U|: original set count = total multiplicity

	elems   []int32 // folded-set elements, one CSR arena
	off     []int32 // folded set j is elems[off[j]:off[j+1]]; len NumFolded+1
	mult    []int32 // multiplicity per folded set
	maxSize int     // largest folded-set cardinality

	idxOff []int32 // element → folded-set ids, CSR over the universe
	idxIDs []int32
}

// NewFamily folds and indexes the instance. The input is validated exactly
// as Greedy validates it: malformed CSR offsets, double encodings and
// out-of-universe elements all return ErrBadInstance.
func NewFamily(inst *Instance) (*Family, error) {
	if err := inst.validate(); err != nil {
		return nil, err
	}
	nsets := inst.NumSets()
	f := &Family{
		universe: inst.UniverseSize,
		numSets:  nsets,
		off:      make([]int32, 1, nsets+1),
	}
	// hash → folded ids with that hash; equality is verified on every
	// probe, so hash collisions cost a comparison, never correctness.
	buckets := make(map[uint64][]int32, nsets)
	var elemBuf []int32
probe:
	for i := 0; i < nsets; i++ {
		elemBuf = append(elemBuf[:0], inst.set(i)...)
		slices.Sort(elemBuf)
		// Drop intra-set duplicates and validate range.
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
	f.buildIndex()
	return f, nil
}

// buildIndex inverts the folded family over the universe.
func (f *Family) buildIndex() {
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
}

// set returns folded set j's sorted distinct elements.
func (f *Family) set(j int) []int32 { return f.elems[f.off[j]:f.off[j+1]] }

// setSize returns |folded set j|.
func (f *Family) setSize(j int) int32 { return f.off[j+1] - f.off[j] }

// containing returns the folded-set ids containing element e.
func (f *Family) containing(e int32) []int32 { return f.idxIDs[f.idxOff[e]:f.idxOff[e+1]] }

// NumSets returns |U|, the original (unfolded) set count.
func (f *Family) NumSets() int { return f.numSets }

// NumFolded returns the number of distinct folded sets.
func (f *Family) NumFolded() int { return len(f.mult) }

// Universe returns the element-id bound.
func (f *Family) Universe() int { return f.universe }

// MemBytes returns the resident size of the family's immutable tables
// (all int32 entries). Transient Solver scratch — bounded by roughly the
// same order and reclaimed by the GC between solves — is not counted.
func (f *Family) MemBytes() int64 {
	return (int64(cap(f.elems)) + int64(cap(f.off)) + int64(cap(f.mult)) +
		int64(cap(f.idxOff)) + int64(cap(f.idxIDs))) * 4
}

// Solve runs the minimum-marginal-union greedy at demand p with a
// borrowed Solver (see Borrow), so repeated calls are near-allocation-
// free. Safe for concurrent use (each call borrows its own scratch).
func (f *Family) Solve(p int) (*Solution, error) {
	s := Borrow(f)
	defer s.Release()
	return s.Solve(p)
}

// SolveBudget runs the budgeted max-coverage greedy with a borrowed
// Solver; see Solve for the concurrency contract.
func (f *Family) SolveBudget(budget int) (*Solution, error) {
	s := Borrow(f)
	defer s.Release()
	return s.SolveBudget(budget)
}

// solvers is the one scratch pool every solve borrows from. A pooled
// Solver keeps only its scratch: Release unbinds its family, so an idle
// solver never pins a family (or the pool it was folded from) in memory.
var solvers sync.Pool // *Solver

// Borrow returns a Solver bound to f, re-binding pooled scratch from an
// earlier solve when there is some (see rebind: results are identical to
// a fresh NewSolver's). Solves against many families in turn — a TopK
// batch's candidates, a server's pairs — thereby reuse one set of
// marginal, bucket and bitset storage. Call Release when done; the
// Solver must not be used after that.
func Borrow(f *Family) *Solver {
	if s, ok := solvers.Get().(*Solver); ok {
		s.rebind(f)
		return s
	}
	return NewSolver(f)
}

// Release returns a borrowed Solver's scratch to the pool, dropping its
// family and trace first.
func (s *Solver) Release() {
	s.f, s.tr = nil, nil
	solvers.Put(s)
}

// Solver holds all mutable scratch of the greedy solvers — marginals,
// the bucket queue, the density heap and the epoch-versioned union bitset
// — sized once for its Family and reused across solves, so a repeated
// solve allocates nothing beyond the returned Solution.
//
// A Solver must NOT be shared across goroutines; it serializes nothing.
// Concurrent solving is done with one Solver per goroutine against the
// shared (immutable) Family.
type Solver struct {
	f       *Family
	tr      *obs.Trace // solve-stage spans; nil (the default) records nothing
	marg    []int32    // uncovered-element count per folded set
	done    []bool     // folded set fully covered
	buckets [][]int32  // bucket queue: sets keyed by current marginal
	heap    densityHeap

	inUnion []uint32 // element e is in the union iff inUnion[e] == epoch
	epoch   uint32
}

// SetTrace points the solver's solve-stage spans at tr: subsequent
// Solve/SolveBudget calls record one solve span each. A nil tr (the
// default) disables recording at zero cost — the narrow hook that lets a
// serving layer time greedy solves without setcover knowing about
// requests. Release clears it, so a borrowed solver never records into
// an earlier borrower's trace.
func (s *Solver) SetTrace(tr *obs.Trace) { s.tr = tr }

// NewSolver returns a solver with scratch sized for the family.
func NewSolver(f *Family) *Solver {
	return &Solver{
		f:       f,
		marg:    make([]int32, f.NumFolded()),
		done:    make([]bool, f.NumFolded()),
		buckets: make([][]int32, f.maxSize+1),
		inUnion: make([]uint32, f.universe),
	}
}

// rebind repoints the solver at another family, growing scratch only when
// the new family needs more of it, so pooled marginal/bucket/bitset
// storage amortizes across every family Borrow hands it to. Solutions are identical to a fresh
// NewSolver's: every solve re-derives its state in reset, and the union
// bitset stays valid because epochs are monotone — every stale entry was
// written at an earlier epoch, so it can never match a future one (a
// newly grown bitset holds zeros, which no live epoch ever equals).
func (s *Solver) rebind(f *Family) {
	s.f = f
	if n := f.NumFolded(); cap(s.marg) < n {
		s.marg = make([]int32, n)
	} else {
		s.marg = s.marg[:n]
	}
	if n := f.NumFolded(); cap(s.done) < n {
		s.done = make([]bool, n)
	} else {
		s.done = s.done[:n]
	}
	if n := f.maxSize + 1; cap(s.buckets) < n {
		grown := make([][]int32, n)
		copy(grown, s.buckets) // keep accumulated per-bucket capacity
		s.buckets = grown
	} else {
		s.buckets = s.buckets[:n]
	}
	if n := f.universe; cap(s.inUnion) < n {
		s.inUnion = make([]uint32, n)
	} else {
		s.inUnion = s.inUnion[:n]
	}
}

// reset prepares the per-solve scratch: a fresh union epoch and re-derived
// marginals. The bucket queue and heap keep their capacity.
func (s *Solver) reset() {
	s.epoch++
	if s.epoch == 0 { // wrapped: clear and restart
		clear(s.inUnion)
		s.epoch = 1
	}
	f := s.f
	for j := range s.marg {
		s.marg[j] = f.setSize(j)
		s.done[j] = false
	}
}

// Solve runs the minimum-marginal greedy for demand p, bit-identical to
// the one-shot Greedy: same picks, same union, same counters. It returns
// ErrInfeasible when p exceeds |U| and ErrBadInstance for p ≤ 0.
func (s *Solver) Solve(p int) (*Solution, error) {
	f := s.f
	if p <= 0 {
		return nil, fmt.Errorf("%w: demand p=%d must be positive", ErrBadInstance, p)
	}
	if p > f.numSets {
		return nil, fmt.Errorf("%w: p=%d > |U|=%d", ErrInfeasible, p, f.numSets)
	}
	sp := s.tr.StartSpan(obs.StageSolve)
	defer sp.End()
	s.reset()
	maxSize := f.maxSize
	for c := 0; c <= maxSize; c++ {
		s.buckets[c] = s.buckets[c][:0]
	}
	for j := range s.marg {
		s.buckets[s.marg[j]] = append(s.buckets[s.marg[j]], int32(j))
	}

	sol := &Solution{Demand: p}
	// Empty sets (possible in principle) are covered from the start.
	for j := range s.marg {
		if s.marg[j] == 0 && !s.done[j] {
			s.done[j] = true
			sol.Covered += int(f.mult[j])
		}
	}

	cur := 0
	for sol.Covered < p {
		// Find the lowest non-empty bucket with a live entry.
		for cur <= maxSize && len(s.buckets[cur]) == 0 {
			cur++
		}
		if cur > maxSize {
			// Cannot happen while sol.Covered < p ≤ total multiplicity,
			// but guard against inconsistency rather than spin.
			return nil, fmt.Errorf("%w: internal exhaustion at covered=%d, p=%d", ErrInfeasible, sol.Covered, p)
		}
		j := s.buckets[cur][len(s.buckets[cur])-1]
		s.buckets[cur] = s.buckets[cur][:len(s.buckets[cur])-1]
		if s.done[j] || int(s.marg[j]) != cur {
			// Stale entry: either already covered (skip) or its marginal
			// shrank and a fresher entry exists in a lower bucket.
			if !s.done[j] && int(s.marg[j]) < cur {
				// Re-file defensively (normally the decrement path already
				// filed it).
				s.buckets[s.marg[j]] = append(s.buckets[s.marg[j]], j)
				cur = int(s.marg[j])
			}
			continue
		}
		// Pick folded set j: add its uncovered elements to the union.
		sol.Picked++
		for _, e := range f.set(int(j)) {
			if s.inUnion[e] == s.epoch {
				continue
			}
			s.inUnion[e] = s.epoch
			sol.Union = append(sol.Union, e)
			for _, k := range f.containing(e) {
				if s.done[k] {
					continue
				}
				s.marg[k]--
				if s.marg[k] == 0 {
					s.done[k] = true
					sol.Covered += int(f.mult[k])
				} else {
					s.buckets[s.marg[k]] = append(s.buckets[s.marg[k]], k)
					if int(s.marg[k]) < cur {
						cur = int(s.marg[k])
					}
				}
			}
		}
		// j itself reached marginal 0 via the loop above.
	}
	slices.Sort(sol.Union)
	return sol, nil
}

// SolveBudget runs the budgeted max-coverage greedy (best covered
// multiplicity per newly added element, among sets fitting the remaining
// budget), bit-identical to the one-shot GreedyBudget.
func (s *Solver) SolveBudget(budget int) (*Solution, error) {
	f := s.f
	if budget <= 0 {
		return nil, fmt.Errorf("%w: budget %d must be positive", ErrBadInstance, budget)
	}
	sp := s.tr.StartSpan(obs.StageSolve)
	defer sp.End()
	s.reset()
	sol := &Solution{}
	s.heap = s.heap[:0]
	for j := range s.marg {
		if s.marg[j] == 0 {
			s.done[j] = true
			sol.Covered += int(f.mult[j])
			continue
		}
		s.heap.push(densityEntry{id: int32(j), marg: int(s.marg[j]), density: float64(f.mult[j]) / float64(s.marg[j])})
	}
	remaining := budget
	for len(s.heap) > 0 && remaining > 0 {
		entry := s.heap.pop()
		j := entry.id
		if s.done[j] || int(s.marg[j]) != entry.marg {
			continue // stale: a fresher entry exists (or the set is covered)
		}
		if int(s.marg[j]) > remaining {
			// Doesn't fit now; future decrements re-push it.
			continue
		}
		sol.Picked++
		for _, e := range f.set(int(j)) {
			if s.inUnion[e] == s.epoch {
				continue
			}
			s.inUnion[e] = s.epoch
			sol.Union = append(sol.Union, e)
			remaining--
			for _, k := range f.containing(e) {
				if s.done[k] {
					continue
				}
				s.marg[k]--
				if s.marg[k] == 0 {
					s.done[k] = true
					sol.Covered += int(f.mult[k])
				} else {
					s.heap.push(densityEntry{id: k, marg: int(s.marg[k]), density: float64(f.mult[k]) / float64(s.marg[k])})
				}
			}
		}
	}
	slices.Sort(sol.Union)
	return sol, nil
}
