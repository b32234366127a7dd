package setcover

import (
	"errors"
	"fmt"
	"math"
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
// A family may be bounded by a maximum set size (see NewFamily): it then
// holds only the sets with at most that many elements, which is all a
// budgeted solve within the bound can use.
//
// A Family is safe for concurrent use: any number of Solvers (each owning
// its own mutable scratch) may solve against one Family from different
// goroutines. The realization engine caches one Family per pool.
type Family struct {
	universe int
	numSets  int // |U|: original set count = total multiplicity
	bound    int // every set of at most bound elements is held; Unbounded when none was left out

	elems   []int32 // folded-set elements, one CSR arena
	off     []int32 // folded set j is elems[off[j]:off[j+1]]; len NumFolded+1
	mult    []int32 // multiplicity per folded set
	maxSize int     // largest folded-set cardinality

	idxOff []int32 // element → folded-set ids, CSR over the universe
	idxIDs []int32
}

// Unbounded is the maximum set size that keeps every set: NewFamily with
// it builds the full family.
const Unbounded = math.MaxInt

// ErrBounded reports a solve that needs sets a size-bounded family left
// out: any demand solve, or a budget past the bound.
var ErrBounded = errors.New("setcover: solve needs sets the size-bounded family left out")

// NewFamily folds and indexes the sets of the instance with at most
// maxSize distinct elements; maxSize Unbounded (or at least the longest
// set's size) keeps them all. The input is validated exactly as Greedy
// validates it, left-out sets included: malformed CSR offsets, double
// encodings and out-of-universe elements all return ErrBadInstance.
//
// A bounded family answers SolveBudget(b) for every b ≤ maxSize exactly
// as the full family does. A set is filed there only while its marginal
// fits the remaining budget, so only when |S| ≤ b, and it counts as
// covered only inside a union of at most b elements, which again needs
// |S| ≤ b. The kept sets keep their first-appearance order, so heap ties
// break the same way.
//
// The fold is one pass over the sets. A set that is already strictly
// ascending — every realization-pool path, which the engine stores
// sorted — is hashed and compared in place; only a set that is not is
// copied, sorted and de-duplicated first. Distinct sets are found through
// an open-addressed table of folded ids keyed by hash, so folding a new
// distinct set allocates nothing until the table grows.
func NewFamily(inst *Instance, maxSize int) (*Family, error) {
	if err := inst.validate(); err != nil {
		return nil, err
	}
	nsets := inst.NumSets()
	// Size the tables for the sets that can be kept: a set's stored length
	// bounds its distinct elements.
	kept := 0
	for i := 0; i < nsets; i++ {
		if len(inst.set(i)) <= maxSize {
			kept++
		}
	}
	// reps[j] is folded set j's canonical elements: an input set itself,
	// or a range of fixed, which holds sorted copies of the input sets
	// that were not; hashes[j] is its hash. slots is an open-addressed
	// table of folded ids plus one (0 = empty), probed linearly from a
	// hash's top bits and kept at most half full. Hash collisions cost a
	// comparison, never correctness.
	reps := make([][]int32, 0, kept)
	mult := make([]int32, 0, kept)
	hashes := make([]uint64, 0, kept)
	var slots []int32
	var shift uint
	grow := func(n int) {
		size, bits := 1, uint(0)
		for size < 2*n {
			size, bits = size<<1, bits+1
		}
		slots, shift = make([]int32, size), 64-bits
		for j, h := range hashes {
			i := slotOf(h, shift)
			for slots[i] != 0 {
				i = (i + 1) & (size - 1)
			}
			slots[i] = int32(j) + 1
		}
	}
	grow(max(kept, 4))
	var fixed []int32
	total, longest, bound := 0, 0, Unbounded
probe:
	for i := 0; i < nsets; i++ {
		set := inst.set(i)
		mark := len(fixed)
		if !strictlyAscending(set) {
			fixed = append(fixed, set...)
			slices.Sort(fixed[mark:])
			set = slices.Compact(fixed[mark:])
			fixed = fixed[:mark+len(set)]
		}
		if len(set) > 0 && (set[0] < 0 || int(set[len(set)-1]) >= inst.UniverseSize) {
			e := set[0]
			if e >= 0 {
				e = set[len(set)-1]
			}
			return nil, fmt.Errorf("%w: element %d outside universe [0,%d)", ErrBadInstance, e, inst.UniverseSize)
		}
		if len(set) > maxSize {
			bound = maxSize
			fixed = fixed[:mark]
			continue
		}
		h := hashElems(set)
		s := slotOf(h, shift)
		for ; slots[s] != 0; s = (s + 1) & (len(slots) - 1) {
			if j := slots[s] - 1; hashes[j] == h && slices.Equal(reps[j], set) {
				mult[j]++
				fixed = fixed[:mark] // a duplicate keeps no copy
				continue probe
			}
		}
		slots[s] = int32(len(reps)) + 1
		reps = append(reps, set)
		mult = append(mult, 1)
		hashes = append(hashes, h)
		total += len(set)
		longest = max(longest, len(set))
		if 2*len(reps) > len(slots) {
			grow(len(reps))
		}
	}
	f := &Family{
		universe: inst.UniverseSize,
		numSets:  nsets,
		bound:    bound,
		elems:    make([]int32, 0, total),
		off:      make([]int32, 1, len(reps)+1),
		mult:     make([]int32, len(mult)),
		maxSize:  longest,
	}
	copy(f.mult, mult)
	for _, set := range reps {
		f.elems = append(f.elems, set...)
		f.off = append(f.off, int32(len(f.elems)))
	}
	f.buildIndex()
	return f, nil
}

// slotOf returns the fold table slot a hash probes first: its top bits
// after a Fibonacci multiply, which mixes every bit of the hash in.
func slotOf(h uint64, shift uint) int {
	return int(h * 0x9E3779B97F4A7C15 >> shift)
}

// strictlyAscending reports whether set is sorted with no repeats — the
// canonical form the fold hashes as is.
func strictlyAscending(set []int32) bool {
	for k := 1; k < len(set); k++ {
		if set[k] <= set[k-1] {
			return false
		}
	}
	return true
}

// buildIndex inverts the folded family over the universe. idxOff[e]
// first counts e's sets, then marks the end of e's list; filling back to
// front moves each idxOff[e] down to the list's start, so every list
// comes out ascending without a separate cursor array.
func (f *Family) buildIndex() {
	f.idxOff = make([]int32, f.universe+1)
	for _, e := range f.elems {
		f.idxOff[e]++
	}
	var end int32
	for e := 0; e < f.universe; e++ {
		end += f.idxOff[e]
		f.idxOff[e] = end
	}
	f.idxOff[f.universe] = end
	f.idxIDs = make([]int32, len(f.elems))
	for j := len(f.mult) - 1; j >= 0; j-- {
		for _, e := range f.set(j) {
			f.idxOff[e]--
			f.idxIDs[f.idxOff[e]] = int32(j)
		}
	}
}

// set returns folded set j's sorted distinct elements.
func (f *Family) set(j int) []int32 { return f.elems[f.off[j]:f.off[j+1]] }

// setSize returns |folded set j|.
func (f *Family) setSize(j int) int32 { return f.off[j+1] - f.off[j] }

// containing returns the folded-set ids containing element e.
func (f *Family) containing(e int32) []int32 { return f.idxIDs[f.idxOff[e]:f.idxOff[e+1]] }

// NumSets returns |U|, the original (unfolded) set count, left-out sets
// included.
func (f *Family) NumSets() int { return f.numSets }

// Bound returns the largest set size up to which the family holds every
// set: the maxSize it was built with, or Unbounded when it left no set
// out.
func (f *Family) Bound() int { return f.bound }

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
// the per-marginal buckets, the epoch-versioned union bitset and the union
// being built — sized once for its Family and reused across solves, so a
// repeated solve allocates nothing beyond the returned Solution and its
// Union.
//
// A Solver must NOT be shared across goroutines; it serializes nothing.
// Concurrent solving is done with one Solver per goroutine against the
// shared (immutable) Family.
type Solver struct {
	f       *Family
	tr      *obs.Trace // solve-stage spans; nil (the default) records nothing
	marg    []int32    // uncovered-element count per folded set
	done    []bool     // folded set fully covered
	buckets [][]int32  // sets keyed by current marginal (a heap per bucket in SolveBudget)
	union   []int32    // the union under construction, copied out sorted

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
// marginals. The buckets and union scratch keep their capacity.
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
	if f.bound != Unbounded {
		return nil, fmt.Errorf("%w: demand p=%d on a family bounded at %d elements per set", ErrBounded, p, f.bound)
	}
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
	union := s.union[:0]
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
			union = append(union, e)
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
	sol.Union = s.takeUnion(union)
	return sol, nil
}

// takeUnion keeps u as the solver's union scratch and returns a sorted,
// exact-size copy of it (nil when nothing was added).
func (s *Solver) takeUnion(u []int32) []int32 {
	s.union = u
	if len(u) == 0 {
		return nil
	}
	slices.Sort(u)
	return slices.Clone(u)
}

// SolveBudget runs the budgeted max-coverage greedy (best covered
// multiplicity per newly added element, among sets fitting the remaining
// budget), bit-identical to the one-shot GreedyBudget.
//
// Only sets that fit are tracked. Bucket c ≤ min(remaining, maxSize) is a
// heap of the live sets with marginal c, best multiplicity on top; each
// step takes the bucket top with the best density mult/c, a tie going to
// the smaller c. That is the order (density desc, marginal asc, id asc)
// over every live set whose marginal fits the remaining budget. A set
// that no longer fits can fit again only after a decrement, which
// re-files it; one that reaches marginal 0 counts as covered.
func (s *Solver) SolveBudget(budget int) (*Solution, error) {
	f := s.f
	if budget <= 0 {
		return nil, fmt.Errorf("%w: budget %d must be positive", ErrBadInstance, budget)
	}
	if budget > f.bound {
		return nil, fmt.Errorf("%w: budget %d past the family's bound %d", ErrBounded, budget, f.bound)
	}
	sp := s.tr.StartSpan(obs.StageSolve)
	defer sp.End()
	s.reset()
	sol := &Solution{}
	top := min(budget, f.maxSize)
	for c := 1; c <= top; c++ {
		s.buckets[c] = s.buckets[c][:0]
	}
	for j, m := range s.marg {
		if m == 0 {
			s.done[j] = true
			sol.Covered += int(f.mult[j])
		} else if int(m) <= top {
			s.buckets[m] = append(s.buckets[m], int32(j))
		}
	}
	for c := 1; c <= top; c++ {
		s.bucketInit(s.buckets[c])
	}
	union := s.union[:0]
	for remaining := budget; remaining > 0; {
		best, bestC, bestD := int32(-1), 0, 0.0
		for c := 1; c <= min(remaining, top); c++ {
			h := s.buckets[c]
			for len(h) > 0 && int(s.marg[h[0]]) != c {
				h = s.bucketPop(h) // stale: covered (marginal 0) or re-filed lower
			}
			s.buckets[c] = h
			if len(h) == 0 {
				continue
			}
			if d := float64(f.mult[h[0]]) / float64(c); best < 0 || d > bestD {
				best, bestC, bestD = h[0], c, d
			}
		}
		if best < 0 {
			break // nothing left fits
		}
		s.buckets[bestC] = s.bucketPop(s.buckets[bestC])
		sol.Picked++
		for _, e := range f.set(int(best)) {
			if s.inUnion[e] == s.epoch {
				continue
			}
			s.inUnion[e] = s.epoch
			union = append(union, e)
			remaining--
			for _, k := range f.containing(e) {
				if s.done[k] {
					continue
				}
				s.marg[k]--
				if m := s.marg[k]; m == 0 {
					s.done[k] = true
					sol.Covered += int(f.mult[k])
				} else if int(m) <= remaining {
					s.buckets[m] = s.bucketPush(s.buckets[m], k)
				}
			}
		}
	}
	sol.Union = s.takeUnion(union)
	return sol, nil
}
