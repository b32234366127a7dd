// Package setcover solves the Minimum Subset Cover (MSC) problem the RAF
// framework reduces to (paper, Problems 2–4): given a family U of subsets
// of a universe V and a demand p, find a small V* ⊆ V such that at least p
// members of U are entirely contained in V*.
//
// By Remark 2 of the paper, MSC reduces to Minimum p-Union (MpU), for
// which Chlamtáč et al. give a 2√|U|-approximation. This package
// implements the combinatorial minimum-marginal-union greedy — the
// practical surrogate with the same O(√|U|) behaviour — plus an exact
// exponential solver used as a test oracle.
//
// The solve path is split into two halves so repeated queries against one
// family amortize: a Family is the prebuilt immutable fold (canonical
// distinct sets with multiplicities — in RAF many sampled t(g) paths
// coincide — plus the inverted element → sets index), and a Solver holds
// all mutable scratch (marginals, bucket queue, epoch-versioned union
// bitset), so a solve costs O(Σ|U_i|) once at Family build and each
// subsequent solve allocates nothing beyond its Solution. Greedy and
// GreedyBudget are one-shot wrappers over that pair.
//
// Coverage is counted semantically: a subset counts as covered the moment
// all its elements are in the union, whether or not it was explicitly
// picked (incidental coverage is legitimate for MSC and strictly helps).
package setcover

import (
	"errors"
	"fmt"
	"slices"
)

// ErrInfeasible reports a demand p exceeding the family size.
var ErrInfeasible = errors.New("setcover: demand exceeds family size")

// ErrBadInstance reports malformed input.
var ErrBadInstance = errors.New("setcover: invalid instance")

// Instance is an MSC instance over universe {0, …, UniverseSize−1}. The
// family may be given either as explicit Sets or in CSR form
// (SetArena/SetOffsets) — the latter is what the realization engine hands
// over zero-copy; populating both is an error.
type Instance struct {
	// UniverseSize bounds element ids.
	UniverseSize int
	// Sets is the family U. Sets may repeat (multiplicity matters for the
	// demand count) and elements within a set may repeat harmlessly.
	Sets [][]int32
	// SetArena/SetOffsets encode the family in CSR form: set i is
	// SetArena[SetOffsets[i]:SetOffsets[i+1]]. SetOffsets has one entry
	// per set plus a trailing end offset.
	SetArena   []int32
	SetOffsets []int32
}

// NumSets returns |U| under either encoding.
func (inst *Instance) NumSets() int {
	if inst.SetOffsets != nil {
		return len(inst.SetOffsets) - 1
	}
	return len(inst.Sets)
}

func (inst *Instance) set(i int) []int32 {
	if inst.SetOffsets != nil {
		return inst.SetArena[inst.SetOffsets[i]:inst.SetOffsets[i+1]]
	}
	return inst.Sets[i]
}

func (inst *Instance) validate() error {
	if inst.SetOffsets == nil {
		return nil
	}
	if inst.Sets != nil {
		return fmt.Errorf("%w: both Sets and SetOffsets populated", ErrBadInstance)
	}
	n := len(inst.SetOffsets)
	if n == 0 || inst.SetOffsets[0] != 0 || int(inst.SetOffsets[n-1]) != len(inst.SetArena) {
		return fmt.Errorf("%w: malformed CSR offsets", ErrBadInstance)
	}
	for i := 1; i < n; i++ {
		if inst.SetOffsets[i] < inst.SetOffsets[i-1] {
			return fmt.Errorf("%w: CSR offsets not monotone", ErrBadInstance)
		}
	}
	return nil
}

// Solution is the result of an MSC solve.
type Solution struct {
	// Union is the chosen V*, ascending.
	Union []int32
	// Covered is the number of members of U contained in Union; always
	// ≥ the demand p on success.
	Covered int
	// Demand is the demand p the solve was asked to satisfy (0 for the
	// budgeted variant, which has no demand).
	Demand int
	// Picked is the number of greedy pick operations performed (folded
	// sets explicitly chosen; incidental covers are not counted here).
	Picked int
}

// Greedy solves the MSC instance for demand p with the minimum-marginal
// greedy. It returns ErrInfeasible when p exceeds |U| and ErrBadInstance
// for malformed input.
//
// This is the one-shot convenience wrapper: it folds the instance into a
// Family and solves once. For repeated solves on one family (an α/β
// sweep, serving traffic), build the Family once and use Solver.Solve
// (or Family.Solve) — the fold and index are then paid exactly once.
func Greedy(inst *Instance, p int) (*Solution, error) {
	if err := inst.validate(); err != nil {
		return nil, err
	}
	if p <= 0 {
		return nil, fmt.Errorf("%w: demand p=%d must be positive", ErrBadInstance, p)
	}
	if p > inst.NumSets() {
		return nil, fmt.Errorf("%w: p=%d > |U|=%d", ErrInfeasible, p, inst.NumSets())
	}
	fam, err := NewFamily(inst, Unbounded)
	if err != nil {
		return nil, err
	}
	return fam.Solve(p)
}

// Exact solves the MSC instance optimally by enumerating subfamilies of
// the folded family. Exponential in the number of distinct sets; intended
// as a test oracle for instances with ≤ ~20 distinct sets.
func Exact(inst *Instance, p int) (*Solution, error) {
	if err := inst.validate(); err != nil {
		return nil, err
	}
	if p <= 0 {
		return nil, fmt.Errorf("%w: demand p=%d must be positive", ErrBadInstance, p)
	}
	if p > inst.NumSets() {
		return nil, fmt.Errorf("%w: p=%d > |U|=%d", ErrInfeasible, p, inst.NumSets())
	}
	fam, err := NewFamily(inst, Unbounded)
	if err != nil {
		return nil, err
	}
	k := fam.NumFolded()
	if k > 24 {
		return nil, fmt.Errorf("%w: %d distinct sets too many for exact enumeration", ErrBadInstance, k)
	}
	bestSize := -1
	var best *Solution
	for mask := uint32(0); mask < 1<<k; mask++ {
		union := map[int32]bool{}
		for j := 0; j < k; j++ {
			if mask&(1<<j) == 0 {
				continue
			}
			for _, e := range fam.set(j) {
				union[e] = true
			}
		}
		if bestSize >= 0 && len(union) >= bestSize {
			continue
		}
		// Count covered multiplicity (incidental covers included).
		covered := 0
		for j := 0; j < k; j++ {
			ok := true
			for _, e := range fam.set(j) {
				if !union[e] {
					ok = false
					break
				}
			}
			if ok {
				covered += int(fam.mult[j])
			}
		}
		if covered < p {
			continue
		}
		elems := make([]int32, 0, len(union))
		for e := range union {
			elems = append(elems, e)
		}
		slices.Sort(elems)
		bestSize = len(elems)
		best = &Solution{Union: elems, Covered: covered, Demand: p}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: no subfamily covers p=%d", ErrInfeasible, p)
	}
	return best, nil
}
