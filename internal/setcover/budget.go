package setcover

import "fmt"

// GreedyBudget solves the budgeted dual of MSC: choose a union of at most
// budget elements maximizing the number of covered members of U
// (multiplicities counted). It powers the *maximum* active friending
// variant (maximize f(I) subject to |I| ≤ b): realizations are the family
// and invited users are the union.
//
// The greedy repeatedly commits the folded set with the best density —
// covered multiplicity per newly added element — among those fitting the
// remaining budget (the classic budgeted-max-coverage rule; ties go to the
// smaller marginal, then the smaller set id). Only sets that fit are
// tracked: one small heap per marginal value c ≤ remaining budget, ordered
// by multiplicity, so each step compares at most budget bucket tops.
// Marginals only shrink as the union grows, so a decrement re-files a set
// in its new, lower bucket and the stale entry is skipped when it surfaces.
//
// This is the one-shot convenience wrapper: it folds the sets that fit
// the budget into a Family and solves once. For repeated solves on one family, build the
// Family once and use Solver.SolveBudget (or Family.SolveBudget).
func GreedyBudget(inst *Instance, budget int) (*Solution, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("%w: budget %d must be positive", ErrBadInstance, budget)
	}
	fam, err := NewFamily(inst, budget)
	if err != nil {
		return nil, err
	}
	return fam.SolveBudget(budget)
}

// bucketBefore orders the sets of one marginal bucket: larger multiplicity
// first, then smaller id. Within a bucket the density is mult/c for a
// common c, so this is the greedy's (density desc, id asc) order.
func (s *Solver) bucketBefore(a, b int32) bool {
	ma, mb := s.f.mult[a], s.f.mult[b]
	return ma > mb || ma == mb && a < b
}

// bucketInit heap-orders a freshly filled bucket in O(len).
func (s *Solver) bucketInit(h []int32) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		s.bucketDown(h, i)
	}
}

// bucketPush adds set j to bucket h and returns the grown bucket.
func (s *Solver) bucketPush(h []int32, j int32) []int32 {
	h = append(h, j)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.bucketBefore(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// bucketPop removes bucket h's top and returns the shrunk bucket.
func (s *Solver) bucketPop(h []int32) []int32 {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	s.bucketDown(h, 0)
	return h
}

func (s *Solver) bucketDown(h []int32, i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && s.bucketBefore(h[r], h[j]) {
			j = r
		}
		if !s.bucketBefore(h[j], h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
