// Package maxaf implements the *maximum* active friending variant the
// paper positions itself against (Sec. I–II; Yang et al. KDD'13, Yuan et
// al.): given an invitation budget b, maximize the acceptance probability
// f(I) subject to |I| ≤ b.
//
// It reuses the RAF machinery: sample a pool of realizations (Def. 1),
// then greedily commit whole backward paths t(g) — cheapest marginal
// union first — while the budget lasts (setcover.GreedyBudget). Under the
// linear threshold model the objective is supermodular in I (Yuan et
// al.), so node-wise greedy has no guarantee; covering realizations
// whole sidesteps that, exactly as RAF's minimization does.
package maxaf

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ltm"
	"repro/internal/obs"
	"repro/internal/setcover"
)

// DefaultRealizations is the pool size used when a caller passes
// realizations ≤ 0.
const DefaultRealizations = 50000

// Realizations returns the pool size a request for realizations draws
// is solved at: realizations itself, or DefaultRealizations when it is
// not positive.
func Realizations(realizations int64) int64 {
	if realizations <= 0 {
		return DefaultRealizations
	}
	return realizations
}

// Result is the budgeted solution.
type Result struct {
	// Invited is the chosen invitation set (|Invited| ≤ Budget).
	Invited *graph.NodeSet
	// CoveredFraction is the fraction of the sampled pool covered — the
	// pool's estimate of f(Invited).
	CoveredFraction float64
	// PoolType1 is the number of type-1 realizations sampled.
	PoolType1 int
}

// SolveMaxOn answers one budgeted query against a pair session: the
// greedy runs on sess's pool of exactly Realizations(realizations)
// draws, and the chosen set is re-measured on sess's decorrelated
// evaluation pool of the same size. It returns the solver result (whose
// CoveredFraction is the biased in-pool fraction) together with the
// decorrelated estimate. Every budgeted query — the server's SolveMax,
// a TopK candidate's score, the public Session.SolveMax — answers
// through it, so they agree by construction.
func SolveMaxOn(ctx context.Context, sess *core.Session, budget int, realizations int64) (*Result, float64, error) {
	l := Realizations(realizations)
	pool, err := sess.Pool(ctx, l)
	if err != nil {
		return nil, 0, err
	}
	res, err := SolveFromPool(ctx, sess.Instance(), budget, pool)
	if err != nil {
		return nil, 0, err
	}
	f, err := sess.Eval().EstimateF(ctx, res.Invited, l)
	if err != nil {
		return nil, 0, err
	}
	return res, f, nil
}

// SolveMaxBudgetsOn is SolveMaxOn for a whole budget sweep: the greedy
// runs once per budget against sess's pool (folded once), and the
// decorrelated estimates come from one batched coverage query on the
// evaluation pool. Results are identical to calling SolveMaxOn per
// budget.
func SolveMaxBudgetsOn(ctx context.Context, sess *core.Session, budgets []int, realizations int64) ([]*Result, []float64, error) {
	l := Realizations(realizations)
	pool, err := sess.Pool(ctx, l)
	if err != nil {
		return nil, nil, err
	}
	results, err := SolveBudgetsFromPool(ctx, sess.Instance(), budgets, pool)
	if err != nil {
		return nil, nil, err
	}
	sets := make([]*graph.NodeSet, len(results))
	for i, r := range results {
		sets[i] = r.Invited
	}
	fs, err := sess.Eval().EstimateFMany(ctx, sets, l)
	if err != nil {
		return nil, nil, err
	}
	return results, fs, nil
}

// SolveFromPool runs the budgeted max-coverage greedy against an existing
// realization pool; it is SolveBudgetsFromPool for one budget.
func SolveFromPool(ctx context.Context, in *ltm.Instance, budget int, pool *engine.Pool) (*Result, error) {
	results, err := SolveBudgetsFromPool(ctx, in, []int{budget}, pool)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// SolveBudgetsFromPool runs the budgeted greedy for every budget against
// one pool, through the pool's cached set-cover family: repeated budget
// solves on one pool (budget sweeps, server traffic) fold and index the
// paths once, and one borrowed Solver's scratch serves the whole sweep.
// The family needs only the paths of at most max(budgets) nodes: a
// longer one can never be covered within the budget (engine.Pool.FamilyCtx). Each in-pool covered fraction is the greedy's own Covered tally.
// A trace on ctx (obs.WithTrace) gets family_fold and solve stage spans;
// tracing off costs nothing.
func SolveBudgetsFromPool(ctx context.Context, in *ltm.Instance, budgets []int, pool *engine.Pool) ([]*Result, error) {
	if len(budgets) == 0 {
		return nil, fmt.Errorf("maxaf: no budgets given")
	}
	for _, b := range budgets {
		if b <= 0 {
			return nil, fmt.Errorf("maxaf: budget %d must be positive", b)
		}
	}
	if pool.NumType1() == 0 {
		return nil, fmt.Errorf("%w: no type-1 realization in %d draws", core.ErrTargetUnreachable, pool.Total())
	}
	fam, err := pool.FamilyCtx(ctx, slices.Max(budgets))
	if err != nil {
		return nil, fmt.Errorf("maxaf: set family: %w", err)
	}
	solver := setcover.Borrow(fam)
	defer solver.Release()
	solver.SetTrace(obs.TraceFrom(ctx))
	results := make([]*Result, len(budgets))
	n := in.Graph().NumNodes()
	for i, b := range budgets {
		sol, err := solver.SolveBudget(b)
		if err != nil {
			return nil, fmt.Errorf("maxaf: budgeted cover: %w", err)
		}
		invited := graph.NewNodeSet(n)
		for _, v := range sol.Union {
			invited.Add(v)
		}
		results[i] = &Result{
			Invited:         invited,
			CoveredFraction: float64(sol.Covered) / float64(pool.Total()),
			PoolType1:       pool.NumType1(),
		}
	}
	return results, nil
}
