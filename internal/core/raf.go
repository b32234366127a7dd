// Package core implements the paper's primary contribution: the
// Realization-based Active Friending (RAF) algorithm (Algorithm 4) for the
// Minimum Active Friending problem, together with its ingredients — the
// equation-system solve (Eq. 17), the p_max estimation (Algorithm 2), the
// realization-cover framework (Algorithm 3) and the exact V_max of the
// polynomial α = 1 special case (Lemma 7, Sec. III-C).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ltm"
	"repro/internal/obs"
	"repro/internal/setcover"
)

// ErrTargetUnreachable reports an instance whose p_max is (statistically
// indistinguishable from) zero: no invitation strategy can work.
var ErrTargetUnreachable = errors.New("core: target unreachable (p_max ≈ 0)")

// Config parameterizes the RAF algorithm.
type Config struct {
	// Alpha is the required fraction of p_max (Problem 1); (0, 1].
	Alpha float64
	// Eps is the accuracy slack ε ∈ (0, Alpha): the output guarantees
	// f(I*) ≥ (Alpha−Eps)·p_max with probability ≥ 1 − 2/N.
	Eps float64
	// N controls the success probability 1 − 2/N; the paper's experiments
	// use 100000. Must exceed 2.
	N float64
	// Seed makes the run reproducible.
	Seed int64
	// Workers bounds sampling parallelism; 0 means all CPUs.
	Workers int

	// MaxRealizations caps the pool size l. The theoretical l* (Eq. 16)
	// is astronomically conservative (the paper itself shows in Sec. IV-E
	// that far fewer realizations already saturate quality); 0 means
	// "theory only, no cap" and is advisable only on small instances.
	MaxRealizations int64
	// MaxPmaxDraws caps the stopping-rule sample count of Algorithm 2;
	// 0 means unbounded. When the cap is hit with zero successes the run
	// fails with ErrTargetUnreachable.
	MaxPmaxDraws int64
	// OverrideL, when positive, skips the theoretical sizing entirely and
	// uses exactly this many realizations (the practical regime of
	// Sec. IV-E and Fig. 6). Beta is still derived from the equation
	// system.
	OverrideL int64
	// DisableVmaxReduction, when true, uses n rather than |V_max| as the
	// union-bound dimension (for ablation; Sec. III-C licenses |V_max|).
	DisableVmaxReduction bool
}

func (c *Config) validate() error {
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("%w: Alpha=%v not in (0,1]", ErrBadConfig, c.Alpha)
	}
	if c.Eps <= 0 || c.Eps >= c.Alpha {
		return fmt.Errorf("%w: Eps=%v must lie in (0, Alpha=%v)", ErrBadConfig, c.Eps, c.Alpha)
	}
	if c.N <= 2 {
		return fmt.Errorf("%w: N=%v must exceed 2", ErrBadConfig, c.N)
	}
	if c.MaxRealizations < 0 || c.MaxPmaxDraws < 0 || c.OverrideL < 0 {
		return fmt.Errorf("%w: negative cap", ErrBadConfig)
	}
	return nil
}

// Result is the output of a RAF run, including the diagnostics needed by
// the experiments and by EXPERIMENTS.md.
type Result struct {
	// Invited is the invitation set I*.
	Invited *graph.NodeSet
	// Params holds the solved (ε₀, ε₁, β).
	Params Params
	// PStar is the Algorithm 2 estimate of p_max.
	PStar float64
	// PmaxDraws is the number of stopping-rule draws PStar consumed.
	// PmaxReused counts how many of them were already in the session's
	// estimator ledger from earlier solves (the refinement win), and
	// PmaxTruncated reports that the MaxPmaxDraws budget cut the rule
	// short of its nominal accuracy.
	PmaxDraws     int64
	PmaxReused    int64
	PmaxTruncated bool
	// LTheory is the Eq. 16 threshold l* (possibly +Inf-like huge);
	// LUsed is the pool size actually used after caps/overrides. A
	// Session serves exactly this many draws even when its cache has
	// grown larger, so the result is independent of earlier solves.
	LTheory float64
	LUsed   int64
	// PoolType1 is |B_l¹| and Demand is ⌈β·|B_l¹|⌉ (surfaced from the
	// set-cover solution, which is the single place it is computed).
	PoolType1 int
	Demand    int
	// Covered is the number of pooled realizations covered by Invited.
	Covered int
	// VmaxSize is |V_max| (0 when the reduction is disabled).
	VmaxSize int
}

// FrameworkFromPool runs the solve half of Algorithm 3 on an existing
// realization pool: solve the MSC instance (V, {t(g₁), …}, ⌈β·|B_l¹|⌉)
// with the greedy Chlamtáč-style solver against the pool's cached full
// set-cover family (a demand solve may need every path), so repeated
// solves on one pool (α/β sweeps, server traffic) fold and index the
// paths exactly once and run rebuild-free.
// The demand is computed here once and surfaced as Solution.Demand. A
// trace on ctx gets family_fold (when this call folds) and solve spans.
func FrameworkFromPool(ctx context.Context, in *ltm.Instance, beta float64, pool *engine.Pool) (*graph.NodeSet, *setcover.Solution, error) {
	if beta <= 0 || beta > 1 {
		return nil, nil, fmt.Errorf("%w: beta=%v not in (0,1]", ErrBadConfig, beta)
	}
	if pool.NumType1() == 0 {
		return nil, nil, fmt.Errorf("%w: no type-1 realization in %d draws", ErrTargetUnreachable, pool.Total())
	}
	demand := int(math.Ceil(beta * float64(pool.NumType1())))
	if demand < 1 {
		demand = 1
	}
	fam, err := pool.FamilyCtx(ctx, setcover.Unbounded)
	if err != nil {
		return nil, nil, fmt.Errorf("core: MSC family: %w", err)
	}
	solver := setcover.Borrow(fam)
	defer solver.Release()
	solver.SetTrace(obs.TraceFrom(ctx))
	sol, err := solver.Solve(demand)
	if err != nil {
		return nil, nil, fmt.Errorf("core: MSC solve: %w", err)
	}
	invited := graph.NewNodeSet(in.Graph().NumNodes())
	for _, v := range sol.Union {
		invited.Add(v)
	}
	return invited, sol, nil
}
