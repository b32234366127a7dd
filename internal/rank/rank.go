// Package rank schedules batched top-k candidate ranking under a shared
// draw budget.
//
// The setting is the one ROADMAP item 4 describes: one source, K
// candidate targets, and a serving layer that can score any candidate at
// any effort l (realization draws) as a pure function of (seed,
// candidate, l) — exact-size pool views make a partial-effort answer a
// prefix of the full-effort one, so effort spent on a candidate is never
// wasted when the scheduler returns to it. Under that purity contract,
// ranking K candidates is a best-arm identification problem, and the
// scheduler here runs the classic successive-halving schedule (the inner
// loop of Li et al.'s Hyperband): score every survivor at the round's
// rung effort, freeze the bottom half, double the rung, repeat until k
// survivors have been scored at full effort. The draw bill concentrates
// on the leaders — Σ rounds s_i·Δl_i instead of K·L — while a run whose
// budget admits the exhaustive plan is *identical* to K independent
// full-effort calls, because in that case the plan is a single
// full-effort round.
//
// The scheduler is deliberately ignorant of pools, servers and graphs:
// it sees candidate indices and a per-round scoring callback. Determinism
// is inherited, not imposed — every freeze decision sorts on (score,
// index), so the result is a pure function of the callback's values,
// however the callback spreads its work over goroutines.
package rank

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/obs"
)

// DefaultMinEffort is the smallest rung a plan starts candidates at,
// 2048 draws (four engine sampling chunks): finer rungs would mostly add
// scheduling rounds.
const DefaultMinEffort = 2048

// Config describes one batched ranking request.
type Config struct {
	// Candidates is the number of arms; the scorer is called with
	// indices in [0, Candidates).
	Candidates int
	// K is how many winners must reach full effort. K ≥ Candidates
	// degenerates to the exhaustive plan.
	K int
	// FullEffort L is the effort a winner must be scored at for its
	// answer to count as exhaustive-equivalent.
	FullEffort int64
	// MaxDraws bounds the total planned draw bill, in draws (effort ×
	// CostPerEffort). 0 means unlimited, which — like any budget that
	// admits the exhaustive bill — yields the single-round exhaustive
	// plan and therefore byte-identical answers to Candidates
	// independent full-effort calls.
	MaxDraws int64
	// MinEffort floors the first rung (default DefaultMinEffort).
	MinEffort int64
	// CostPerEffort converts one unit of effort into draws billed
	// (default 2: a solve pool and a decorrelated eval pool grow
	// together).
	CostPerEffort int64
}

// Round is one rung of a plan: Survivors candidates scored at Effort.
type Round struct {
	Effort    int64
	Survivors int
}

// Plan is the fixed schedule a Config resolves to before any scoring
// happens — a pure function of the Config, independent of scores, which
// is what keeps the whole run deterministic and resumable.
type Plan struct {
	Rounds []Round
	// Exhaustive marks the single-round full-effort plan whose answers
	// are identical to independent per-candidate calls.
	Exhaustive bool
	// Cost is the planned draw bill: Σ survivors·cost·(effort − prev).
	Cost int64
	// ExhaustiveCost is Candidates·cost·FullEffort, the bill the
	// schedule is saving against.
	ExhaustiveCost int64
	// Truncated reports that fitting MaxDraws forced even the final
	// rung below FullEffort, so winners carry less than full
	// confidence (a later refinement with a larger budget can finish
	// the job; purity makes the re-run reuse every draw).
	Truncated bool
}

// NewPlan resolves a Config into its schedule.
func NewPlan(cfg Config) (Plan, error) {
	n, k := cfg.Candidates, cfg.K
	if n <= 0 {
		return Plan{}, fmt.Errorf("rank: %d candidates", n)
	}
	if k <= 0 {
		return Plan{}, fmt.Errorf("rank: k=%d must be positive", k)
	}
	if cfg.FullEffort <= 0 {
		return Plan{}, fmt.Errorf("rank: full effort %d must be positive", cfg.FullEffort)
	}
	if cfg.MaxDraws < 0 {
		return Plan{}, fmt.Errorf("rank: max draws %d negative", cfg.MaxDraws)
	}
	if k > n {
		k = n
	}
	l := cfg.FullEffort
	minEffort := cfg.MinEffort
	if minEffort <= 0 {
		minEffort = DefaultMinEffort
	}
	if minEffort > l {
		minEffort = l
	}
	cost := cfg.CostPerEffort
	if cost <= 0 {
		cost = 2
	}
	exhaustive := int64(n) * cost * l
	if cfg.MaxDraws == 0 || cfg.MaxDraws >= exhaustive || k >= n {
		return Plan{
			Rounds:         []Round{{Effort: l, Survivors: n}},
			Exhaustive:     true,
			Cost:           exhaustive,
			ExhaustiveCost: exhaustive,
		}, nil
	}
	// Survivor counts: halve from n down to k. Rungs: double up to L,
	// floored at minEffort.
	var survivors []int
	for s := n; ; s = max((s+1)/2, k) {
		survivors = append(survivors, s)
		if s == k {
			break
		}
	}
	rounds := make([]Round, len(survivors))
	for i := range rounds {
		e := l >> (len(survivors) - 1 - i)
		rounds[i] = Round{Effort: max(e, minEffort), Survivors: survivors[i]}
	}
	planCost := func() int64 {
		var c, prev int64
		for _, r := range rounds {
			if r.Effort > prev {
				c += int64(r.Survivors) * cost * (r.Effort - prev)
				prev = r.Effort
			}
		}
		return c
	}
	// Fit the budget by halving every rung (floor 1). The loop
	// terminates: once all rungs hit 1 the bill is n·cost and cannot
	// shrink further — scoring everyone once is the schedule's floor.
	for planCost() > cfg.MaxDraws {
		shrunk := false
		for i := range rounds {
			if rounds[i].Effort > 1 {
				rounds[i].Effort = max(rounds[i].Effort/2, 1)
				shrunk = true
			}
		}
		if !shrunk {
			break
		}
	}
	return Plan{
		Rounds:         rounds,
		Cost:           planCost(),
		ExhaustiveCost: exhaustive,
		Truncated:      rounds[len(rounds)-1].Effort < l,
	}, nil
}

// Candidate is one arm's final standing.
type Candidate struct {
	// Index is the arm's position in the input list.
	Index int
	// Score is the arm's last score (meaningful at effort Effort).
	Score float64
	// Effort is the largest effort the arm was scored at; for winners
	// of an untruncated plan this is FullEffort.
	Effort int64
	// Rounds counts scoring rounds the arm participated in.
	Rounds int
	// Frozen marks arms eliminated before the final round.
	Frozen bool
	// Err is the scoring error that froze the arm, if any. Scoring
	// errors freeze the arm deterministically rather than aborting the
	// batch (a context cancellation does abort).
	Err error
}

// Result is a finished run.
type Result struct {
	Plan Plan
	// Candidates holds every arm's standing, indexed by input index.
	Candidates []Candidate
	// Ranked lists every candidate index best-first: the final round's
	// survivors by (score desc, index asc), then frozen arms in
	// reverse freeze order (arms that survived longer rank higher).
	Ranked []int
	// Rounds is the number of scheduling rounds executed.
	Rounds int
}

// Scorer scores one round: it returns, position by position, the score
// of each of cands after effort draws-worth of work, or the error that
// freezes it. cands lists the round's candidates in ascending index
// order, so a scorer that orders side effects by it (a serving layer
// pinning per-candidate state in a recency list) makes them a function
// of the request, however it spreads the scoring over goroutines. Each
// score must be deterministic in (candidate, effort) for the run to be.
type Scorer func(ctx context.Context, cands []int, effort int64) ([]float64, []error)

// Run executes the plan for cfg, scoring each round through score.
// Context errors abort the run; per-candidate errors freeze only that
// candidate.
func Run(ctx context.Context, cfg Config, score Scorer) (*Result, error) {
	plan, err := NewPlan(cfg)
	if err != nil {
		return nil, err
	}
	n := cfg.Candidates
	res := &Result{Plan: plan, Candidates: make([]Candidate, n)}
	for i := range res.Candidates {
		res.Candidates[i].Index = i
	}
	alive := make([]int, n)
	for i := range alive {
		alive[i] = i
	}
	var frozen []int // freeze order: worst first within a round
	freeze := func(ci int) {
		res.Candidates[ci].Frozen = true
		frozen = append(frozen, ci)
	}
	for ri, round := range plan.Rounds {
		sp := obs.TraceFrom(ctx).StartSpan(obs.StageRankRound)
		cands := slices.Sorted(slices.Values(alive))
		scores, errs := score(ctx, cands, round.Effort)
		sp.End()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Rounds++
		var next []int
		for _, ci := range alive {
			j, _ := slices.BinarySearch(cands, ci)
			c := &res.Candidates[ci]
			c.Rounds++
			c.Effort = round.Effort
			if errs[j] != nil {
				c.Err = errs[j]
				freeze(ci) // errored arms freeze first: worst standing
				continue
			}
			c.Score = scores[j]
			next = append(next, ci)
		}
		sort.Slice(next, func(a, b int) bool {
			sa, sb := res.Candidates[next[a]].Score, res.Candidates[next[b]].Score
			if sa != sb {
				return sa > sb
			}
			return next[a] < next[b]
		})
		if ri < len(plan.Rounds)-1 {
			keep := min(plan.Rounds[ri+1].Survivors, len(next))
			for j := len(next) - 1; j >= keep; j-- {
				freeze(next[j])
			}
			next = next[:keep]
		}
		alive = next
		if len(alive) == 0 {
			break
		}
	}
	res.Ranked = make([]int, 0, n)
	res.Ranked = append(res.Ranked, alive...)
	for j := len(frozen) - 1; j >= 0; j-- {
		res.Ranked = append(res.Ranked, frozen[j])
	}
	return res, nil
}
