package server

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/maxaf"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rank"
)

// TopKQuery is one batched ranking request: rank Targets as friending
// candidates for source S and surface the best K, spending at most
// MaxDraws realization draws across the whole batch.
type TopKQuery struct {
	S       graph.Node
	Targets []graph.Node
	// K is how many winners must be scored at full effort.
	K int
	// Budget is the invitation budget each candidate is solved under
	// (the paper's b).
	Budget int
	// Realizations is the full per-candidate effort L (≤ 0 selects
	// maxaf.DefaultRealizations); a winner of an untruncated run is
	// scored at exactly this pool size.
	Realizations int64
	// MaxDraws bounds the batch's total draw bill (0 = unlimited). Any
	// budget that admits the exhaustive bill — 2·L per candidate —
	// degenerates to it, making the answers byte-identical to
	// len(Targets) independent SolveMax calls.
	MaxDraws int64
}

// TopKCandidate is one target's standing after a TopK run.
type TopKCandidate struct {
	Target graph.Node
	// Score is the decorrelated estimate of f(Invited) at Effort
	// draws — the quantity candidates are ranked on.
	Score float64
	// TrainF is the biased in-pool covered fraction of the last solve.
	TrainF float64
	// Invited is the last chosen invitation set (nil if the candidate
	// never scored successfully).
	Invited *graph.NodeSet
	// Effort is the pool size the candidate was last scored at — the
	// per-candidate confidence knob; Rounds counts its scheduling
	// rounds. Frozen candidates stopped before the final round.
	Effort int64
	Rounds int
	Frozen bool
	// Err is the scoring failure that froze the candidate, if any
	// (e.g. an unreachable or adjacent target) — rendered to a string
	// so results serialize.
	Err string
}

// TopKResult is a finished batched ranking. It retains its Query so a
// later TopKRefine call can resume the schedule.
type TopKResult struct {
	Query      TopKQuery
	Candidates []TopKCandidate // by Targets index
	// Ranked lists Targets indices best-first: the final survivors by
	// score, then frozen candidates by how long they survived.
	Ranked []int
	Rounds int
	// PlannedDraws is the schedule's a-priori bill; DrawsSpent is the
	// measured pool growth the run actually caused (eviction-induced
	// resampling included, reuse of already-grown pools excluded);
	// ExhaustiveDraws is what len(Targets) independent full-effort
	// SolveMax calls would plan. Truncated reports that MaxDraws
	// forced even the winners below full effort.
	PlannedDraws    int64
	DrawsSpent      int64
	ExhaustiveDraws int64
	Truncated       bool
}

// Winners returns the top-min(K, ranked) candidate indices, best first.
func (r *TopKResult) Winners() []int {
	return r.Ranked[:min(r.Query.K, len(r.Ranked))]
}

// TopK serves one batched top-k request end to end as a single scheduled
// computation. A rank.Plan (successive halving) decides how much effort
// each surviving candidate receives per round; every candidate's session
// lives in the ordinary pair cache, so the byte budget, eviction, spill
// tier and delta migration all apply per candidate exactly as they do to
// single-pair queries — an evicted candidate resamples (or restores) to
// byte-identical pools, and the measured DrawsSpent ledgers the extra
// bill. Every candidate's greedy borrows from setcover's one solver
// scratch pool, and the engine's shared chunk arenas serve every pool
// growth.
//
// Purity: a candidate is scored at effort l by maxaf.SolveMaxOn, the
// function SolveMax answers through, so a full-budget run returns
// byte-identical winners, scores and invitation sets to len(Targets)
// independent SolveMax calls, for any worker count and any eviction
// schedule. Concurrent identical calls coalesce into one execution (see
// run).
func (sv *Server) TopK(ctx context.Context, q TopKQuery) (*TopKResult, error) {
	p := topKParams{q.S, fmt.Sprint(q.Targets), q.K, q.Budget, q.Realizations, q.MaxDraws}
	return run(ctx, sv, KindTopK, &sv.topKFlights, p, func(ctx context.Context) (*TopKResult, error) {
		return sv.rankTopK(ctx, q)
	})
}

// rankTopK is one execution of a TopK query.
func (sv *Server) rankTopK(ctx context.Context, q TopKQuery) (*TopKResult, error) {
	n := len(q.Targets)
	if n == 0 {
		return nil, fmt.Errorf("server: topk with no targets")
	}
	if q.K <= 0 {
		return nil, fmt.Errorf("server: topk k=%d must be positive", q.K)
	}
	if q.Budget <= 0 {
		return nil, fmt.Errorf("server: topk budget %d must be positive", q.Budget)
	}
	res := &TopKResult{Query: q, Candidates: make([]TopKCandidate, n)}
	for i, t := range q.Targets {
		res.Candidates[i].Target = t
	}
	var spent atomic.Int64
	// scoreOne readies the candidate's pinned entry — restoring it from
	// spill or repairing it across a delta as needed, and leaving the
	// entry to settle in *ep — and scores it.
	scoreOne := func(ctx context.Context, ep **entry, i int, effort int64) (float64, error) {
		e, err := sv.ready(ctx, KindTopK, *ep)
		if err != nil {
			return 0, err
		}
		*ep = e
		eng := e.sess.Engine()
		before := eng.PoolDraws()
		defer func() { spent.Add(eng.PoolDraws() - before) }()
		mres, f, err := maxaf.SolveMaxOn(ctx, e.sess, q.Budget, effort)
		if err != nil {
			return 0, err
		}
		// Index-disjoint writes: the scheduler scores each candidate at
		// most once per round, so no two goroutines touch slot i.
		c := &res.Candidates[i]
		c.TrainF = mres.CoveredFraction
		c.Invited = mres.Invited
		return f, nil
	}
	// A round pins its candidates' pairs in index order before any is
	// scored and settles them in index order after all are, so LRU
	// recency and evictions are a function of the query, not of which
	// concurrent scorer finished first (a repaired entry takes its
	// predecessor's LRU slot). The costly parts run in parallel: spill
	// restores and repairs of stale pairs inside the scorers, victims'
	// spill writes once the round has settled.
	score := func(ctx context.Context, cands []int, effort int64) ([]float64, []error) {
		sp := obs.TraceFrom(ctx).StartSpan(obs.StageAcquire)
		entries := make([]*entry, len(cands))
		scores, errs := make([]float64, len(cands)), make([]error, len(cands))
		for j, i := range cands {
			entries[j], errs[j] = sv.pin(KindTopK, q.S, q.Targets[i])
		}
		sp.End()
		// A cancelled round leaves candidates unscored; rank.Run then
		// sees ctx.Err() and abandons the run.
		_ = parallel.For(ctx, len(cands), sv.cfg.Workers, func(j int) {
			if entries[j] != nil {
				scores[j], errs[j] = scoreOne(ctx, &entries[j], cands[j], effort)
			}
		})
		var victims []*entry
		for _, e := range entries {
			if e != nil {
				// Settling reads the sessions; a scorer skipped by a
				// cancellation has not restored them yet.
				sv.ensureRestored(e)
				victims = append(victims, sv.settle(e)...)
			}
		}
		// Victims are out of the cache already: spill them even if the
		// query was cancelled, so their pools stay warm on disk.
		_ = parallel.For(context.WithoutCancel(ctx), len(victims), sv.cfg.Workers, func(j int) {
			sv.writeSpill(victims[j])
		})
		return scores, errs
	}
	rr, err := rank.Run(ctx, rank.Config{
		Candidates: n,
		K:          q.K,
		FullEffort: maxaf.Realizations(q.Realizations),
		MaxDraws:   q.MaxDraws,
	}, score)
	if err != nil {
		return nil, err
	}
	for i, rc := range rr.Candidates {
		c := &res.Candidates[i]
		c.Score = rc.Score
		c.Effort = rc.Effort
		c.Rounds = rc.Rounds
		c.Frozen = rc.Frozen
		if rc.Err != nil {
			c.Err = rc.Err.Error()
		}
	}
	res.Ranked = rr.Ranked
	res.Rounds = rr.Rounds
	res.PlannedDraws = rr.Plan.Cost
	res.ExhaustiveDraws = rr.Plan.ExhaustiveCost
	res.Truncated = rr.Plan.Truncated
	res.DrawsSpent = spent.Load()
	return res, nil
}

// TopKRefine resumes a finished scheduled run with extraDraws more
// budget: the request is re-planned at the enlarged budget and re-run
// against the same pair cache, where every pool the first run grew is
// still warm (or restorable) — so the refinement pays only the
// incremental draws of the deeper schedule. The anytime contract: the
// refined result equals what a cold run at the enlarged budget would
// have returned (purity), while DrawsSpent records only the top-up.
// Refining an exhaustive (MaxDraws = 0) result is a no-op re-scoring
// from warm pools.
func (sv *Server) TopKRefine(ctx context.Context, prev *TopKResult, extraDraws int64) (*TopKResult, error) {
	if prev == nil {
		return nil, fmt.Errorf("server: topk refine without a prior result")
	}
	if extraDraws <= 0 {
		return nil, fmt.Errorf("server: topk refine extraDraws=%d must be positive", extraDraws)
	}
	q := prev.Query
	if q.MaxDraws != 0 {
		q.MaxDraws += extraDraws
		if q.MaxDraws >= prev.ExhaustiveDraws {
			q.MaxDraws = 0 // budget now admits the exhaustive plan
		}
	}
	return sv.TopK(ctx, q)
}
