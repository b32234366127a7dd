package proto

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/maxaf"
	"repro/internal/obs"
	"repro/internal/server"
)

// The result shapes below are the only declaration of the serving
// layer's answers: the wire format is their JSON marshaling, and the
// public facade (package activefriending) re-exports them as type
// aliases (Solution, MaxSolution, TopKCandidate, TopKResult,
// DeltaSummary). The converters below serve both the Dispatcher and the
// facade, so a library caller and a protocol client receive the same
// values — and the same bytes. The stats ledger (Stats, KindStats) is
// declared in package server, next to the table that fills it.

// Solution is the output of a RAF solve (Algorithm 4).
type Solution struct {
	// Invited is the invitation set I*, ascending, always containing the
	// target.
	Invited []graph.Node
	// PStar is the algorithm's estimate of p_max.
	PStar float64
	// VmaxSize is |V_max| (the α = 1 optimum size).
	VmaxSize int
	// Realizations is the pool size used; Covered of PoolType1 sampled
	// type-1 realizations are covered by Invited.
	Realizations int64
	PoolType1    int
	Covered      int
}

// SolutionFrom shapes a RAF result.
func SolutionFrom(res *core.Result) *Solution {
	return &Solution{
		Invited:      res.Invited.Members(),
		PStar:        res.PStar,
		VmaxSize:     res.VmaxSize,
		Realizations: res.LUsed,
		PoolType1:    res.PoolType1,
		Covered:      res.Covered,
	}
}

// MaxSolution is the output of a budgeted maximum solve.
type MaxSolution struct {
	// Invited is the chosen invitation set (size ≤ the budget).
	Invited []graph.Node
	// EstimatedF estimates f(Invited) on draws decorrelated from the pool
	// the greedy optimized over (the same stream family acceptance
	// measurements use), so it is an unbiased measurement of the
	// returned set.
	EstimatedF float64
	// TrainF is the covered fraction of the solve pool itself — the
	// quantity the greedy maximized. It is optimistically biased (the set
	// was chosen to cover exactly these draws); the TrainF−EstimatedF gap
	// is the overfit margin.
	TrainF float64
}

// MaxSolutionFrom pairs a budgeted solve with its decorrelated estimate f.
func MaxSolutionFrom(res *maxaf.Result, f float64) *MaxSolution {
	return &MaxSolution{
		Invited:    res.Invited.Members(),
		EstimatedF: f,
		TrainF:     res.CoveredFraction,
	}
}

// MaxSolutionsFrom shapes a budget sweep: results[i] with estimate fs[i].
func MaxSolutionsFrom(results []*maxaf.Result, fs []float64) []*MaxSolution {
	out := make([]*MaxSolution, len(results))
	for i, r := range results {
		out[i] = MaxSolutionFrom(r, fs[i])
	}
	return out
}

// TopKCandidate is one candidate target's standing after a TopK run.
type TopKCandidate struct {
	Target graph.Node
	// Score is the decorrelated estimate of the acceptance probability
	// of Invited at Effort draws — what candidates are ranked on.
	// TrainF is the biased in-pool fraction of the same solve.
	Score  float64
	TrainF float64
	// Invited is the candidate's last chosen invitation set (nil if it
	// never scored).
	Invited []graph.Node
	// Effort is the pool size the candidate was last scored at — its
	// confidence; Rounds its scheduling rounds; Frozen marks
	// candidates eliminated before the final round.
	Effort int64
	Rounds int
	Frozen bool
	// Err is the scoring failure that froze the candidate, if any
	// (e.g. the target is the source, or already adjacent to it).
	Err string
}

// TopKResult is a finished batched ranking.
type TopKResult struct {
	Source graph.Node
	K      int
	// Winners are the top min(K, scored) candidates, best first, each
	// scored at the schedule's final effort. Candidates holds every
	// target's standing in input order; Ranked lists input indices
	// best-first.
	Winners    []TopKCandidate
	Candidates []TopKCandidate
	Ranked     []int
	// Rounds is the number of halving rounds run. DrawsSpent is the
	// measured draw bill; PlannedDraws the schedule's a-priori bill;
	// ExhaustiveDraws what independent full-effort SolveMax calls
	// would have planned. Truncated reports that MaxDraws forced even
	// the winners below full effort — a refinement can finish the job.
	Rounds          int
	DrawsSpent      int64
	PlannedDraws    int64
	ExhaustiveDraws int64
	Truncated       bool

	// server is the result this one was shaped from, retained so a
	// refinement can resume its schedule; unexported, so off the wire.
	server *server.TopKResult
}

// TopKResultFrom shapes a server ranking, retaining it for TopKState.
func TopKResultFrom(res *server.TopKResult) *TopKResult {
	conv := func(c server.TopKCandidate) TopKCandidate {
		out := TopKCandidate{
			Target: c.Target,
			Score:  c.Score,
			TrainF: c.TrainF,
			Effort: c.Effort,
			Rounds: c.Rounds,
			Frozen: c.Frozen,
			Err:    c.Err,
		}
		if c.Invited != nil {
			out.Invited = c.Invited.Members()
		}
		return out
	}
	r := &TopKResult{
		Source:          res.Query.S,
		K:               res.Query.K,
		Candidates:      make([]TopKCandidate, len(res.Candidates)),
		Ranked:          res.Ranked,
		Rounds:          res.Rounds,
		DrawsSpent:      res.DrawsSpent,
		PlannedDraws:    res.PlannedDraws,
		ExhaustiveDraws: res.ExhaustiveDraws,
		Truncated:       res.Truncated,
		server:          res,
	}
	for i, c := range res.Candidates {
		r.Candidates[i] = conv(c)
	}
	for _, wi := range res.Winners() {
		r.Winners = append(r.Winners, r.Candidates[wi])
	}
	return r
}

// TopKState returns the server ranking r was shaped from — what
// Server.TopKRefine resumes — or nil when r is nil or was not built by
// TopKResultFrom.
func TopKState(r *TopKResult) *server.TopKResult {
	if r == nil {
		return nil
	}
	return r.server
}

// DeltaSummary reports what one graph delta did.
type DeltaSummary struct {
	// Dirty is the sorted set of nodes whose edges actually changed;
	// empty for a no-op delta, which advances no epoch.
	Dirty []graph.Node
	// NumNodes and NumEdges describe the new epoch's graph.
	NumNodes int
	NumEdges int64
	// PairsMigrated counts cached pairs carried across the epoch (each
	// is repaired on its first touch afterwards); PairsDropped those
	// dissolved because s and t became adjacent (their friending problem
	// is solved).
	PairsMigrated int
	PairsDropped  int
	// RepairChunksResampled and RepairDrawsResampled are the pool chunks
	// and draws the delta itself re-drew, repairing pairs still stale
	// from the previous delta; RepairDrawsSaved the draws it adopted
	// verbatim — what discarding those pools would have cost on top.
	// Repairs on first touch are ledgered in the stats reply.
	RepairChunksResampled int
	RepairDrawsResampled  int64
	RepairDrawsSaved      int64
}

// DeltaSummaryFrom shapes a server delta result.
func DeltaSummaryFrom(res *server.DeltaResult) *DeltaSummary {
	return &DeltaSummary{
		Dirty:                 res.Dirty,
		NumNodes:              res.NumNodes,
		NumEdges:              res.NumEdges,
		PairsMigrated:         res.PairsMigrated,
		PairsDropped:          res.PairsDropped,
		RepairChunksResampled: res.Repair.Resampled,
		RepairDrawsResampled:  res.Repair.DrawsResampled,
		RepairDrawsSaved:      res.Repair.DrawsSaved,
	}
}

// KindStats and Stats are the "stats" op's ledger, declared once in
// package server, where one table fills them.
type (
	KindStats = server.KindStats
	Stats     = server.Stats
)

// StatsWithMetrics is the "stats" payload: the ledger, flat (embedding
// keeps the field layout of a plain Stats), plus the registry snapshot
// when the server runs with metrics.
type StatsWithMetrics struct {
	Stats
	Metrics []obs.Sample `json:"metrics,omitempty"`
}
