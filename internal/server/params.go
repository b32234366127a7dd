package server

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// The request defaults and checks below exist once: the public facade
// and the protocol dispatcher both call them, so a request with omitted
// parameters answers the same on either path.

// SolveDefaults fills a RAF configuration's zero-valued parameters with
// the paper's experimental defaults — α = 0.1, ε = 0.01, N = 100000 — and
// the practical caps of 200000 pool realizations and 2000000 p_max
// draws. unbounded lifts both caps, so pool sizing follows Eq. 16
// exactly (feasible only on small instances).
func SolveDefaults(cfg core.Config, unbounded bool) core.Config {
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.1
	}
	if cfg.Eps == 0 {
		cfg.Eps = 0.01
	}
	if cfg.N == 0 {
		cfg.N = 100000
	}
	if cfg.MaxRealizations == 0 {
		cfg.MaxRealizations = 200000
	}
	if cfg.MaxPmaxDraws == 0 {
		cfg.MaxPmaxDraws = 2000000
	}
	if unbounded {
		cfg.MaxRealizations = 0
		cfg.MaxPmaxDraws = 0
	}
	return cfg
}

// PmaxDefaults fills Algorithm 2's zero-valued parameters: relative
// error ε₀ = 0.1, failure probability 1/N with N = 100000, and a cap of
// 2000000 draws for maxDraws ≤ 0.
func PmaxDefaults(eps0, n float64, maxDraws int64) (float64, float64, int64) {
	if eps0 == 0 {
		eps0 = 0.1
	}
	if n == 0 {
		n = 100000
	}
	if maxDraws <= 0 {
		maxDraws = 2000000
	}
	return eps0, n, maxDraws
}

// TopKDefaults fills a ranking query's invitation budget when it is not
// positive (default 10).
func TopKDefaults(q TopKQuery) TopKQuery {
	if q.Budget <= 0 {
		q.Budget = 10
	}
	return q
}

// InvitedSet checks every invited node against g and returns the set.
// The error's "activefriending: invited set:" prefix is wire format:
// protocol replies carry the message verbatim.
func InvitedSet(g *graph.Graph, invited []graph.Node) (*graph.NodeSet, error) {
	set := graph.NewNodeSet(g.NumNodes())
	for _, v := range invited {
		if err := g.CheckNode(v); err != nil {
			return nil, fmt.Errorf("activefriending: invited set: %w", err)
		}
		set.Add(v)
	}
	return set, nil
}
