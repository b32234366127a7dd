package eval

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/weights"
)

// ChurnResult summarizes the mutation-churn experiment: a server holding
// warm pools for every pair while the graph mutates epoch by epoch,
// migrating the pools across each delta by repair instead of discarding
// them.
type ChurnResult struct {
	Pairs  int
	Epochs int
	// PairsMigrated totals pair migrations across all epochs (each pair
	// migrates once per epoch it survives); PairsDropped counts pairs a
	// delta dissolved.
	PairsMigrated int
	PairsDropped  int
	// RepairDraws is what migration paid: the draws resampled because
	// their chunks touched a dirty node. AdoptedDraws is what it kept
	// verbatim. DiscardDraws is the bill a discard-and-resample strategy
	// pays for the same pools — every draw, damaged or not — so it is
	// exactly RepairDraws + AdoptedDraws, and SavedFraction is the share
	// of that bill repair avoided.
	RepairDraws   int64
	AdoptedDraws  int64
	DiscardDraws  int64
	SavedFraction float64
	// Identical reports that every final-epoch answer was byte-identical
	// to a server built cold on the final graph — repair is a latency
	// optimization, never a correctness event.
	Identical bool
}

// MutationChurn measures what delta-aware pool repair buys under graph
// churn: it warms a pool-bound workload (a Pmax and a refined p_max
// estimate per pair), then applies epochs sparse random deltas — each
// adding and removing edgesPerDelta edges — replaying the workload after
// every mutation. Live pools are migrated across each epoch by repair
// (server.ApplyDelta); the reported draw bill is compared against the
// discard strategy, which resamples every pool from scratch at each
// epoch. Final-epoch answers are checked byte-identical against a cold
// server on the final graph. cfg.Server is ignored: the experiment owns
// both server lifetimes. Deltas never touch a tested pair's own (s,t)
// edge, so no pair dissolves by construction.
//
// The saved fraction grows with graph size: a chunk's 2048 backward
// walks touch a bounded set of nodes, so the chance a random dirty node
// damages the chunk shrinks as the graph grows past what the walks can
// visit. Small laptop-scale analogs can legitimately report 0 saved
// (every chunk touches most of the graph — repair degenerates to
// discard, still byte-identical); the production regime is scale
// closer to 1.
func MutationChurn(ctx context.Context, cfg Config, epochs, edgesPerDelta int) (*ChurnResult, error) {
	c := cfg.withDefaults()
	if len(c.Pairs) == 0 {
		return nil, fmt.Errorf("%w: no pairs", ErrNoPairs)
	}
	if epochs <= 0 {
		epochs = 3
	}
	if edgesPerDelta <= 0 {
		edgesPerDelta = 2
	}
	tested := make(map[graph.Edge]bool, len(c.Pairs))
	for _, p := range c.Pairs {
		e := graph.Edge{U: p.S, V: p.T}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		tested[e] = true
	}
	workload := func(sv *server.Server) ([]string, error) {
		var out []string
		for _, p := range c.Pairs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			pm, err := sv.Pmax(ctx, p.S, p.T, c.EvalTrials)
			out = append(out, fmt.Sprintf("pmax(%d,%d)=%.12f/%v", p.S, p.T, pm, err != nil))
			est, err := sv.PmaxEstimate(ctx, p.S, p.T, 0.2, 50, c.MaxPmaxDraws)
			out = append(out, fmt.Sprintf("est(%d,%d)=%.12f|%d|%v/%v",
				p.S, p.T, est.Estimate, est.Draws, est.Truncated, err != nil))
		}
		return out, nil
	}

	sv := server.New(c.Graph, c.Weights, server.Config{Seed: c.Seed, Workers: c.Workers, Obs: c.Obs})
	if _, err := workload(sv); err != nil {
		return nil, err
	}

	res := &ChurnResult{Pairs: len(c.Pairs), Epochs: epochs}
	r := rng.DeriveRand(c.Seed, 0xC08B)
	scheme := c.Weights
	for ep := 0; ep < epochs; ep++ {
		g := sv.Graph()
		d := randomDelta(r, g, tested, edgesPerDelta)
		dres, err := sv.ApplyDelta(ctx, d, nil)
		if err != nil {
			return nil, fmt.Errorf("eval: delta at epoch %d: %w", ep+1, err)
		}
		res.PairsMigrated += dres.PairsMigrated
		res.PairsDropped += dres.PairsDropped
		// Mirror the server's scheme rebuild so the cold comparison server
		// below is constructed exactly like the head epoch.
		if scheme, err = weights.Rebuild(scheme, sv.Graph(), dres.Dirty, nil); err != nil {
			return nil, err
		}
		if _, err := workload(sv); err != nil {
			return nil, err
		}
	}
	warmAns, err := workload(sv)
	if err != nil {
		return nil, err
	}
	st := sv.Stats()
	res.RepairDraws = st.RepairDrawsResampled
	res.AdoptedDraws = st.RepairDrawsSaved
	res.DiscardDraws = res.RepairDraws + res.AdoptedDraws
	if res.DiscardDraws > 0 {
		res.SavedFraction = float64(res.AdoptedDraws) / float64(res.DiscardDraws)
	}

	cold := server.New(sv.Graph(), scheme, server.Config{Seed: c.Seed, Workers: c.Workers, Obs: c.Obs})
	coldAns, err := workload(cold)
	if err != nil {
		return nil, err
	}
	res.Identical = len(warmAns) == len(coldAns)
	for i := 0; res.Identical && i < len(warmAns); i++ {
		res.Identical = warmAns[i] == coldAns[i]
	}
	return res, nil
}

// randomDelta draws a sparse delta: k random absent edges to add and k
// random present edges to remove, never touching a tested pair's own
// (s,t) edge and never removing an edge whose loss would isolate an
// endpoint. Add and remove sets are disjoint by construction (adds come
// from non-edges, removes from edges).
func randomDelta(r *rand.Rand, g *graph.Graph, tested map[graph.Edge]bool, k int) *graph.Delta {
	n := g.NumNodes()
	d := &graph.Delta{}
	for attempts := 0; len(d.Add) < k && attempts < 50*k; attempts++ {
		e := graph.Edge{U: graph.Node(r.Intn(n)), V: graph.Node(r.Intn(n))}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		if e.U == e.V || g.HasEdge(e.U, e.V) || tested[e] {
			continue
		}
		d.Add = append(d.Add, e)
	}
	// Sampling removals uniformly over edges would be degree-biased: an
	// edge endpoint is a hub with probability proportional to its degree,
	// and hubs are consulted by every draw group, turning every repair into
	// a full resample. Keep removals on the periphery, where real churn
	// (and the repair win) lives.
	edges := g.Edges()
	for attempts := 0; len(d.Remove) < k && attempts < 50*k && len(edges) > 0; attempts++ {
		e := edges[r.Intn(len(edges))]
		if du, dv := g.Degree(e.U), g.Degree(e.V); du < 2 || dv < 2 || du+dv > 8 {
			continue
		}
		d.Remove = append(d.Remove, e)
	}
	return d
}
