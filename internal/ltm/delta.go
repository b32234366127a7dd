package ltm

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/weights"
)

// ApplyDelta builds the epoch-N+1 instance for the post-delta graph g and
// dirty set (from graph.Delta.Apply): the weight scheme is rebuilt
// incrementally via weights.Rebuild (updates supplies weights for added
// or re-weighted edges, Explicit schemes only), the (s, t) pair is
// re-validated against the new topology — a delta that makes s and t
// adjacent dissolves the instance, the problem is solved — and, if this
// instance's sampling plan was already compiled, the new plan is rebuilt
// row-incrementally instead of from scratch. The receiver is never
// mutated; in-flight work on it stays valid at the old epoch.
func (in *Instance) ApplyDelta(g *graph.Graph, dirty []graph.Node, updates []weights.EdgeWeight) (*Instance, error) {
	w, err := weights.Rebuild(in.w, g, dirty, updates)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInstance, err)
	}
	return in.RebindTo(g, w, dirty)
}

// RebindTo builds the epoch-N+1 instance against a weight scheme that has
// already been rebuilt for the post-delta graph — the serving layer
// applies one delta across many (s, t) pairs and rebuilds the shared
// scheme once (weights.Rebuild), then rebinds each pair's instance to it.
// Semantics match ApplyDelta: the pair is re-validated against the new
// topology, and a compiled sampling plan is rebuilt row-incrementally for
// the dirty nodes only. The receiver is never mutated.
func (in *Instance) RebindTo(g *graph.Graph, w weights.Scheme, dirty []graph.Node) (*Instance, error) {
	next, err := NewInstance(g, w, in.s, in.t)
	if err != nil {
		return nil, err
	}
	// Reuse compiled sampling state when it exists: rebuild only the
	// dirty nodes' rows. Untouched rows stay byte-identical, which is
	// what keeps undamaged pool chunks adoptable across the delta.
	// A plan not compiled yet is left alone: an in-flight query on the
	// receiver may still need to compile it.
	if p := in.plan.Load(); p != nil {
		compiled := p.Rebuild(g, w, dirty)
		next.planOnce.Do(func() { next.plan.Store(compiled) })
	}
	return next, nil
}

// Dirty reports whether the instance is touched by the given dirty set:
// either endpoint appearing means cached state keyed on (s, t) must be
// re-validated even if pools survive repair.
func (in *Instance) Dirty(dirty []graph.Node) bool {
	for _, v := range dirty {
		if v == in.s || v == in.t {
			return true
		}
	}
	return false
}
