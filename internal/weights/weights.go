// Package weights defines the directional influence-weight schemes w(u,v)
// attached to a social graph: the familiarity of v with u, used both by the
// forward friending process (Process 1 of the paper) and by realization
// sampling (Definition 1).
//
// Every scheme must satisfy the paper's normalization Σ_{u∈N_v} w(u,v) ≤ 1
// for every node v; schemes constructed by this package guarantee it.
//
// Schemes are bound to one graph. Across a graph delta only Degree is
// carried forward, as NewDegree on the post-delta graph — the scheme the
// paper's experiments and every server use; Uniform and Explicit serve
// single-graph problems and tests.
package weights

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// ErrInvalidWeight reports a weight outside the legal range or a node whose
// incoming weights exceed 1.
var ErrInvalidWeight = errors.New("weights: invalid weight")

// Scheme assigns the directional weight w(u,v) — v's familiarity with u —
// for every adjacent ordered pair. Implementations are immutable and safe
// for concurrent use.
type Scheme interface {
	// W returns w(u,v) for an adjacent pair; calling it for non-adjacent
	// pairs is undefined (the model sets those weights to zero and callers
	// never ask).
	W(u, v graph.Node) float64
	// InSum returns Σ_{u∈N_v} w(u,v) ∈ [0,1], the probability that v
	// selects some influencer in a realization.
	InSum(v graph.Node) float64
	// SampleInfluencer draws v's selected influencer per Definition 1:
	// neighbor u with probability w(u,v), no one (ok=false) with the
	// residual probability 1 − InSum(v). Hot loops should prefer a Plan,
	// which devirtualizes this call.
	SampleInfluencer(v graph.Node, st *rng.Stream) (u graph.Node, ok bool)
}

// Degree is the paper's experimental convention w(u,v) = 1/|N_v|
// (Sec. IV, "Friending Model", following Kempe et al.). Incoming weights
// sum to exactly 1 for every non-isolated node, so every node selects
// exactly one uniformly-random neighbor in a realization.
type Degree struct {
	g *graph.Graph
}

var _ Scheme = (*Degree)(nil)

// NewDegree returns the degree-normalized scheme for g.
func NewDegree(g *graph.Graph) *Degree { return &Degree{g: g} }

// W returns 1/deg(v).
func (d *Degree) W(_, v graph.Node) float64 {
	deg := d.g.Degree(v)
	if deg == 0 {
		return 0
	}
	return 1 / float64(deg)
}

// InSum returns 1 for non-isolated nodes, 0 otherwise.
func (d *Degree) InSum(v graph.Node) float64 {
	if d.g.Degree(v) == 0 {
		return 0
	}
	return 1
}

// SampleInfluencer picks a uniformly random neighbor.
func (d *Degree) SampleInfluencer(v graph.Node, st *rng.Stream) (graph.Node, bool) {
	ns := d.g.Neighbors(v)
	if len(ns) == 0 {
		return -1, false
	}
	return ns[st.Intn(len(ns))], true
}

// Uniform assigns the same weight c to every incoming edge of v, capped so
// that c·deg(v) ≤ 1: w(u,v) = min(c, 1/deg(v)).
type Uniform struct {
	g *graph.Graph
	c float64
}

var _ Scheme = (*Uniform)(nil)

// NewUniform returns a Uniform scheme with base weight c ∈ (0,1].
func NewUniform(g *graph.Graph, c float64) (*Uniform, error) {
	if c <= 0 || c > 1 {
		return nil, fmt.Errorf("%w: base weight %v not in (0,1]", ErrInvalidWeight, c)
	}
	return &Uniform{g: g, c: c}, nil
}

// W returns min(c, 1/deg(v)).
func (u *Uniform) W(_, v graph.Node) float64 {
	deg := u.g.Degree(v)
	if deg == 0 {
		return 0
	}
	if w := 1 / float64(deg); w < u.c {
		return w
	}
	return u.c
}

// InSum returns deg(v)·W(·,v).
func (u *Uniform) InSum(v graph.Node) float64 {
	return float64(u.g.Degree(v)) * u.W(-1, v)
}

// SampleInfluencer selects a uniformly random neighbor with probability
// InSum(v), no one otherwise.
func (u *Uniform) SampleInfluencer(v graph.Node, st *rng.Stream) (graph.Node, bool) {
	ns := u.g.Neighbors(v)
	if len(ns) == 0 {
		return -1, false
	}
	if s := u.InSum(v); s < 1 && st.Float64() >= s {
		return -1, false
	}
	return ns[st.Intn(len(ns))], true
}

// Explicit stores an arbitrary per-edge weight table. It is the general
// scheme for tests and for networks with measured familiarity.
type Explicit struct {
	g *graph.Graph
	// w[i] is the weight of the i-th CSR slot: for node v with neighbor
	// list N_v, w aligned with g's adjacency gives w(N_v[j], v).
	w      []float64
	inSum  []float64
	prefix []float64 // per-node cumulative weights for sampling
	offset []int64
}

var _ Scheme = (*Explicit)(nil)

// NewExplicit builds an explicit scheme from a weight function; weightOf
// is evaluated once per ordered adjacent pair (u, v) and must return a
// value in [0,1] with Σ_{u∈N_v} weightOf(u,v) ≤ 1+1e-9.
func NewExplicit(g *graph.Graph, weightOf func(u, v graph.Node) float64) (*Explicit, error) {
	n := g.NumNodes()
	e := &Explicit{
		g:      g,
		inSum:  make([]float64, n),
		offset: make([]int64, n+1),
	}
	var total int64
	for v := 0; v < n; v++ {
		e.offset[v] = total
		total += int64(g.Degree(graph.Node(v)))
	}
	e.offset[n] = total
	e.w = make([]float64, total)
	e.prefix = make([]float64, total)
	for v := 0; v < n; v++ {
		sum := 0.0
		base := e.offset[v]
		for j, u := range g.Neighbors(graph.Node(v)) {
			w := weightOf(u, graph.Node(v))
			if w < 0 || w > 1 {
				return nil, fmt.Errorf("%w: w(%d,%d)=%v not in [0,1]", ErrInvalidWeight, u, v, w)
			}
			sum += w
			e.w[base+int64(j)] = w
			e.prefix[base+int64(j)] = sum
		}
		if sum > 1+1e-9 {
			return nil, fmt.Errorf("%w: incoming weights of node %d sum to %v > 1", ErrInvalidWeight, v, sum)
		}
		e.inSum[v] = sum
	}
	return e, nil
}

// W returns the stored weight, or 0 for non-adjacent pairs.
func (e *Explicit) W(u, v graph.Node) float64 {
	base := e.offset[v]
	for j, x := range e.g.Neighbors(v) {
		if x == u {
			return e.w[base+int64(j)]
		}
	}
	return 0
}

// InSum returns Σ_{u∈N_v} w(u,v).
func (e *Explicit) InSum(v graph.Node) float64 { return e.inSum[v] }

// SampleInfluencer draws the influencer by inverse-CDF over the per-node
// prefix sums.
func (e *Explicit) SampleInfluencer(v graph.Node, st *rng.Stream) (graph.Node, bool) {
	lo, hi := e.offset[v], e.offset[v+1]
	if lo == hi {
		return -1, false
	}
	x := st.Float64()
	if x >= e.inSum[v] {
		return -1, false
	}
	// Binary search the prefix array.
	l, h := lo, hi-1
	for l < h {
		mid := (l + h) / 2
		if e.prefix[mid] > x {
			h = mid
		} else {
			l = mid + 1
		}
	}
	return e.g.Neighbors(v)[l-lo], true
}

// EdgeWeight names the directional weights of one undirected edge:
// WUV is w(U,V) (V's familiarity with U) and WVU is w(V,U). It types the
// weight-update argument of the server's ApplyDelta, which accepts only
// an empty list: degree weights follow the topology, so they need none.
type EdgeWeight struct {
	U, V     graph.Node
	WUV, WVU float64
}
