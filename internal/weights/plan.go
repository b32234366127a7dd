package weights

import (
	"repro/internal/graph"
	"repro/internal/rng"
)

// planKind selects the devirtualized sampling strategy for a scheme.
type planKind uint8

const (
	// planDegree: InSum is 1 for every non-isolated node, so sampling is
	// a single uniform neighbor pick.
	planDegree planKind = iota
	// planUniform: one shared residual probability per node, then a
	// uniform neighbor pick.
	planUniform
	// planAlias: a Walker alias table per node over deg(v)+1 outcomes
	// (each neighbor plus an explicit "no influencer" outcome carrying
	// the residual mass), giving O(1) draws for arbitrary weights.
	planAlias
)

// Plan is a precompiled sampling strategy for one (graph, Scheme) pair:
// it answers SampleInfluencer-equivalent draws without interface
// dispatch, per-call InSum lookups, or prefix binary searches. Build it
// once per instance (NewPlan is O(V+E)) and share it freely — a Plan is
// immutable and safe for concurrent use; the per-draw mutable state
// lives entirely in the caller's rng.Stream.
//
// The draw distribution matches Definition 1 exactly (neighbor u with
// probability w(u,v), none with the residual), but the stream
// *consumption protocol* is the Plan's own: callers must not interleave
// Plan draws and Scheme.SampleInfluencer draws on one stream and expect
// scheme-level reproducibility.
type Plan struct {
	g    *graph.Graph
	kind planKind

	// planUniform: per-node selection probability InSum(v).
	inSum []float64

	// planAlias: CSR alias tables. Node v owns slots
	// [off[v], off[v+1]), one per neighbor plus a final ℵ₀ slot; an
	// isolated node owns none. prob/alias are the Vose split: draw a
	// uniform slot j, keep it with probability prob[j], otherwise take
	// alias[j] (a node-local slot index).
	off   []int32
	prob  []float64
	alias []int32
}

// NewPlan compiles a sampling plan for s over g. The concrete scheme
// types ship specialized strategies; any other Scheme implementation
// falls back to alias tables built from its W/InSum answers, so the plan
// is always exact.
func NewPlan(g *graph.Graph, s Scheme) *Plan {
	switch sc := s.(type) {
	case *Degree:
		return &Plan{g: g, kind: planDegree}
	case *Uniform:
		n := g.NumNodes()
		p := &Plan{g: g, kind: planUniform, inSum: make([]float64, n)}
		for v := 0; v < n; v++ {
			p.inSum[v] = sc.InSum(graph.Node(v))
		}
		return p
	case *Explicit:
		return newAliasPlan(g, func(v graph.Node, j int, _ graph.Node) float64 {
			return sc.w[sc.offset[v]+int64(j)]
		}, sc.InSum)
	default:
		return newAliasPlan(g, func(v graph.Node, _ int, u graph.Node) float64 {
			return s.W(u, v)
		}, s.InSum)
	}
}

// newAliasPlan builds per-node Vose alias tables; weightOf(v, j, u)
// returns w(u,v) for v's j-th neighbor u.
func newAliasPlan(g *graph.Graph, weightOf func(v graph.Node, j int, u graph.Node) float64, inSum func(graph.Node) float64) *Plan {
	n := g.NumNodes()
	p := &Plan{g: g, kind: planAlias, off: make([]int32, n+1)}
	var slots int32
	for v := 0; v < n; v++ {
		p.off[v] = slots
		if d := g.Degree(graph.Node(v)); d > 0 {
			slots += int32(d) + 1
		}
	}
	p.off[n] = slots
	p.prob = make([]float64, slots)
	p.alias = make([]int32, slots)

	var sc aliasScratch
	for v := 0; v < n; v++ {
		p.buildAliasRow(graph.Node(v), weightOf, inSum, &sc)
	}
	return p
}

// aliasScratch is the reusable buffer set for Vose row construction;
// scaled doubles as the weight buffer.
type aliasScratch struct {
	scaled       []float64
	small, large []int32
}

// buildAliasRow fills node v's alias-table row in p (whose off/prob/alias
// arrays must already be sized) from the scheme's weight answers.
func (p *Plan) buildAliasRow(v graph.Node, weightOf func(v graph.Node, j int, u graph.Node) float64, inSum func(graph.Node) float64, sc *aliasScratch) {
	ns := p.g.Neighbors(v)
	if len(ns) == 0 {
		return
	}
	k := len(ns) + 1
	scaled := sc.scaled
	if cap(scaled) < k {
		scaled = make([]float64, k)
	} else {
		scaled = scaled[:k]
	}
	total := 0.0
	for j, u := range ns {
		w := weightOf(v, j, u)
		scaled[j] = w
		total += w
	}
	scaled[k-1] = 0
	if res := 1 - inSum(v); res > 0 {
		scaled[k-1] = res
		total += res
	}
	// Vose's method: split each outcome's scaled mass k·w/total into
	// a keep probability and one alias.
	prob := p.prob[p.off[v] : p.off[v]+int32(k)]
	alias := p.alias[p.off[v] : p.off[v]+int32(k)]
	small, large := sc.small[:0], sc.large[:0]
	for j := range scaled {
		scaled[j] *= float64(k) / total
		if scaled[j] < 1 {
			small = append(small, int32(j))
		} else {
			large = append(large, int32(j))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		prob[s] = scaled[s]
		alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Numerical leftovers on either stack carry full kept mass.
	for _, j := range large {
		prob[j] = 1
		alias[j] = j
	}
	for _, j := range small {
		prob[j] = 1
		alias[j] = j
	}
	sc.scaled, sc.small, sc.large = scaled, small, large
}

// Sample draws v's selected influencer per Definition 1 using the
// compiled strategy: neighbor u with probability w(u,v), ok=false with
// the residual 1 − InSum(v).
func (p *Plan) Sample(v graph.Node, st *rng.Stream) (graph.Node, bool) {
	switch p.kind {
	case planDegree:
		ns := p.g.Neighbors(v)
		if len(ns) == 0 {
			return -1, false
		}
		return ns[st.Intn(len(ns))], true
	case planUniform:
		ns := p.g.Neighbors(v)
		if len(ns) == 0 {
			return -1, false
		}
		if s := p.inSum[v]; s < 1 && st.Float64() >= s {
			return -1, false
		}
		return ns[st.Intn(len(ns))], true
	default:
		lo := p.off[v]
		k := int(p.off[v+1] - lo)
		if k == 0 {
			return -1, false
		}
		j := int32(st.Intn(k))
		if st.Float64() >= p.prob[lo+j] {
			j = p.alias[lo+j]
		}
		if int(j) == k-1 {
			return -1, false // the ℵ₀ slot
		}
		return p.g.Neighbors(v)[j], true
	}
}
