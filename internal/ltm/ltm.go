// Package ltm implements the paper's threshold-based friending process
// (Process 1) as a forward Monte-Carlo simulator.
//
// Given the initiator s's current friends C₀ = N_s and an invitation set I,
// a round adds every invited non-friend u whose accumulated familiarity
// from current friends, Σ_{v∈C} w(v,u), reaches u's uniformly random
// threshold θ_u. The process stops when no invited user activates or the
// target t becomes a friend. f(I) is the probability of the latter.
//
// The forward simulator is the ground truth of the model; the realization
// package provides the equivalent (Lemma 1) and much faster reverse
// estimator. Their agreement is enforced by cross-validation tests.
//
// An Instance is bound to one graph. After a graph delta the next
// epoch's instance is built anew with NewInstance, which re-validates the
// pair: a delta that makes s and t adjacent has solved the problem, and
// NewInstance refuses the pair.
package ltm

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/weights"
)

// ErrBadInstance reports an invalid (graph, s, t) combination.
var ErrBadInstance = errors.New("ltm: invalid instance")

// Instance is an active-friending instance: the network, the weight
// scheme, the initiator and the target. Immutable and safe for concurrent
// use.
type Instance struct {
	g *graph.Graph
	w weights.Scheme
	s graph.Node
	t graph.Node
	// ns is N_s, cached as both slice and set.
	ns    []graph.Node
	nsSet *graph.NodeSet

	// plan is compiled once, on first use.
	planOnce sync.Once
	plan     *weights.Plan
}

// NewInstance validates and builds an instance. The target must differ
// from the initiator and must not already be a friend (otherwise the
// problem is trivial), matching the paper's problem setting.
func NewInstance(g *graph.Graph, w weights.Scheme, s, t graph.Node) (*Instance, error) {
	if err := g.CheckNode(s); err != nil {
		return nil, fmt.Errorf("%w: initiator: %v", ErrBadInstance, err)
	}
	if err := g.CheckNode(t); err != nil {
		return nil, fmt.Errorf("%w: target: %v", ErrBadInstance, err)
	}
	if s == t {
		return nil, fmt.Errorf("%w: initiator equals target (%d)", ErrBadInstance, s)
	}
	if g.HasEdge(s, t) {
		return nil, fmt.Errorf("%w: %d and %d are already friends", ErrBadInstance, s, t)
	}
	if w == nil {
		return nil, fmt.Errorf("%w: nil weight scheme", ErrBadInstance)
	}
	in := &Instance{g: g, w: w, s: s, t: t}
	in.ns = g.Neighbors(s)
	in.nsSet = graph.NewNodeSet(g.NumNodes())
	for _, v := range in.ns {
		in.nsSet.Add(v)
	}
	return in, nil
}

// Graph returns the underlying graph.
func (in *Instance) Graph() *graph.Graph { return in.g }

// Weights returns the weight scheme.
func (in *Instance) Weights() weights.Scheme { return in.w }

// Plan returns the instance's compiled sampling plan (built lazily,
// once), the devirtualized form of Weights().SampleInfluencer used by
// every sampling hot path.
func (in *Instance) Plan() *weights.Plan {
	in.planOnce.Do(func() { in.plan = weights.NewPlan(in.g, in.w) })
	return in.plan
}

// S returns the initiator.
func (in *Instance) S() graph.Node { return in.s }

// T returns the target.
func (in *Instance) T() graph.Node { return in.t }

// InitialFriends returns N_s. The slice aliases graph storage.
func (in *Instance) InitialFriends() []graph.Node { return in.ns }

// InitialFriendSet returns N_s as a set. Callers must not modify it.
func (in *Instance) InitialFriendSet() *graph.NodeSet { return in.nsSet }

// SimScratch holds the reusable per-goroutine state of SimulateOnce:
// epoch-versioned node arrays (reset in O(1) per draw, like the reverse
// sampler's visited set) plus frontier queues and the touched-node list
// that makes the final friend-set sweep proportional to the draw's own
// activity instead of O(n). A SimScratch serves one goroutine at a time.
type SimScratch struct {
	// accum[u] tracks Σ_{v∈C} w(v,u); thr[u] is θ_u, drawn on first
	// touch; state[u]: 1 touched, 2 in C. All three are valid only where
	// mark[u] == epoch.
	accum []float64
	thr   []float64
	state []uint8
	mark  []uint32
	epoch uint32

	frontier  []graph.Node
	next      []graph.Node
	activated []graph.Node // nodes that entered C this draw (= C∞ \ (N_s ∪ {s}))
}

// NewSimScratch returns scratch sized for the instance's graph.
func NewSimScratch(in *Instance) *SimScratch {
	n := in.g.NumNodes()
	return &SimScratch{
		accum: make([]float64, n),
		thr:   make([]float64, n),
		state: make([]uint8, n),
		mark:  make([]uint32, n),
	}
}

// begin opens a new draw epoch.
func (sc *SimScratch) begin() {
	sc.epoch++
	if sc.epoch == 0 { // wrapped: clear and restart
		clear(sc.mark)
		sc.epoch = 1
	}
}

// SimulateOnce runs one draw of Process 1 under invitation set invited and
// reports whether t became a friend of s. Thresholds are sampled lazily
// from st, one per touched node.
//
// scratch carries the draw's working state; pass nil to allocate a
// throwaway (loops should reuse one SimScratch per goroutine — a warmed
// scratch makes the draw allocation-free). The returned friends set
// (C∞ minus the initial N_s) is written into friends if non-nil (for
// callers that need the final friend set); pass nil when only the
// outcome matters.
func (in *Instance) SimulateOnce(invited *graph.NodeSet, st *rng.Stream, scratch *SimScratch, friends *graph.NodeSet) bool {
	sc := scratch
	if sc == nil {
		sc = NewSimScratch(in)
	}
	sc.begin()

	frontier := sc.frontier[:0]
	next := sc.next[:0]
	activated := sc.activated[:0]
	// C0 = Ns; s itself never activates or contributes.
	for _, v := range in.ns {
		sc.mark[v] = sc.epoch
		sc.state[v] = 2
		frontier = append(frontier, v)
	}
	sc.mark[in.s] = sc.epoch
	sc.state[in.s] = 2

	won := false
rounds:
	for len(frontier) > 0 {
		next = next[:0]
		for _, v := range frontier {
			for _, u := range in.g.Neighbors(v) {
				touched := sc.mark[u] == sc.epoch
				if touched && sc.state[u] == 2 {
					continue
				}
				if !invited.Contains(u) {
					// Uninvited users never join C, but their thresholds
					// are irrelevant; skip entirely.
					continue
				}
				if !touched {
					sc.mark[u] = sc.epoch
					sc.state[u] = 1
					sc.thr[u] = st.Float64()
					sc.accum[u] = 0
				}
				sc.accum[u] += in.w.W(v, u)
				if sc.accum[u] >= sc.thr[u] {
					sc.state[u] = 2
					next = append(next, u)
					activated = append(activated, u)
					if u == in.t {
						won = true
						break rounds
					}
				}
			}
		}
		frontier, next = next, frontier
	}
	// Save the (possibly regrown) buffers for the next draw.
	sc.frontier, sc.next, sc.activated = frontier, next, activated
	if friends != nil {
		friends.Clear()
		for _, u := range activated {
			friends.Add(u)
		}
	}
	return won
}

// simChunk is the number of forward draws per estimation chunk; with
// streams derived per chunk index, estimates are pure functions of
// (seed, trials) for any worker count — the same determinism scheme the
// engine's reverse sampler uses.
const simChunk = 2048

// nsForward namespaces the forward-simulation streams so they never
// collide with the engine's reverse-sampling stream families for a
// shared root seed.
const nsForward uint64 = 0x46777264 // "Fwrd"

// EstimateF estimates f(invited) with trials independent forward
// simulations spread across workers (0 = all CPUs). Deterministic for a
// fixed (seed, trials): draws are partitioned into fixed chunks whose
// streams derive from the chunk index, so the worker count affects only
// wall-clock time.
func (in *Instance) EstimateF(ctx context.Context, invited *graph.NodeSet, trials int64, workers int, seed int64) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("%w: trials=%d", ErrBadInstance, trials)
	}
	hits := make([]int64, (trials+simChunk-1)/simChunk)
	var scratch sync.Pool
	scratch.New = func() any { return NewSimScratch(in) }
	err := parallel.ForChunks(ctx, trials, simChunk, workers, func(c int, _, n int64) {
		st := rng.DerivedStream(seed, nsForward, uint64(c))
		sc := scratch.Get().(*SimScratch)
		var h int64
		for i := int64(0); i < n; i++ {
			if in.SimulateOnce(invited, &st, sc, nil) {
				h++
			}
		}
		scratch.Put(sc)
		hits[c] = h
	})
	if err != nil {
		return 0, err
	}
	var successes int64
	for _, h := range hits {
		successes += h
	}
	return float64(successes) / float64(trials), nil
}
