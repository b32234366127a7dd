// Package realization implements the paper's realization machinery
// (Definition 1, Algorithm 1, Process 2): the derandomization of the
// friending process in which every node selects at most one influencer
// among its friends, and the backward path t(g) that characterizes success
// (Lemma 2: t befriends s under g and invitation set I iff t(g) ⊆ I), in
// the reverse-sampling style of Borgs et al. (Remark 3). Batch sampling
// and the estimators built on this primitive live in internal/engine.
//
// A subtle invariant: the backward walk can never reach the initiator s.
// Every node appended to the path lies outside N_s (the walk stops the
// moment N_s is reached), only members of N_s are adjacent to s, and the
// instance forbids an s–t edge — so no path node can select s. The
// sampler still guards the case defensively and classifies it type-0,
// which is also the model-consistent reading (Process 1 never places s
// itself in the friend set C, so a selection of s could never fire).
package realization

import (
	"repro/internal/graph"
	"repro/internal/ltm"
	"repro/internal/rng"
	"repro/internal/weights"
)

// Outcome classifies a sampled realization.
type Outcome uint8

const (
	// Type0 means t(g) contains the artificial user ℵ₀ (no selection,
	// a cycle, or the initiator was reached): no invitation set succeeds.
	Type0 Outcome = iota + 1
	// Type1 means the backward walk reached N_s: inviting all of t(g)
	// makes t a friend of s.
	Type1
)

// TG is one sampled backward path t(g).
type TG struct {
	// Path lists the nodes of t(g) in walk order, starting with t.
	// For a Type1 realization, inviting exactly these nodes suffices
	// under g. Empty for Type0 (the path is unusable, so it is dropped).
	Path []graph.Node
	// Outcome is the realization's type.
	Outcome Outcome
}

// Sampler draws t(g) paths for one instance. Not safe for concurrent use;
// derive one per goroutine (NewSampler is cheap: one O(n) array; the
// instance's sampling plan is shared, built once).
type Sampler struct {
	in   *ltm.Instance
	plan *weights.Plan
	// visitedEpoch implements an O(1)-reset visited set for cycle
	// detection.
	visitedEpoch []uint32
	epoch        uint32
	buf          []graph.Node

	// Touch recording (RecordTouches): while touches is non-nil, every
	// node a draw touches is added to it.
	touches *TouchLog
}

// TouchLog is where touch recording writes: the set of nodes the
// recorded draws touched, as a bitmap over the instance's nodes (Seen,
// bit v of word v/64) and, when List is set, as a list of its members in
// first-touch order (Nodes). A reader that needs the set sorted scans
// Seen or sorts Nodes, whichever costs less, and clears the bits before
// the next use; a reader that will always scan leaves List unset, and
// recording then costs one OR per touch.
type TouchLog struct {
	Seen  []uint64
	Nodes []graph.Node
	List  bool
}

// Touch adds v to the set.
func (l *TouchLog) Touch(v graph.Node) {
	w, b := uint32(v)>>6, uint64(1)<<(uint32(v)&63)
	if l.List && l.Seen[w]&b == 0 {
		l.Nodes = append(l.Nodes, v)
	}
	l.Seen[w] |= b
}

// NewSampler returns a sampler for the instance. Influencer draws go
// through the instance's compiled weights.Plan, so the per-step loop
// carries no interface dispatch or per-call InSum/prefix work.
func NewSampler(in *ltm.Instance) *Sampler {
	return &Sampler{
		in:           in,
		plan:         in.Plan(),
		visitedEpoch: make([]uint32, in.Graph().NumNodes()),
	}
}

// RecordTouches makes the following draws record the nodes they touch
// into log. A draw "touches" every node whose influencer selection it
// reads — each path node starting with t — plus the node the selection
// returned (including the N_s member that ends a Type1 walk, which is
// not part of t(g)). Together these are exactly the nodes whose
// adjacency row, incoming weights, or N_s membership the draw's outcome
// depends on: a graph delta that dirties none of them replays the draw
// byte-identically, which is the delta-repair damage test. log.Seen must
// hold a bit for every node of the instance; RecordTouches(nil) stops
// recording.
func (sp *Sampler) RecordTouches(log *TouchLog) {
	sp.touches = log
}

// SampleTG draws one realization lazily (only nodes on the backward walk
// select an influencer — Remark 3) and returns its t(g). The returned
// Path is freshly allocated for Type1 outcomes.
func (sp *Sampler) SampleTG(st *rng.Stream) TG {
	tg := sp.SampleTGView(st)
	if tg.Outcome == Type1 {
		path := make([]graph.Node, len(tg.Path))
		copy(path, tg.Path)
		tg.Path = path
	}
	return tg
}

// SampleTGView is SampleTG without the defensive copy: the returned Path
// aliases the sampler's internal buffer and is valid only until the next
// draw. It consumes the random stream identically to SampleTG. Callers
// that retain paths (the engine's arena writer) must copy the contents.
func (sp *Sampler) SampleTGView(st *rng.Stream) TG {
	sp.epoch++
	if sp.epoch == 0 { // wrapped: clear and restart
		for i := range sp.visitedEpoch {
			sp.visitedEpoch[i] = 0
		}
		sp.epoch = 1
	}
	in := sp.in
	nsSet := in.InitialFriendSet()
	s := in.S()

	sp.buf = sp.buf[:0]
	cur := in.T()
	sp.buf = append(sp.buf, cur)
	sp.visitedEpoch[cur] = sp.epoch
	var u graph.Node
	var ok bool
	for {
		u, ok = sp.plan.Sample(cur, st)
		if !ok || u == s || nsSet.Contains(u) || sp.visitedEpoch[u] == sp.epoch {
			break
		}
		sp.buf = append(sp.buf, u)
		sp.visitedEpoch[u] = sp.epoch
		cur = u
	}
	if sp.touches != nil {
		sp.recordTouches(u, ok)
	}
	switch {
	case !ok:
		// v selected no one: ℵ₀ (line 5 of Alg. 1).
		return TG{Outcome: Type0}
	case u == s:
		// Unreachable in a valid instance (see package doc); kept as a
		// defensive, model-consistent type-0 classification.
		return TG{Outcome: Type0}
	case nsSet.Contains(u):
		// Reached N_s (line 7): success, u itself is not part of t(g).
		return TG{Path: sp.buf, Outcome: Type1}
	default:
		// Cycle (line 6).
		return TG{Outcome: Type0}
	}
}

// recordTouches records the finished draw's touches: the walk's nodes,
// which are in sp.buf, and last, the node the final selection returned,
// when it returned one. Recording after the walk keeps the walk loop
// free of it, and a log without a list is filled with plain ORs.
func (sp *Sampler) recordTouches(last graph.Node, selected bool) {
	log := sp.touches
	if selected {
		log.Touch(last)
	}
	if log.List {
		for _, v := range sp.buf {
			log.Touch(v)
		}
		return
	}
	seen := log.Seen
	for _, v := range sp.buf {
		seen[uint32(v)>>6] |= 1 << (uint32(v) & 63)
	}
}

// Covered reports whether invitation set invited covers this realization
// (t(g) ⊆ I). Type0 realizations are never covered.
func (tg TG) Covered(invited *graph.NodeSet) bool {
	if tg.Outcome != Type1 {
		return false
	}
	for _, v := range tg.Path {
		if !invited.Contains(v) {
			return false
		}
	}
	return true
}

// Pool sampling, coverage counting and the reverse f-estimator live in
// internal/engine, which stores pools in a compact CSR layout and samples
// in worker-count-independent chunks; this package provides only the
// single-draw primitive it is built on.
