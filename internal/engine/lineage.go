package engine

import (
	"slices"
	"sync"

	"repro/internal/graph"
)

// Lineage is the process-local epoch history of one evolving graph: epoch
// 0 is the graph a server was constructed with, and every applied delta
// appends the post-delta graph's fingerprint together with the delta's
// dirty node set. It is the key that turns snapshot fingerprint
// mismatches into repairs: a pool blob written at epoch N and loaded at
// epoch N+k resolves its fingerprint to the ancestor entry, and the
// union of the dirty sets of epochs N+1..N+k is exactly the damage test
// input under which undamaged draw groups may be adopted as-is.
//
// The lineage is deliberately not persisted: it only ever relates epochs
// one process has itself lived through (or been told about via deltas),
// and a snapshot from an unknown fingerprint still fails closed into a
// full resample — answer-identical, just slower.
//
// Safe for concurrent use.
type Lineage struct {
	mu     sync.RWMutex
	epochs []lineageEpoch
}

type lineageEpoch struct {
	graphFP uint64
	dirty   []graph.Node // vs. the previous epoch; nil for the base epoch
}

// NewLineage returns a lineage rooted at the given graph fingerprint
// (epoch 0).
func NewLineage(baseGraphFP uint64) *Lineage {
	return &Lineage{epochs: []lineageEpoch{{graphFP: baseGraphFP}}}
}

// Head returns the current (newest) epoch's graph fingerprint.
func (l *Lineage) Head() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.epochs[len(l.epochs)-1].graphFP
}

// Epochs returns the number of recorded epochs (1 for a fresh lineage).
func (l *Lineage) Epochs() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.epochs)
}

// Advance records the epoch produced by applying a delta with the given
// dirty node set to the current head. The dirty slice is copied.
func (l *Lineage) Advance(graphFP uint64, dirty []graph.Node) {
	cp := append([]graph.Node(nil), dirty...)
	l.mu.Lock()
	l.epochs = append(l.epochs, lineageEpoch{graphFP: graphFP, dirty: cp})
	l.mu.Unlock()
}

// dirtySince scans epochs newest-first for one whose graph fingerprint
// satisfies match and returns the sorted union of the dirty sets of every
// epoch after it — the damage-test input for adopting state written at
// that epoch. Matching the head returns an empty (non-nil) union.
func (l *Lineage) dirtySince(match func(graphFP uint64) bool) ([]graph.Node, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for i := len(l.epochs) - 1; i >= 0; i-- {
		if !match(l.epochs[i].graphFP) {
			continue
		}
		union := []graph.Node{}
		for j := i + 1; j < len(l.epochs); j++ {
			union = append(union, l.epochs[j].dirty...)
		}
		slices.Sort(union)
		return slices.Compact(union), true
	}
	return nil, false
}

// DirtyBetween returns the sorted distinct union of the dirty sets of
// epochs from+1..to (epoch 0 is the base graph) — the damage-test input
// for carrying state built at epoch from to epoch to. It is empty when
// from ≥ to.
func (l *Lineage) DirtyBetween(from, to int) []graph.Node {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var union []graph.Node
	for j := from + 1; j <= to; j++ {
		union = append(union, l.epochs[j].dirty...)
	}
	slices.Sort(union)
	return slices.Compact(union)
}

// ancestorDirty resolves an *instance* fingerprint from a snapshot
// against the engine's bound lineage: if it is this (s, t) instance at an
// ancestor epoch of the engine's graph, the accumulated dirty set since
// that epoch is returned. Without a bound lineage nothing resolves.
func (e *Engine) ancestorDirty(snapFP uint64) ([]graph.Node, bool) {
	if e.lineage == nil {
		return nil, false
	}
	s, t := e.in.S(), e.in.T()
	return e.lineage.dirtySince(func(gfp uint64) bool {
		return instanceFingerprint(gfp, s, t) == snapFP
	})
}
