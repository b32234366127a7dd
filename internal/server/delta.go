package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ltm"
	"repro/internal/parallel"
	"repro/internal/weights"
)

// DeltaResult reports what one ApplyDelta did.
type DeltaResult struct {
	// Dirty is the sorted distinct set of nodes the delta actually
	// changed (endpoints of edges added or removed); empty for a no-op
	// delta, which advances no epoch.
	Dirty []graph.Node
	// NumNodes / NumEdges describe the new epoch's graph.
	NumNodes int
	NumEdges int64
	// PairsMigrated counts live pairs carried across the epoch by
	// repair; PairsDropped the pairs dissolved because the delta made
	// their (s,t) adjacent — including spill-only pairs whose files were
	// swept from SpillDir.
	PairsMigrated int
	PairsDropped  int
	// Repair totals the migration's repair bill across all migrated
	// sessions (solve and eval pools and p_max ledgers).
	Repair engine.RepairStats
}

// ApplyDelta applies a batch graph mutation — edges added and removed —
// producing the next epoch, and migrates every live pair across it: each
// pair's instance is rebuilt on the new graph, and its cached pools and
// p_max ledger are *repaired* — draw groups whose walks never consulted
// a dirty node keep their bytes, damaged groups are re-drawn under their
// original streams — leaving every pair byte-identical to one built cold
// at the new epoch (see engine.Session.RepairTo). Pairs whose (s,t) the
// delta makes adjacent are dissolved and dropped, as are their spill
// files; spill files of non-live pairs are otherwise left in place and
// adopted-and-repaired through the lineage on their next load.
//
// The migration walk runs up to Config.Workers pairs at once; its
// result, the Stats ledger and the LRU order do not depend on the
// worker count.
//
// Queries that begin after ApplyDelta returns are answered at the new
// epoch; queries in flight during the call finish at the epoch they
// started on (the same contract eviction has: correctness per epoch,
// never a torn answer). A delta that changes nothing returns an empty
// Dirty set and advances no epoch. Concurrent ApplyDelta calls are
// serialized.
//
// Deltas are defined for the paper's degree-normalized weights only: the
// next epoch's scheme is weights.NewDegree on the new graph. A server
// built on another scheme, or a call with a non-empty updates list,
// gets an error with nothing changed; updates exists only to keep the
// signature, since degree weights follow the topology.
//
// A context cancelled before the new epoch is stored returns its error
// with nothing changed. Once stored, the epoch is committed: the walk
// ignores cancellation and runs to completion, and a pair whose repair
// still fails is dropped, to be rebuilt cold at the new epoch on its
// next query. No cached pair is ever left behind at the old epoch.
func (sv *Server) ApplyDelta(ctx context.Context, d *graph.Delta, updates []weights.EdgeWeight) (*DeltaResult, error) {
	if len(updates) > 0 {
		return nil, fmt.Errorf("server: delta weight updates are not supported (%d given); degree weights follow the topology", len(updates))
	}
	sv.deltaMu.Lock()
	defer sv.deltaMu.Unlock()

	cur := sv.gen.Load()
	if _, ok := cur.scheme.(*weights.Degree); !ok {
		return nil, fmt.Errorf("server: deltas need degree weights, server has %T", cur.scheme)
	}
	if d == nil {
		d = &graph.Delta{}
	}
	g2, dirty, err := d.Apply(cur.g)
	if err != nil {
		return nil, err
	}
	if len(dirty) == 0 {
		return &DeltaResult{NumNodes: cur.g.NumNodes(), NumEdges: cur.g.NumEdges()}, nil
	}
	scheme2 := weights.NewDegree(g2)
	next := &generation{g: g2, scheme: scheme2, graphFP: engine.GraphFingerprint(g2, scheme2)}
	// A cancelled caller gets its error only while nothing has changed.
	// Once the generation is stored the delta is committed, and the walk
	// below must reach every stale pair, so it ignores cancellation
	// (keeping the context's trace).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Store the generation BEFORE walking any shard: an acquire miss
	// reads sv.gen inside its shard critical section, so every entry the
	// walk below does not see was created at (or after) the new epoch.
	sv.gen.Store(next)
	sv.lineage.Advance(next.graphFP, dirty)
	sv.ledger[ctrDeltasApplied].Add(1)
	ctx = context.WithoutCancel(ctx)

	var stale []*entry
	for i := range sv.shards {
		sh := &sv.shards[i]
		sh.mu.Lock()
		for _, e := range sh.m {
			if e.gen != next {
				stale = append(stale, e)
			}
		}
		sh.mu.Unlock()
	}
	// Each migration fills its own slot, summed after the walk. Slots
	// release their entry as soon as it is migrated, so the old epoch's
	// pools become garbage during the walk rather than after it.
	outs := make([]DeltaResult, len(stale))
	// For fails only on cancellation, which ctx no longer carries.
	_ = parallel.For(ctx, len(stale), sv.cfg.Workers, func(i int) {
		sv.migratePair(ctx, stale[i], next, dirty, &outs[i])
		stale[i] = nil
	})
	res := &DeltaResult{
		Dirty:    dirty,
		NumNodes: g2.NumNodes(),
		NumEdges: g2.NumEdges(),
	}
	for _, o := range outs {
		res.PairsMigrated += o.PairsMigrated
		res.PairsDropped += o.PairsDropped
		res.Repair.Add(o.Repair)
	}
	sv.sweepDissolvedSpills(g2, res)
	sv.sweepExpiredSpillsLocked()

	// Migrated pairs were re-measured; settle the budget once for the
	// whole walk.
	sv.lruMu.Lock()
	victims := sv.evictLocked()
	sv.lruMu.Unlock()
	for _, v := range victims {
		sv.writeSpill(v)
	}
	return res, nil
}

// migratePair carries one stale entry across to the new generation and
// swaps it into the shard map — unless a newer entry took its place
// meanwhile, in which case the migrated state is discarded (the newer
// entry is already at the head epoch). Dissolved pairs are dropped.
// A pair whose repair fails or panics is dropped too: its next acquire
// recreates it cold at the new epoch, with identical answers, and the
// panic is counted in Stats.Panics. res is this migration's own slot;
// the walk sums the slots afterwards.
func (sv *Server) migratePair(ctx context.Context, e *entry, next *generation, dirty []graph.Node, res *DeltaResult) {
	sh := sv.shardFor(e.key)
	cs2, st, err := sv.repairEntry(ctx, e, next, dirty)
	if errors.Is(err, errDissolved) {
		// The friending problem for the pair is solved: drop it and its
		// spill file.
		sv.dropEntry(sh, e)
		if sv.cfg.SpillDir != "" {
			os.Remove(sv.spillPath(e.key))
		}
		sv.ledger[ctrPairsDropped].Add(1)
		res.PairsDropped++
		return
	}
	if err != nil {
		sv.dropEntry(sh, e)
		return
	}
	e2 := &entry{key: e.key, sess: cs2, gen: next}
	e2.restoreOnce.Do(func() {}) // migrated state must not be overwritten from disk

	sh.mu.Lock()
	current := sh.m[e.key] == e
	if current {
		sh.m[e.key] = e2
	}
	sh.mu.Unlock()
	if !current {
		// A concurrent eviction (or a racing future migration) replaced
		// or removed the entry; whatever is in the map now is already at
		// the head epoch, so the migrated state is simply dropped.
		return
	}
	sv.lruMu.Lock()
	// e2 takes over e's LRU slot: a migration is not a use, and the
	// walk's map-iteration order must not decide the eviction order. An
	// entry not (or no longer) listed goes to the front, as acquire would
	// have put it.
	if e.elem != nil {
		e2.elem = sv.lru.InsertBefore(e2, e.elem)
	} else {
		e2.elem = sv.lru.PushFront(e2)
	}
	if !e.evicted {
		e.evicted = true
		sv.ledger[ctrBytesHeld].Add(-e.bytes)
		e.bytes = 0
		if e.elem != nil {
			sv.lru.Remove(e.elem)
			e.elem = nil
		}
	}
	e2.bytes = e2.sess.MemBytes()
	sv.ledger[ctrBytesHeld].Add(e2.bytes)
	sv.lruMu.Unlock()

	sv.noteRepair(st)
	res.PairsMigrated++
	res.Repair = st
}

// errDissolved marks a pair the delta dissolved: s and t are adjacent
// (or the pair is otherwise invalid) on the new graph.
var errDissolved = errors.New("server: pair dissolved by the delta")

// repairEntry is the lock-free half of a migration: it settles any
// pending spill restore (so the repair sees the entry's real state and
// restoreOnce never races the swap), builds the pair's instance on the
// new graph and repairs its session. A panic here is recovered into an
// ErrInternal error, so one broken pair cannot unwind ApplyDelta after
// the epoch is committed.
func (sv *Server) repairEntry(ctx context.Context, e *entry, next *generation, dirty []graph.Node) (cs2 *core.Session, st engine.RepairStats, err error) {
	defer func() {
		if p := recover(); p != nil {
			sv.ledger[ctrPanics].Add(1)
			err = fmt.Errorf("%w: panic migrating pair (%d,%d): %v", ErrInternal, e.key.s, e.key.t, parallel.PanicValue(p))
		}
	}()
	sv.ensureRestored(e)
	in2, err := ltm.NewInstance(next.g, next.scheme, e.key.s, e.key.t)
	if err != nil {
		return nil, st, fmt.Errorf("%w: %v", errDissolved, err)
	}
	return e.sess.RepairTo(ctx, in2, sv.lineage, next.graphFP, dirty)
}

// noteRepair ledgers one pool repair carried across epochs.
func (sv *Server) noteRepair(st engine.RepairStats) {
	sv.ledger[ctrPoolsRepaired].Add(1)
	sv.ledger[ctrRepairChunks].Add(int64(st.Resampled))
	sv.ledger[ctrRepairDraws].Add(st.DrawsResampled)
	sv.ledger[ctrRepairSaved].Add(st.DrawsSaved)
}

// dropEntry removes e from its shard map and writes off its bytes; a
// migration counts neither as a creation nor an eviction, so the
// SessionsLive bookkeeping is adjusted through SessionsEvicted exactly
// when the pair really leaves the cache.
func (sv *Server) dropEntry(sh *shard, e *entry) {
	sh.mu.Lock()
	if sh.m[e.key] == e {
		delete(sh.m, e.key)
		sv.ledger[ctrSessionsEvicted].Add(1)
	}
	sh.mu.Unlock()
	sv.lruMu.Lock()
	if !e.evicted {
		e.evicted = true
		sv.ledger[ctrBytesHeld].Add(-e.bytes)
		e.bytes = 0
		if e.elem != nil {
			sv.lru.Remove(e.elem)
			e.elem = nil
		}
	}
	sv.lruMu.Unlock()
}

// sweepDissolvedSpills deletes spill files of pairs the new graph
// dissolves (s and t adjacent). Live dissolved pairs already removed
// their files in migratePair, so everything swept here is a spill-only
// pair. Files whose names don't parse are left alone.
func (sv *Server) sweepDissolvedSpills(g2 *graph.Graph, res *DeltaResult) {
	if sv.cfg.SpillDir == "" {
		return
	}
	des, err := os.ReadDir(sv.cfg.SpillDir)
	if err != nil {
		return
	}
	for _, de := range des {
		var s, t graph.Node
		if c, err := fmt.Sscanf(de.Name(), spillPattern, &s, &t); err != nil || c != 2 ||
			de.Name() != fmt.Sprintf(spillPattern, s, t) {
			continue
		}
		if int(s) >= g2.NumNodes() || int(t) >= g2.NumNodes() || !g2.HasEdge(s, t) {
			continue
		}
		if os.Remove(filepath.Join(sv.cfg.SpillDir, de.Name())) == nil {
			sv.ledger[ctrPairsDropped].Add(1)
			res.PairsDropped++
		}
	}
}
