package server

import (
	"context"
	"errors"
	"fmt"

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
	// PairsMigrated counts live pairs carried to the new epoch, whether
	// repaired inside the call or left stale for their first touch to
	// repair; PairsDropped the pairs dissolved because the delta made
	// their (s,t) adjacent — including spill-only pairs whose files were
	// swept from SpillDir.
	PairsMigrated int
	PairsDropped  int
	// Repair totals the repair run inside the call (solve and eval pools
	// and p_max ledgers): only pairs still stale from an earlier delta
	// are repaired there. A repair on first touch is ledgered in Stats
	// when it runs.
	Repair engine.RepairStats
}

// ApplyDelta applies a batch graph mutation — edges added and removed —
// producing the next epoch, and carries every live pair across it
// without repairing it in the call: a pair stays cached at its old
// epoch, stale, and the first query that touches it afterwards repairs
// it (see current) — its instance is rebuilt on the new graph, and its
// cached pools and p_max ledger are *repaired*: draw groups whose walks
// never consulted a dirty node keep their bytes, damaged groups are
// re-drawn under their original streams, leaving the pair
// byte-identical to one built cold at the new epoch (see
// engine.Session.RepairTo). A stale pair's derived caches (set-cover
// family, prefix views) are released here, since repair rebuilds the
// pools without them, and it is charged only its pools until its
// repair.
//
// At most two epochs are ever live: a pair still stale from an earlier
// delta is repaired inside the call, up to Config.Workers at once.
// Pairs whose (s,t) the delta makes adjacent are dissolved and dropped,
// as are their spill records; spill records of other pairs, stale ones
// evicted before their repair included, are left in place and
// adopted-and-repaired through the lineage on their next load. The
// result, the Stats ledger and the LRU order do not depend on the
// worker count.
//
// Every query answers at the epoch current when it was admitted, or a
// later one: queries that begin after ApplyDelta returns see the new
// epoch, queries in flight during the call finish at the epoch they
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
// fails is dropped, to be rebuilt cold at the new epoch on its next
// query.
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
	next := &generation{g: g2, scheme: scheme2, graphFP: engine.GraphFingerprint(g2, scheme2), epoch: cur.epoch + 1}
	// A cancelled caller gets its error only while nothing has changed.
	// Once the generation is stored the delta is committed, and the walk
	// below must reach every live pair, so it ignores cancellation
	// (keeping the context's trace).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Store the generation BEFORE walking any shard: pin reads sv.gen
	// inside its shard critical section on a miss, so every entry the
	// walk below does not see was created at (or after) the new epoch.
	sv.gen.Store(next)
	sv.lineage.Advance(next.graphFP, dirty)
	sv.ledger[ctrDeltasApplied].Add(1)
	ctx = context.WithoutCancel(ctx)

	var live []*entry
	for i := range sv.shards {
		sh := &sv.shards[i]
		sh.mu.Lock()
		for _, e := range sh.m {
			if e.gen != next {
				live = append(live, e)
			}
		}
		sh.mu.Unlock()
	}
	res := &DeltaResult{Dirty: dirty, NumNodes: g2.NumNodes(), NumEdges: g2.NumEdges()}
	var behind []*entry
	for _, e := range live {
		switch {
		case g2.HasEdge(e.key.s, e.key.t):
			if sv.dissolve(e) {
				res.PairsDropped++
			}
		case e.gen.epoch < cur.epoch:
			behind = append(behind, e)
		default:
			sv.leaveStale(e)
			res.PairsMigrated++
		}
	}
	// Each repair fills its own slot, summed after the walk; a slot
	// releases its entry as soon as it is repaired, so the old epoch's
	// pools become garbage during the walk rather than after it.
	outs := make([]engine.RepairStats, len(behind))
	migrated := make([]bool, len(behind))
	// For fails only on cancellation, which ctx no longer carries.
	_ = parallel.For(ctx, len(behind), sv.cfg.Workers, func(i int) {
		_, err := sv.current(ctx, behind[i], next, &outs[i])
		migrated[i] = err == nil
		behind[i] = nil
	})
	for i, st := range outs {
		if migrated[i] {
			res.PairsMigrated++
		}
		res.Repair.Add(st)
	}
	sv.dropDissolvedSpills(g2, res)
	sv.expireSpills()

	// Stale pairs shrank and repaired ones were re-measured; settle the
	// budget once for the whole walk.
	sv.lruMu.Lock()
	victims := sv.evictLocked()
	sv.lruMu.Unlock()
	for _, v := range victims {
		sv.writeSpill(v)
	}
	return res, nil
}

// leaveStale carries a live pair into the new epoch without repairing
// it: its derived caches are released and it is charged only its pools
// until a touch migrates it.
func (sv *Server) leaveStale(e *entry) {
	sv.ensureRestored(e)
	e.sess.ReleaseDerived()
	sv.lruMu.Lock()
	defer sv.lruMu.Unlock()
	if e.evicted {
		return
	}
	mem := e.sess.MemBytes()
	sv.ledger[ctrBytesHeld].Add(mem - e.bytes)
	e.bytes = mem
	if !e.stale {
		e.stale = true
		sv.ledger[ctrPairsStale].Add(1)
	}
}

// current returns the entry that answers for e's pair at generation at:
// e itself when it is at that epoch or a later one, else the successor
// that a migration (see migrate) put in its place. Concurrent touches
// of one stale entry run one migration: the first repairs while the
// others wait on the entry's mutex and then follow its successor, so
// every caller uses the entry made current for it and an in-flight
// holder never sees its own entry's session swapped. A cancelled repair
// leaves the entry stale for the next toucher; any other failure drops
// the pair and is returned to every toucher. st, when non-nil, receives
// the bill of a repair this call ran.
func (sv *Server) current(ctx context.Context, e *entry, at *generation, st *engine.RepairStats) (*entry, error) {
	for e.gen.epoch < at.epoch {
		e.mig.Lock()
		if e.succ == nil && e.failed == nil {
			succ, rst, err := sv.migrate(ctx, e, at)
			if err != nil {
				if ctx.Err() == nil {
					e.failed = err
				}
				e.mig.Unlock()
				return nil, err
			}
			e.succ = succ
			if st != nil {
				st.Add(rst)
			}
		}
		succ, err := e.succ, e.failed
		e.mig.Unlock()
		if err != nil {
			return nil, err
		}
		e = succ
	}
	return e, nil
}

// migrate repairs stale entry e to generation at and swaps the result
// into the shard map and into e's LRU slot — a migration is not a use,
// and neither the order in which pairs are touched nor the walk's map
// order may decide the eviction order. If e left the map meanwhile
// (evicted), the repaired entry serves its touchers uncached. Dissolved
// pairs are dropped with their spill records; a pair whose repair fails or
// panics is dropped too, so its next acquire recreates it cold, with
// identical answers, and the panic is counted in Stats.Panics. A
// cancelled repair changes nothing.
func (sv *Server) migrate(ctx context.Context, e *entry, at *generation) (*entry, engine.RepairStats, error) {
	cs2, st, err := sv.repairEntry(ctx, e, at)
	switch {
	case err == nil:
	case ctx.Err() != nil:
		return nil, st, err
	case errors.Is(err, errDissolved):
		sv.dissolve(e)
		return nil, st, err
	default:
		sv.dropEntry(e)
		return nil, st, err
	}
	sv.noteRepair(st)
	e2 := &entry{key: e.key, sess: cs2, gen: at}
	e2.restoreOnce.Do(func() {}) // migrated state must not be overwritten from disk

	// The swap and the LRU and budget bookkeeping happen in one lruMu
	// critical section (lruMu may take a shard lock), so no concurrent
	// pin, settle or eviction sees e2 half installed.
	sh := sv.shardFor(e.key)
	sv.lruMu.Lock()
	defer sv.lruMu.Unlock()
	sh.mu.Lock()
	cached := sh.m[e.key] == e
	if cached {
		sh.m[e.key] = e2
	}
	sh.mu.Unlock()
	if !cached {
		e2.evicted = true
		return e2, st, nil
	}
	// An entry not (or no longer) listed goes to the front, as acquire
	// would have put it.
	if e.elem != nil {
		e2.elem = sv.lru.InsertBefore(e2, e.elem)
	} else {
		e2.elem = sv.lru.PushFront(e2)
	}
	sv.uncacheLocked(e)
	e2.bytes = e2.sess.MemBytes()
	sv.ledger[ctrBytesHeld].Add(e2.bytes)
	if at != sv.gen.Load() {
		e2.stale = true
		sv.ledger[ctrPairsStale].Add(1)
	}
	return e2, st, nil
}

// errDissolved marks a pair the delta dissolved: s and t are adjacent
// (or the pair is otherwise invalid) on the new graph.
var errDissolved = errors.New("server: pair dissolved by the delta")

// repairEntry is the lock-free half of a migration: it settles any
// pending spill restore (so the repair sees the entry's real state),
// builds the pair's instance on at's graph and repairs its session
// across the lineage's dirty union between the two epochs. A panic here
// is recovered into an ErrInternal error, so one broken pair can unwind
// neither a query's other work nor ApplyDelta after the epoch is
// committed.
func (sv *Server) repairEntry(ctx context.Context, e *entry, at *generation) (cs2 *core.Session, st engine.RepairStats, err error) {
	defer func() {
		if p := recover(); p != nil {
			sv.ledger[ctrPanics].Add(1)
			err = fmt.Errorf("%w: panic migrating pair (%d,%d): %v", ErrInternal, e.key.s, e.key.t, parallel.PanicValue(p))
		}
	}()
	sv.ensureRestored(e)
	in2, err := ltm.NewInstance(at.g, at.scheme, e.key.s, e.key.t)
	if err != nil {
		return nil, st, fmt.Errorf("%w: %v", errDissolved, err)
	}
	return e.sess.RepairTo(ctx, in2, sv.lineage, at.graphFP, sv.lineage.DirtyBetween(e.gen.epoch, at.epoch))
}

// noteRepair ledgers one pool repair carried across epochs.
func (sv *Server) noteRepair(st engine.RepairStats) {
	sv.ledger[ctrPoolsRepaired].Add(1)
	sv.ledger[ctrRepairChunks].Add(int64(st.Resampled))
	sv.ledger[ctrRepairDraws].Add(st.DrawsResampled)
	sv.ledger[ctrRepairSaved].Add(st.DrawsSaved)
}

// dissolve drops a pair whose (s,t) a delta made adjacent — its
// friending problem is solved — together with its spill record, and
// reports whether the pair was still cached (and so newly dropped).
func (sv *Server) dissolve(e *entry) bool {
	if sv.spill != nil {
		sv.spill.drop(e.key)
	}
	if !sv.dropEntry(e) {
		return false
	}
	sv.ledger[ctrPairsDropped].Add(1)
	return true
}

// dropEntry removes e from its shard map and the budget, reporting
// whether it was still in the map. A migration counts neither as a
// creation nor an eviction, so the SessionsLive bookkeeping is adjusted
// through SessionsEvicted exactly when the pair really leaves the cache.
func (sv *Server) dropEntry(e *entry) bool {
	sh := sv.shardFor(e.key)
	sh.mu.Lock()
	cached := sh.m[e.key] == e
	if cached {
		delete(sh.m, e.key)
		sv.ledger[ctrSessionsEvicted].Add(1)
	}
	sh.mu.Unlock()
	sv.lruMu.Lock()
	sv.uncacheLocked(e)
	sv.lruMu.Unlock()
	return cached
}

// dropDissolvedSpills deletes the spill records of pairs the new graph
// dissolves (s and t adjacent). Live dissolved pairs already dropped
// their records in dissolve, so everything dropped here is a spill-only
// pair.
func (sv *Server) dropDissolvedSpills(g2 *graph.Graph, res *DeltaResult) {
	if sv.spill == nil {
		return
	}
	n := g2.NumNodes()
	dropped := sv.spill.dropWhere(func(k pairKey, _ spillLoc) bool {
		return int(k.s) < n && int(k.t) < n && g2.HasEdge(k.s, k.t)
	})
	sv.ledger[ctrPairsDropped].Add(int64(dropped))
	res.PairsDropped += dropped
}
