package engine

import (
	"context"
	"slices"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// This file is the engine half of delta repair. A graph delta dirties a
// set of nodes (the endpoints of changed edges). Every
// sampled chunk — pool chunks and p_max ledger chunks alike — is split
// into GroupSize-draw groups with their own streams, and records per node
// which groups' draws consulted it (chunkPaths.touch). A group is
// *damaged* iff its draws consulted a dirty node; undamaged groups replay
// byte-identically on the post-delta graph. Repair ORs the dirty nodes'
// touch words to find a chunk's damaged groups, re-draws only those under
// their own (seed, ns, chunk·groupsPerChunk + group) streams, and splices
// them by draw index between the adopted groups' paths (drawChunk); a
// chunk with no damaged group is adopted whole, its touch mask re-sealed
// for the new universe when the delta added nodes. A repaired pool is
// therefore byte-identical, touch masks included, to a cold pool sampled
// at the new epoch, at a fraction of the draw bill: on the Wiki analog a
// one-edge delta re-draws about 30% of a pool's draws, where whole-chunk
// repair re-drew ~99%.

// RepairStats accounts one repair pass.
type RepairStats struct {
	// Chunks is the number of chunks examined; Resampled of them had at
	// least one damaged group (or carried no touch information) and were
	// rebuilt.
	Chunks    int
	Resampled int
	// DrawsResampled is the draw bill of the re-drawn groups; DrawsSaved
	// the draws adopted without resampling — what a discard-and-resample
	// would have paid on top.
	DrawsResampled int64
	DrawsSaved     int64
}

// Add accumulates another pass's stats.
func (r *RepairStats) Add(o RepairStats) {
	r.Chunks += o.Chunks
	r.Resampled += o.Resampled
	r.DrawsResampled += o.DrawsResampled
	r.DrawsSaved += o.DrawsSaved
}

// damagedGroups returns, for n chunks whose draw counts and touch masks
// chunk reports, the groups of each that a delta with the given dirty
// nodes damaged, the indices of the chunks with any damaged group, and
// the pass's stats.
func damagedGroups(n int, chunk func(int) (int64, touchMask), dirty []graph.Node) ([]uint32, []int, RepairStats) {
	redraw := make([]uint32, n)
	var damaged []int
	st := RepairStats{Chunks: n}
	for i := range redraw {
		draws, touch := chunk(i)
		redraw[i] = touch.damaged(dirty) & groupBits(draws)
		d := groupDraws(redraw[i], draws)
		if redraw[i] != 0 {
			damaged = append(damaged, i)
		}
		st.DrawsResampled += d
		st.DrawsSaved += draws - d
	}
	st.Resampled = len(damaged)
	return redraw, damaged, st
}

// chargeRepair books a finished repair pass on e's ledgers. The
// re-drawn draws go to neither PoolDraws nor PmaxDraws: the repaired
// pool's size was paid for at the old epoch.
func (e *Engine) chargeRepair(st RepairStats) {
	e.draws.Add(st.DrawsResampled)
	e.repairDraws.Add(st.DrawsResampled)
	e.repairSaved.Add(st.DrawsSaved)
	e.repairChunks.Add(int64(st.Resampled))
}

// repairChunks adopts the undamaged groups of old and re-draws the rest
// on engine e (the post-delta engine) under the original stream identity.
// Chunks with no damaged group share their backing arrays with old —
// callers must treat old's tables as immutable, which they are (growth
// replaces them wholesale). Rebuilt chunks' buffers are returned in bufs
// (nil for adopted chunks) for recycling after pool assembly.
func repairChunks(ctx context.Context, e *Engine, seed int64, ns uint64, old []chunkPaths, dirty []graph.Node, workers int) ([]chunkPaths, []*chunkBuf, RepairStats, error) {
	redraw, damaged, st := damagedGroups(len(old), func(i int) (int64, touchMask) {
		return old[i].draws, old[i].touch
	}, dirty)
	chunks := slices.Clone(old)
	for i := range chunks {
		if redraw[i] == 0 {
			chunks[i].touch = chunks[i].touch.widen(e.in.Graph().NumNodes())
		}
	}
	bufs := make([]*chunkBuf, len(old))
	err := parallel.For(ctx, len(damaged), workers, func(j int) {
		i := damaged[j]
		bufs[i] = e.getChunkBuf()
		chunks[i] = e.drawChunk(seed, ns, int64(i), old[i].draws, bufs[i], &old[i], redraw[i])
	})
	if err != nil {
		return nil, nil, RepairStats{}, err
	}
	e.chargeRepair(st)
	return chunks, bufs, st, nil
}

// RepairTo builds a session on engine ne — created for the post-delta
// instance, same (s, t) — that adopts this session's cached pool across
// the delta whose dirty node set is given: undamaged groups keep their
// bytes, damaged groups are re-drawn under their original streams, and
// the reassembled pool is byte-identical to the one a cold session on ne
// would sample at the same size. The receiver is not mutated; in-flight
// queries on it finish at the old epoch.
func (s *Session) RepairTo(ctx context.Context, ne *Engine, dirty []graph.Node) (*Session, RepairStats, error) {
	sp := obs.TraceFrom(ctx).StartSpan(obs.StageRepair)
	defer sp.End()
	s.mu.Lock()
	old := slices.Clone(s.chunks)
	draws := s.draws
	s.mu.Unlock()
	out := &Session{eng: ne, seed: s.seed, workers: s.workers, ns: s.ns}
	if draws == 0 {
		return out, RepairStats{}, nil
	}
	chunks, bufs, st, err := repairChunks(ctx, ne, s.seed, s.ns, old, dirty, s.workers)
	if err != nil {
		return nil, RepairStats{}, err
	}
	pool, err := assemblePool(chunks, ne.in.Graph().NumNodes())
	if err != nil {
		return nil, RepairStats{}, err
	}
	// Re-alias chunk arenas into the assembled pool arena (as Session.Pool
	// does) so the new session holds one copy of the path data and no
	// reference to the old session's arena.
	var base int32
	for c := range chunks {
		n := int32(len(chunks[c].arena))
		if bufs[c] != nil {
			ne.putChunkBuf(bufs[c], chunks[c], true)
		}
		chunks[c].arena = pool.arena[base : base+n]
		base += n
	}
	out.chunks, out.draws, out.pool = chunks, pool.total, pool
	return out, st, nil
}

// RepairTo builds a p_max estimator on engine ne that adopts this
// estimator's draw ledger across the delta: groups whose draws consulted
// no dirty node keep their success positions, damaged groups are
// re-drawn under their original streams. The result is byte-identical to
// a cold estimator's ledger at the same size on the post-delta instance,
// so every stopping-rule answer is preserved or correctly revised.
// Chunks restored from a snapshot carry no touch information and are
// conservatively re-drawn (touch masks are not persisted for the p_max
// ledger).
func (pe *PmaxEstimator) RepairTo(ctx context.Context, ne *Engine, dirty []graph.Node) (*PmaxEstimator, RepairStats, error) {
	sp := obs.TraceFrom(ctx).StartSpan(obs.StageRepair)
	defer sp.End()
	pe.mu.Lock()
	old := slices.Clone(pe.chunks)
	pe.mu.Unlock()
	out := ne.NewPmaxEstimator(pe.seed, pe.workers)
	if len(old) == 0 {
		return out, RepairStats{}, nil
	}
	redraw, damaged, st := damagedGroups(len(old), func(i int) (int64, touchMask) {
		return old[i].draws, old[i].touch
	}, dirty)
	chunks := slices.Clone(old)
	for i := range chunks {
		if redraw[i] == 0 {
			chunks[i].touch = chunks[i].touch.widen(ne.in.Graph().NumNodes())
		}
	}
	err := parallel.For(ctx, len(damaged), pe.workers, func(j int) {
		i := damaged[j]
		chunks[i] = ne.drawPmaxChunk(pe.seed, int64(i), old[i].draws, &old[i], redraw[i])
	})
	if err != nil {
		return nil, RepairStats{}, err
	}
	ne.chargeRepair(st)
	var draws, succ int64
	for _, c := range chunks {
		draws += c.draws
		succ += int64(len(c.succ))
	}
	out.chunks, out.draws, out.succ = chunks, draws, succ
	return out, st, nil
}
