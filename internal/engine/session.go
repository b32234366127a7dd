package engine

import (
	"context"
	"sync"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Session caches a growable realization pool across solves. Repeated
// Pool(l) calls with l at or below the cached size are served without any
// sampling; a larger l grows the pool incrementally, drawing only the new
// draws and re-drawing at most the GroupSize−1 draws of the trailing
// partial touch group, to re-seal its list (every other group's paths
// and lists are kept). Because every draw's stream is indexed, a grown
// pool is byte-identical to one sampled at the final size in a single
// shot — for any worker count.
//
// Pool(l) always returns the pool of EXACTLY l draws — a truncated
// prefix view when the cache has grown beyond l — so every result
// computed from it is a pure function of (seed, l), independent of what
// earlier calls happened to request. That independence is what lets a
// serving layer evict and re-admit sessions without changing any answer.
//
// Session is safe for concurrent use; growth is serialized.
type Session struct {
	eng     *Engine
	seed    int64
	workers int
	ns      uint64

	mu     sync.Mutex
	chunks []chunkPaths
	draws  int64           // total draws across chunks = cached pool size
	pool   *Pool           // assembled view of chunks; nil until first Pool call
	views  map[int64]*Pool // truncated prefix views by draw count
}

// NewSession returns a session whose pools draw from the engine's solve
// namespace: Session.Pool(l) returns the same pool as Engine.SamplePool(l)
// for the same seed.
func (e *Engine) NewSession(seed int64, workers int) *Session {
	return &Session{eng: e, seed: seed, workers: workers, ns: nsPool}
}

// NewEvalSession returns a session over an independent stream family,
// meant for measuring f of candidate invitation sets against a pool that
// is decorrelated from the one the sets were optimized on.
func (e *Engine) NewEvalSession(seed int64, workers int) *Session {
	return &Session{eng: e, seed: seed, workers: workers, ns: nsEval}
}

// Size returns the cached pool size (0 before the first Pool call).
func (s *Session) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draws
}

// MemBytes returns the bytes held by the session's cached pool, the
// per-chunk tables kept for regrowth and repair — offsets, draw indices
// and touch lists (chunk arenas alias the pool arena and are not
// double-counted) — and the set-cover families of cached prefix views.
// It is the sizing input for memory-budgeted eviction of cold sessions.
func (s *Session) MemBytes() int64 {
	b, _ := s.MemBytesOutside(nil)
	return b
}

// MemBytesOutside is MemBytes without the arrays that lie inside rec, a
// buffer the session was restored from (RestoreBytes): aliased reports
// whether any does, so rec's owner, which may have handed one buffer to
// several sessions, accounts for it once and for as long as it is kept
// alive.
func (s *Session) MemBytesOutside(rec []byte) (held int64, aliased bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := memTally{rec: rec}
	for _, c := range s.chunks {
		tallySlice(&m, c.offsets)
		tallySlice(&m, c.drawIdx)
		tallySlice(&m, c.touch.Offsets)
		tallySlice(&m, c.touch.Data)
	}
	if s.pool != nil {
		s.pool.tally(&m)
	}
	for _, v := range s.views {
		m.bytes += v.FamilyMemBytes()
	}
	return m.bytes, m.aliased
}

// memTally sums the sizes of backing arrays, leaving out those inside
// rec and noting that one was seen.
type memTally struct {
	rec     []byte
	bytes   int64
	aliased bool
}

// tallySlice adds the backing array of s — cap(s) elements — to m.
func tallySlice[T any](m *memTally, s []T) {
	var zero T
	n := int64(cap(s)) * int64(unsafe.Sizeof(zero))
	if n == 0 {
		return
	}
	// The heap does not move objects, so an address compares stably.
	p := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(m.rec)))
	if len(m.rec) > 0 && p >= lo && p < lo+uintptr(len(m.rec)) {
		m.aliased = true
		return
	}
	m.bytes += n
}

// Pool returns the pool of exactly l realizations, sampling only what
// the cache is missing: when the cached pool is larger, the returned
// pool is the zero-copy prefix view of its first l draws (identical to
// a one-shot pool of size l); when smaller, the cache grows first.
// Views are cached per draw count so repeated solves at one size share
// a set-cover family.
func (s *Session) Pool(ctx context.Context, l int64) (*Pool, error) {
	if err := checkDraws(l); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if l <= s.draws && s.pool != nil {
		return s.viewLocked(l), nil
	}
	sp := obs.TraceFrom(ctx).StartSpan(obs.StagePoolGrow)
	defer sp.End()

	// Keep full chunks; the trailing partial chunk (if any) is rebuilt
	// at its grown size, keeping its complete touch groups and drawing
	// the rest — per-draw streams restart, so a draw it re-draws
	// reproduces its earlier path.
	keep := len(s.chunks)
	var partial *chunkPaths
	if keep > 0 && s.chunks[keep-1].draws < ChunkSize {
		keep--
		partial = &s.chunks[keep]
	}
	nchunks := int((l + ChunkSize - 1) / ChunkSize)
	chunks := make([]chunkPaths, nchunks)
	copy(chunks, s.chunks[:keep])
	missing := nchunks - keep
	bufs := make([]*chunkBuf, missing)
	err := parallel.For(ctx, missing, s.workers, func(i int) {
		c := keep + i
		n := int64(ChunkSize)
		if start := int64(c) * ChunkSize; start+n > l {
			n = l - start
		}
		bufs[i] = s.eng.getChunkBuf()
		if i == 0 && partial != nil {
			redraw := regrowGroups(partial.touch, partial.draws, n)
			chunks[c] = s.eng.drawChunk(s.seed, s.ns, int64(c), n, bufs[i], partial, &redraw)
		} else {
			chunks[c] = s.eng.sampleChunk(s.seed, s.ns, int64(c), n, bufs[i])
		}
	})
	if err != nil {
		return nil, err
	}
	pool, err := assemblePool(chunks, s.eng.in.Graph().NumNodes())
	if err != nil {
		return nil, err
	}
	// Charge only the net growth: regrowing the trailing partial chunk
	// re-derives draws the ledger already counted, and counting them again
	// would break the "PoolDraws equals the pool size" invariant.
	s.eng.addPoolDraws(pool.total - s.draws)
	// Re-alias each chunk's arena to its segment of the assembled pool
	// arena: the cache then holds one copy of the path data (plus the
	// small per-chunk offset tables needed to reassemble on growth).
	// The original chunk arenas are then dead and go back to the buffer
	// pool; the offset tables stay with the retained chunks.
	var base int32
	for c := range chunks {
		n := int32(len(chunks[c].arena))
		if c >= keep {
			s.eng.putChunkBuf(bufs[c-keep], &chunks[c], true)
		}
		chunks[c].arena = pool.arena[base : base+n]
		base += n
	}
	s.chunks = chunks
	s.draws = pool.total
	s.pool = pool
	// Growth rebuilt the arena; cached views alias the old one. Their
	// contents remain valid prefixes, but dropping them lets the old
	// arena be reclaimed — views are cheap to re-derive.
	s.views = nil
	return s.viewLocked(l), nil
}

// ReleaseDerived drops what the session derived from its pool — the
// set-cover family and the prefix views — keeping the sampled state
// itself, so MemBytes afterwards counts the pool and its regrow tables
// only. Holders of an earlier Pool keep it intact; later calls rebuild
// the derived state on demand.
func (s *Session) ReleaseDerived() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pool != nil {
		p := s.pool
		s.pool = &Pool{arena: p.arena, offsets: p.offsets, pathDraw: p.pathDraw, total: p.total, universe: p.universe}
	}
	s.views = nil
}

// maxCachedViews bounds the per-session view cache: each cached view can
// lazily fold its own set-cover family (comparable in size to the pool's),
// so a workload sweeping many distinct draw counts must not accumulate
// one family per count. Views are cheap to re-derive, so overflow just
// resets the cache.
const maxCachedViews = 8

// viewLocked returns the cached prefix view of exactly l draws, creating
// it if needed. Caller holds s.mu; l ≤ s.draws.
func (s *Session) viewLocked(l int64) *Pool {
	if l == s.draws {
		return s.pool
	}
	if v, ok := s.views[l]; ok {
		return v
	}
	v := s.pool.Truncate(l)
	if s.views == nil || len(s.views) >= maxCachedViews {
		s.views = make(map[int64]*Pool)
	}
	s.views[l] = v
	return v
}

// EstimateF estimates f(invited) from the session's cached pool, growing
// it to at least trials draws first. Repeated estimates against the same
// session share the draws; each one scans the pool's paths.
func (s *Session) EstimateF(ctx context.Context, invited *graph.NodeSet, trials int64) (float64, error) {
	p, err := s.Pool(ctx, trials)
	if err != nil {
		return 0, err
	}
	sp := obs.TraceFrom(ctx).StartSpan(obs.StageMeasure)
	defer sp.End()
	return p.EstimateF(invited), nil
}

// EstimateFMany estimates f for every invitation set against the
// session's cached pool (grown to at least trials draws first), one scan
// of the pool's paths per set (Pool.EstimateFMany).
func (s *Session) EstimateFMany(ctx context.Context, invited []*graph.NodeSet, trials int64) ([]float64, error) {
	p, err := s.Pool(ctx, trials)
	if err != nil {
		return nil, err
	}
	sp := obs.TraceFrom(ctx).StartSpan(obs.StageMeasure)
	defer sp.End()
	return p.EstimateFMany(invited), nil
}

// FractionType1 returns the cached pool's estimate of p_max = f(V),
// growing the pool to at least trials draws first.
func (s *Session) FractionType1(ctx context.Context, trials int64) (float64, error) {
	p, err := s.Pool(ctx, trials)
	if err != nil {
		return 0, err
	}
	sp := obs.TraceFrom(ctx).StartSpan(obs.StageMeasure)
	defer sp.End()
	return p.FractionType1(), nil
}
