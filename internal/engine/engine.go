// Package engine is the shared realization engine behind every algorithm
// in the library: RAF (Alg. 3–4), the budgeted maximum variant, the
// reverse f-estimator (Corollary 1) and the experiment harness all draw
// reverse realizations t(g) and answer coverage queries through it.
//
// Three properties distinguish it from naive per-consumer sampling:
//
//   - Pools are stored in a compact CSR layout (one flat path arena plus
//     offsets) handed zero-copy to the set-cover solver and scanned
//     directly by coverage queries.
//   - Sampling is partitioned into fixed-size chunks whose random streams
//     derive from the chunk (and draw-group) index, namespaced per call
//     site, so pool contents and estimates are pure functions of
//     (seed, l) — identical for any worker count.
//   - Per-worker Samplers are recycled through a sync.Pool, and a Session
//     caches a growable pool so repeated solves (e.g. an α-sweep) sample
//     each realization exactly once.
package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/ltm"
	"repro/internal/parallel"
	"repro/internal/realization"
	"repro/internal/rng"
	"repro/internal/weights"
	"sync"
)

// ChunkSize is the number of realization draws per sampling chunk. It is
// part of the determinism contract: pool contents depend on how draws are
// grouped into chunks (and chunks into GroupSize groups, see touch.go),
// so changing it changes pools for a fixed seed.
const ChunkSize = 2048

// Stream namespaces (see rng.DeriveStream): every sampling call site gets
// its own family of indexed streams so phases sharing one root seed never
// consume identical randomness. The p_max stopping-rule namespace nsPmax
// lives in pmax.go next to the estimator; its draws follow the same
// fixed layout as pools (group g of chunk c reads stream (seed, ns,
// c·groupsPerChunk + g) from its start), so every stream family shares
// one determinism story. One-shot estimation (EstimateF) records no
// touches and keeps one stream per chunk: (seed, nsEstimate, c).
const (
	nsPool     uint64 = 0x506F6F4C // solve pools ("PooL")
	nsEstimate uint64 = 0x45737446 // one-shot reverse f-estimation ("EstF")
	nsEval     uint64 = 0x4576616C // evaluation-pool sessions ("Eval")
)

// Engine samples realizations for one instance. It is safe for concurrent
// use; samplers are recycled across calls and goroutines.
type Engine struct {
	in        *ltm.Instance
	samplers  sync.Pool
	draws     atomic.Int64 // every draw made through the engine
	poolDraws atomic.Int64 // draws spent filling pools (subset of draws)
	pmaxDraws atomic.Int64 // draws spent in p_max estimator ledgers (subset of draws)

	// Delta-repair accounting (subsets of draws; see repair.go): draws
	// re-made resampling damaged chunks, draws adopted across a delta
	// without resampling, and the damaged chunk count.
	repairDraws  atomic.Int64
	repairSaved  atomic.Int64
	repairChunks atomic.Int64

	// lineage, when bound, lets snapshot adoption resolve fingerprints of
	// ancestor epochs of the same evolving graph (see lineage.go). gfp is
	// the graph-level fingerprint; fp mixes in (s, t).
	lineage *Lineage
	gfpOnce sync.Once
	gfp     uint64
	fpOnce  sync.Once
	fp      uint64
}

// fpFinalize is the murmur3 finalizer used to restore avalanche after the
// word-wise FNV mixing in the fingerprint functions.
func fpFinalize(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// GraphFingerprint returns a content hash of a (graph, weights) pair —
// structure and edge weights, but no (s, t) binding, so one O(V+E) pass
// serves every pair session on the graph (instance fingerprints mix the
// endpoints in afterwards, O(1) each). It identifies one graph *epoch*:
// applying a delta changes it, and the lineage of these values is what
// lets a restore recognize a snapshot from an earlier epoch of the same
// evolving graph (see Lineage).
func GraphFingerprint(g *graph.Graph, w weights.Scheme) uint64 {
	// Word-wise FNV-1a (whole uint64 per round, not per byte — this runs
	// on server construction and every delta, so it must stay a small
	// fraction of a reload) with a murmur3 finalizer.
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(v uint64) { h = (h ^ v) * prime64 }
	mix(uint64(g.NumNodes()))
	for v := graph.Node(0); v < graph.Node(g.NumNodes()); v++ {
		nb := g.Neighbors(v)
		mix(uint64(len(nb)))
		for _, u := range nb {
			mix(uint64(u))
			mix(math.Float64bits(w.W(u, v)))
		}
	}
	return fpFinalize(h)
}

// instanceFingerprint derives the per-instance fingerprint from a graph
// epoch's fingerprint and the (s, t) endpoints.
func instanceFingerprint(graphFP uint64, s, t graph.Node) uint64 {
	const prime64 = 1099511628211
	h := graphFP
	h = (h ^ uint64(uint32(s))) * prime64
	h = (h ^ uint64(uint32(t))) * prime64
	return fpFinalize(h)
}

// Bind attaches the engine to a graph-epoch lineage and pins its graph
// fingerprint, sparing the O(V+E) hash when the caller (a serving layer
// that computed it once per epoch) already knows it. Call before the
// first Fingerprint use; an engine that already hashed on its own keeps
// its value (identical, since GraphFingerprint is deterministic).
func (e *Engine) Bind(lin *Lineage, graphFP uint64) {
	e.lineage = lin
	e.gfpOnce.Do(func() { e.gfp = graphFP })
}

// GraphFP returns the engine's graph-epoch fingerprint (computing it on
// first use unless Bind supplied it).
func (e *Engine) GraphFP() uint64 {
	e.gfpOnce.Do(func() { e.gfp = GraphFingerprint(e.in.Graph(), e.in.Weights()) })
	return e.gfp
}

// Fingerprint returns a content hash of the engine's problem instance —
// graph structure, edge weights, initiator and target. Snapshots embed
// it so a restore can reject pools sampled on a *different* instance
// that happens to share a node count (same-seed restarts against a
// modified graph must resample — or, when the mismatch resolves to an
// ancestor epoch in a bound lineage, adopt and repair).
func (e *Engine) Fingerprint() uint64 {
	e.fpOnce.Do(func() { e.fp = instanceFingerprint(e.GraphFP(), e.in.S(), e.in.T()) })
	return e.fp
}

// New returns an engine for the instance.
func New(in *ltm.Instance) *Engine {
	e := &Engine{in: in}
	e.samplers.New = func() any { return realization.NewSampler(in) }
	return e
}

// Instance returns the underlying instance.
func (e *Engine) Instance() *ltm.Instance { return e.in }

// Draws returns the total number of realization draws made through the
// engine; PoolDraws counts only those spent filling pools. Each pooled
// draw is counted exactly once: when a Session regrows a partial trailing
// chunk, the re-derived prefix is not re-counted, so after any grow
// sequence PoolDraws equals the sum of the cached pool sizes. The pair
// makes pool reuse observable: an α-sweep through one Session leaves
// PoolDraws at exactly the pool size.
func (e *Engine) Draws() int64     { return e.draws.Load() }
func (e *Engine) PoolDraws() int64 { return e.poolDraws.Load() }

// PmaxDraws counts the draws spent filling p_max estimator ledgers
// (a subset of Draws, disjoint from PoolDraws). Each ledgered draw is
// charged at most once — regrowing a partial trailing chunk charges only
// the net growth — so after any estimate sequence PmaxDraws equals the
// draws this process sampled into live estimator ledgers. Ledger content
// restored from a snapshot is NOT counted (those draws were paid for in
// a previous life), so a restored estimator's ledger can exceed the
// counter; the gap is exactly the restart's sampling win.
func (e *Engine) PmaxDraws() int64 { return e.pmaxDraws.Load() }

// RepairDrawsResampled, RepairDrawsSaved and RepairChunksResampled expose
// the engine's delta-repair accounting: draws re-made resampling damaged
// chunks (charged to Draws but to neither PoolDraws nor PmaxDraws — the
// repaired pool's size was paid for at the old epoch), draws whose chunks
// were adopted across a delta without resampling (the repair-vs-discard
// win), and the damaged chunk count.
func (e *Engine) RepairDrawsResampled() int64  { return e.repairDraws.Load() }
func (e *Engine) RepairDrawsSaved() int64      { return e.repairSaved.Load() }
func (e *Engine) RepairChunksResampled() int64 { return e.repairChunks.Load() }

// addPmaxDraws charges n p_max-ledger draws to the engine's ledger.
func (e *Engine) addPmaxDraws(n int64) {
	e.draws.Add(n)
	e.pmaxDraws.Add(n)
}

// chunkPaths holds the type-1 paths of one sampled chunk in local CSR
// form: path j is arena[offsets[j]:offsets[j+1]], sorted ascending, and
// was produced by the chunk-local draw drawIdx[j]. The draw indices are
// what let an assembled pool serve truncated prefix views
// (Pool.Truncate) at any draw count, independent of how large the cache
// has grown, and what let repair splice re-drawn groups between adopted
// ones.
type chunkPaths struct {
	draws   int64
	arena   []graph.Node
	offsets []int32
	drawIdx []int32
	// touch records which of the chunk's draw groups consulted each node
	// (see touchMask) — the delta-repair damage test: a group whose draws
	// consulted no dirty node replays byte-identically on the post-delta
	// graph.
	touch touchMask
}

// chunkBuf carries the backing arrays a sampled chunk appends into.
// Buffers cycle through a process-wide pool: a sampling call draws one
// per chunk, hands its (possibly regrown) arrays back after pool
// assembly, and steady-state sampling stops allocating entirely — the
// arenas are size-hinted by whatever previous chunks needed. The pool is
// package-level rather than per-Engine because a buffer's contents are
// appended from scratch every use and carry nothing instance-specific,
// so a batched top-k request spanning many pair engines warms one shared
// set of arenas instead of one cold set per candidate.
type chunkBuf struct {
	arena   []graph.Node
	offsets []int32
	drawIdx []int32
	// nodes and masks receive a sealed touch mask's sparse form (see
	// sealTouch).
	nodes []graph.Node
	masks []uint32
}

var chunkBufs = sync.Pool{New: func() any { return new(chunkBuf) }}

// getChunkBuf draws a recycled chunk buffer from the shared pool.
func (e *Engine) getChunkBuf() *chunkBuf { return chunkBufs.Get().(*chunkBuf) }

// putChunkBuf returns cp's backing arrays to the pool through b (the
// buffer cp was sampled into). keepTables leaves offsets, drawIdx and
// the touch mask with the caller — Session retains them for regrowth
// and repair and recycles only the arena, whose contents it re-aliases
// into the assembled pool.
func (e *Engine) putChunkBuf(b *chunkBuf, cp chunkPaths, keepTables bool) {
	b.arena = cp.arena[:0]
	if keepTables {
		b.offsets, b.drawIdx = nil, nil
	} else {
		b.offsets = cp.offsets[:0]
		b.drawIdx = cp.drawIdx[:0]
		b.reclaimTouch(cp.touch)
	}
	chunkBufs.Put(b)
}

// sampleChunk draws chunk number chunk, n realizations, into b's
// chunk-local arena — no per-path allocation, and none at all once b's
// arrays are warm. Group g of the chunk reads the stream (seed, ns,
// chunk·groupsPerChunk + g), so a chunk's result depends only on
// (seed, ns, chunk, n), and a shorter chunk's paths are a prefix of a
// longer one's, which is what lets Session grow a partial trailing chunk
// consistently.
//
// sampleChunk does not touch the draw ledger: the caller accounts for the
// draws it is responsible for, so a Session that regrows a partial chunk
// (re-deriving its already-counted prefix) can charge only the net-new
// draws and keep PoolDraws equal to the pool size.
func (e *Engine) sampleChunk(seed int64, ns uint64, chunk, n int64, b *chunkBuf) chunkPaths {
	return e.drawChunk(seed, ns, chunk, n, b, nil, groupBits(n))
}

// drawChunk builds chunk number chunk, n draws, into b. Groups set in
// redraw are drawn from their own streams; every other group is copied
// from old, the same chunk as sampled before — at an earlier graph epoch
// (repair, where the damage test guarantees those groups replay
// identically) or at a smaller size (growth, where old holds them
// complete). The touch words of copied groups carry over from old, so
// the result, touch mask included, is exactly what sampling the chunk
// from scratch would produce. old may be nil only when redraw holds
// every group.
func (e *Engine) drawChunk(seed int64, ns uint64, chunk, n int64, b *chunkBuf, old *chunkPaths, redraw uint32) chunkPaths {
	cp := chunkPaths{
		draws:   n,
		arena:   b.arena[:0],
		offsets: append(b.offsets[:0], 0),
		drawIdx: b.drawIdx[:0],
	}
	var oldTouch touchMask
	var from int // old's first path not yet copied or skipped
	if old != nil {
		oldTouch = old.touch
	}
	cp.touch = e.drawGroups(seed, ns, chunk, n, b, oldTouch, redraw, func(lo, hi int64) {
		for from < len(old.drawIdx) && int64(old.drawIdx[from]) < lo {
			from++
		}
		to := from
		for to < len(old.drawIdx) && int64(old.drawIdx[to]) < hi {
			to++
		}
		cp.appendPaths(old, from, to)
		from = to
	}, func(sp *realization.Sampler, st rng.Stream, lo, hi int64) {
		arena, offsets, drawIdx := cp.arena, cp.offsets, cp.drawIdx // kept in registers
		for i := lo; i < hi; i++ {
			tg := sp.SampleTGView(&st)
			if tg.Outcome == realization.Type1 {
				// Stored ascending: only the path's node set matters
				// (Lemma 2), and the set-cover fold reads it sorted.
				start := len(arena)
				arena = append(arena, tg.Path...)
				sortPath(arena[start:])
				offsets = append(offsets, int32(len(arena)))
				drawIdx = append(drawIdx, int32(i))
			}
		}
		cp.arena, cp.offsets, cp.drawIdx = arena, offsets, drawIdx
	})
	return cp
}

// sortPath sorts a freshly drawn path ascending. Most paths are a
// handful of nodes, where an inline insertion sort is cheaper than
// slices.Sort; long ones go to slices.Sort.
func sortPath(p []graph.Node) {
	if len(p) > 32 {
		slices.Sort(p)
		return
	}
	for k := 1; k < len(p); k++ {
		v, j := p[k], k
		for ; j > 0 && p[j-1] > v; j-- {
			p[j] = p[j-1]
		}
		p[j] = v
	}
}

// drawGroups runs the group loop both touch-recording kernels share,
// over the groups of an n-draw chunk in order. A group set in redraw is
// drawn by draw from its own stream (seed, ns, chunk·groupsPerChunk + g)
// while the sampler records its touches under the group's bit; any
// other group is handed to keep, which copies its results from the old
// chunk, whose touch words old supplies for it. It returns the chunk's
// sealed touch mask. draw takes its stream by value: a pointer passed
// through the func value would move every group's stream to the heap.
func (e *Engine) drawGroups(seed int64, ns uint64, chunk, n int64, b *chunkBuf, old touchMask, redraw uint32,
	keep func(lo, hi int64), draw func(sp *realization.Sampler, st rng.Stream, lo, hi int64)) touchMask {
	log := getTouchLog(e.in.Graph().NumNodes())
	old.orInto(log, ^redraw)
	sp := e.samplers.Get().(*realization.Sampler)
	for g := int64(0); g*GroupSize < n; g++ {
		lo, hi := g*GroupSize, min(g*GroupSize+GroupSize, n)
		if bit := uint32(1) << g; redraw&bit == 0 {
			keep(lo, hi)
		} else {
			sp.RecordTouches(log, bit)
			draw(sp, rng.DerivedStream(seed, ns, groupStream(chunk, g)), lo, hi)
		}
	}
	sp.RecordTouches(nil, 0)
	e.samplers.Put(sp)
	return b.sealTouch(log)
}

// appendPaths copies src's paths [from, to) onto the end of cp.
func (cp *chunkPaths) appendPaths(src *chunkPaths, from, to int) {
	if from == to {
		return
	}
	shift := int32(len(cp.arena)) - src.offsets[from]
	cp.arena = append(cp.arena, src.arena[src.offsets[from]:src.offsets[to]]...)
	for _, end := range src.offsets[from+1 : to+1] {
		cp.offsets = append(cp.offsets, end+shift)
	}
	cp.drawIdx = append(cp.drawIdx, src.drawIdx[from:to]...)
}

// regrowGroups returns the groups to draw when a chunk of oldDraws draws
// with touch mask t grows to n draws: every group, except the complete
// groups the old chunk already holds — those are prefix-stable and keep
// their bytes, provided their touch words are known.
func regrowGroups(t touchMask, oldDraws, n int64) uint32 {
	if !t.known() {
		return groupBits(n)
	}
	return groupBits(n) &^ groupBits(oldDraws/GroupSize*GroupSize)
}

// addPoolDraws charges n pool draws to the engine's ledger.
func (e *Engine) addPoolDraws(n int64) {
	e.draws.Add(n)
	e.poolDraws.Add(n)
}

// assemblePool concatenates chunk results (in chunk order) into one pool.
func assemblePool(chunks []chunkPaths, universe int) (*Pool, error) {
	var total, arenaLen int64
	var paths int
	for _, c := range chunks {
		total += c.draws
		arenaLen += int64(len(c.arena))
		paths += len(c.offsets) - 1
	}
	if arenaLen > math.MaxInt32 {
		return nil, fmt.Errorf("engine: pool arena of %d nodes overflows int32 offsets", arenaLen)
	}
	p := &Pool{
		arena:    make([]graph.Node, 0, arenaLen),
		offsets:  make([]int32, 1, paths+1),
		pathDraw: make([]int64, 0, paths),
		total:    total,
		universe: universe,
	}
	var drawBase int64
	for _, c := range chunks {
		base := int32(len(p.arena))
		p.arena = append(p.arena, c.arena...)
		for _, end := range c.offsets[1:] {
			p.offsets = append(p.offsets, base+end)
		}
		for _, d := range c.drawIdx {
			p.pathDraw = append(p.pathDraw, drawBase+int64(d))
		}
		drawBase += c.draws
	}
	return p, nil
}

// maxPoolChunks bounds the per-chunk descriptor table one sampling run
// may materialize (the cap allows ~8.6 billion draws, weeks of work; a
// request beyond it — e.g. an Unbounded solve whose theoretical l* is
// astronomical — is a configuration error and gets a clean error instead
// of a fatal allocation).
const maxPoolChunks = 1 << 22

// checkDraws validates a requested draw count against the chunk-table cap.
func checkDraws(l int64) error {
	if l <= 0 {
		return fmt.Errorf("engine: draw count %d must be positive", l)
	}
	if (l+ChunkSize-1)/ChunkSize > maxPoolChunks {
		return fmt.Errorf("engine: draw count %d exceeds the %d maximum (cap the pool, e.g. MaxRealizations)",
			l, int64(maxPoolChunks)*ChunkSize)
	}
	return nil
}

// SamplePool draws l realizations (workers 0 = all CPUs) and collects the
// type-1 paths into a CSR pool. The result is a pure function of
// (seed, l): draws are partitioned into fixed chunks assigned by index,
// so the worker count affects only wall-clock time.
func (e *Engine) SamplePool(ctx context.Context, l int64, workers int, seed int64) (*Pool, error) {
	return e.samplePoolNS(ctx, l, workers, seed, nsPool)
}

func (e *Engine) samplePoolNS(ctx context.Context, l int64, workers int, seed int64, ns uint64) (*Pool, error) {
	if err := checkDraws(l); err != nil {
		return nil, err
	}
	chunks := make([]chunkPaths, (l+ChunkSize-1)/ChunkSize)
	bufs := make([]*chunkBuf, len(chunks))
	err := parallel.ForChunks(ctx, l, ChunkSize, workers, func(c int, _, n int64) {
		bufs[c] = e.getChunkBuf()
		chunks[c] = e.sampleChunk(seed, ns, int64(c), n, bufs[c])
	})
	if err != nil {
		return nil, err
	}
	e.addPoolDraws(l)
	pool, err := assemblePool(chunks, e.in.Graph().NumNodes())
	if err != nil {
		return nil, err
	}
	// Assembly copied everything out; the chunk arrays go back to the pool.
	for c := range chunks {
		e.putChunkBuf(bufs[c], chunks[c], false)
	}
	return pool, nil
}

// EstimateF estimates f(invited) with trials independent reverse samples
// (Corollary 1): the fraction of draws whose t(g) is covered. Lemma 1
// guarantees agreement with the forward simulator. Like SamplePool, the
// estimate is a pure function of (seed, trials) regardless of workers.
func (e *Engine) EstimateF(ctx context.Context, invited *graph.NodeSet, trials int64, workers int, seed int64) (float64, error) {
	if err := checkDraws(trials); err != nil {
		return 0, err
	}
	hits := make([]int64, (trials+ChunkSize-1)/ChunkSize)
	err := parallel.ForChunks(ctx, trials, ChunkSize, workers, func(c int, _, n int64) {
		st := rng.DerivedStream(seed, nsEstimate, uint64(c))
		sp := e.samplers.Get().(*realization.Sampler)
		var h int64
		for i := int64(0); i < n; i++ {
			if sp.SampleTGView(&st).Covered(invited) {
				h++
			}
		}
		e.samplers.Put(sp)
		e.draws.Add(n)
		hits[c] = h
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, h := range hits {
		total += h
	}
	return float64(total) / float64(trials), nil
}
