package engine

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/realization"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// nsPmax namespaces the p_max stopping-rule streams (Algorithm 2) so they
// never collide with the engine's pool, estimation or evaluation streams
// for a shared root seed.
//
// Draw-stream layout: exactly like pool sampling, the Bernoulli type-1
// draws are partitioned into fixed ChunkSize chunks, and draw i of chunk
// c consumes the stream rng.DeriveStream(seed, nsPmax, c·ChunkSize + i)
// from its start. A shorter chunk's draws are therefore a prefix of the
// regrown chunk's, and the whole draw sequence — hence every estimate
// computed from it — is a pure function of the seed, for any worker
// count and any growth schedule.
//
// Epoch semantics: a draw's stream names a draw *schedule*, not a
// result — what each draw produces also depends on the graph epoch the
// engine is bound to. A graph delta advances the epoch (engine.Lineage)
// and RepairTo replays exactly the damaged touch groups' draws against
// the new epoch, so a draw at epoch N+1 is what a cold epoch-N+1 engine
// would have produced under the same stream; undamaged groups' outputs
// are epoch-invariant by the touch-list damage test and are adopted
// verbatim. Estimates
// recomputed after a repair are therefore pure functions of
// (seed, epoch), still for any worker count.
const nsPmax uint64 = 0x506D6178 // "Pmax"

// pmaxRung is the step of the p_max growth ladder: every rung is a
// multiple of it. It is part of the determinism contract — the stopping
// rule is checked at the rungs, so changing it changes estimates — and
// is independent of ChunkSize, which only partitions the draws between
// workers.
const pmaxRung = 2048

// pmaxInitialDraws is the first growth target of a cold estimator. Growth
// then follows pmaxNextTarget's fixed rung-aligned ladder, so the
// sampled total always lands on the same rung sequence (until a budget
// clamps it) regardless of which requests drove the growth — which is
// what makes a staged refinement sample no more than the equivalent cold
// estimate: both walk the identical ladder and stop at the identical
// rung.
const pmaxInitialDraws = pmaxRung

// pmaxNextTarget is the growth ladder: from a ledger of draws samples,
// the next rung. It is a pure function of the ledger size — never of the
// request that triggered growth — so staged and cold estimators land on
// byte-identical ledgers. The rung starts one step up and grows by a
// capped ~1.25× ratio (pmaxRung-aligned) rather than doubling: Estimate
// re-runs the prefix scan at every rung, so finer rungs stop sampling at
// the first one whose scan already converged, and the worst-case
// oversample past the stopping draw shrinks from ~2× to ~1.25× while the
// rung count to any total stays logarithmic.
func pmaxNextTarget(draws int64) int64 {
	next := draws + draws/4
	if c := next % pmaxRung; c != 0 {
		next += pmaxRung - c
	}
	return max(next, draws+pmaxRung, pmaxInitialDraws)
}

// pmaxChunk is one sampled chunk of the estimator's ledger: draws
// Bernoulli draws, of which the chunk-local indices in succ (ascending)
// were type-1.
type pmaxChunk struct {
	draws int64
	succ  []int32
	// touch is the chunk's delta-repair damage-test input (see
	// chunkPaths.touch); unknown for snapshot-restored ledgers — touch
	// lists are not persisted for p_max, so ancestor-epoch ledgers reset
	// to a full re-draw, which is answer-identical.
	touch touchList
}

// PmaxEstimator is the chunked, resumable form of the paper's Algorithm 2
// (the Dagum–Karp–Luby–Ross stopping rule) for p_max: it maintains a
// ledger of Bernoulli type-1 draws sampled in worker-parallel chunks, and
// answers Estimate(ε₀, N, budget) requests by a deterministic prefix scan
// over the per-chunk success positions — the stopping point is the draw
// at which the accumulated successes first reach Υ(ε₀, N), exactly as if
// the draws had been made one by one.
//
// Because the ledger is retained, a later request with a tighter ε₀
// (larger Υ) or a bigger budget extends the existing draw sequence
// instead of restarting: every draw the previous estimate consumed is
// reused, and the refined estimate is identical to a cold estimate at the
// tighter accuracy. The ledger state can be snapshotted to disk and
// restored (see Snapshot/Restore), making the estimate survive process
// restarts the same way pools do.
//
// Safe for concurrent use; estimation and growth are serialized.
type PmaxEstimator struct {
	eng     *Engine
	seed    int64
	workers int

	mu     sync.Mutex
	chunks []pmaxChunk
	draws  int64 // total ledgered draws = Σ chunk draws
	succ   int64 // total ledgered successes
}

// NewPmaxEstimator returns a p_max estimator drawing from the engine's
// Algorithm 2 stream family. seed fixes the draw sequence; workers bounds
// sampling parallelism (0 = all CPUs) without affecting any result.
func (e *Engine) NewPmaxEstimator(seed int64, workers int) *PmaxEstimator {
	return &PmaxEstimator{eng: e, seed: seed, workers: workers}
}

// Seed returns the seed the estimator's streams derive from.
func (pe *PmaxEstimator) Seed() int64 { return pe.seed }

// Draws returns the total number of draws in the estimator's ledger —
// every Bernoulli sample ever paid for, across all Estimate calls.
func (pe *PmaxEstimator) Draws() int64 {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	return pe.draws
}

// Successes returns the number of type-1 draws in the ledger.
func (pe *PmaxEstimator) Successes() int64 {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	return pe.succ
}

// MemBytes returns the bytes held by the estimator's chunk ledger — the
// sizing input for memory-budgeted eviction alongside pool MemBytes.
func (pe *PmaxEstimator) MemBytes() int64 {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	var b int64
	for _, c := range pe.chunks {
		b += int64(cap(c.succ))*4 + c.touch.memBytes()
	}
	return b + int64(cap(pe.chunks))*56
}

// PmaxResult is the outcome of one Estimate call.
type PmaxResult struct {
	// Estimate is Υ/Draws when the rule converged, or the plain
	// Monte-Carlo mean over the budget when Truncated.
	Estimate float64
	// Draws is the number of draws the stopping rule consumed (the budget
	// itself when Truncated). It is a pure function of (seed, ε₀, N) —
	// independent of worker count and of any earlier requests.
	Draws int64
	// Reused counts the consumed draws that were already in the ledger
	// before this call — the refinement win; Sampled counts the net-new
	// draws this call added to the ledger (the growth schedule may
	// oversample past the stopping point; the surplus stays ledgered for
	// the next refinement).
	Reused  int64
	Sampled int64
	// Truncated reports that the budget was exhausted before the rule
	// accumulated Υ success mass, so Estimate carries no stopping-rule
	// accuracy guarantee. A rule that converges exactly on the last
	// budgeted draw is NOT truncated.
	Truncated bool
}

// Estimate runs the stopping rule at relative error eps ∈ (0,1) and
// failure probability 1/n, drawing at most maxDraws samples (0 = no
// budget). The ledger is extended only as far as the scan requires;
// draws already present are never resampled.
//
// On a zero-success budget exhaustion the returned error wraps
// mc.ErrZeroEstimate. With no budget and a truly unreachable target the
// growth ladder eventually overflows the chunk-table cap and returns
// an error rather than sampling forever.
func (pe *PmaxEstimator) Estimate(ctx context.Context, eps, n float64, maxDraws int64) (PmaxResult, error) {
	if eps <= 0 || eps >= 1 {
		return PmaxResult{}, fmt.Errorf("%w: eps=%v not in (0,1)", mc.ErrBadParam, eps)
	}
	if n <= 1 {
		return PmaxResult{}, fmt.Errorf("%w: N=%v must exceed 1", mc.ErrBadParam, n)
	}
	if maxDraws < 0 {
		return PmaxResult{}, fmt.Errorf("%w: maxDraws=%d negative", mc.ErrBadParam, maxDraws)
	}
	upsilon := mc.StoppingRuleThreshold(eps, n)
	// Successes are integral, so Σ first reaches Υ at the ⌈Υ⌉-th one. A
	// Υ beyond the engine's total draw capacity can never be reached:
	// needed is then pinned to an unreachable sentinel so the request
	// falls through to the budget-truncation path exactly like the
	// sequential rule — and the out-of-range float→int64 conversion
	// (implementation-defined in Go) is never taken. Unbounded requests
	// with such a Υ are rejected up front instead of sampling to the
	// chunk-table cap first.
	const drawCapacity = int64(maxPoolChunks) * ChunkSize
	needed := drawCapacity + 1
	if upsilon <= float64(drawCapacity) {
		needed = int64(math.Ceil(upsilon))
	} else if maxDraws == 0 {
		return PmaxResult{}, fmt.Errorf("%w: eps=%v needs %g successes, beyond the engine's %d-draw capacity; set a draw budget",
			mc.ErrBadParam, eps, upsilon, drawCapacity)
	}

	pe.mu.Lock()
	defer pe.mu.Unlock()
	before := pe.draws
	for {
		if d, ok := pe.stopDrawLocked(needed); ok && (maxDraws == 0 || d <= maxDraws) {
			return PmaxResult{
				Estimate: upsilon / float64(d),
				Draws:    d,
				Reused:   min(before, d),
				Sampled:  pe.draws - before,
			}, nil
		}
		if maxDraws > 0 && pe.draws >= maxDraws {
			// Budget exhausted before convergence: fall back to the plain
			// Monte-Carlo mean over exactly the budgeted prefix (the
			// ledger may extend past it from an earlier, larger request).
			s := pe.successesWithinLocked(maxDraws)
			if s == 0 {
				return PmaxResult{Draws: maxDraws, Reused: min(before, maxDraws), Sampled: pe.draws - before, Truncated: true},
					fmt.Errorf("%w (budget %d)", mc.ErrZeroEstimate, maxDraws)
			}
			return PmaxResult{
				Estimate:  float64(s) / float64(maxDraws),
				Draws:     maxDraws,
				Reused:    min(before, maxDraws),
				Sampled:   pe.draws - before,
				Truncated: true,
			}, nil
		}
		target := pmaxNextTarget(pe.draws)
		if maxDraws > 0 && target > maxDraws {
			target = maxDraws
		}
		sp := obs.TraceFrom(ctx).StartSpan(obs.StagePmax)
		err := pe.growLocked(ctx, target)
		sp.End()
		if err != nil {
			return PmaxResult{Sampled: pe.draws - before}, err
		}
	}
}

// stopDrawLocked returns the 1-based index of the draw on which the k-th
// success arrives, scanning the per-chunk success positions in chunk
// order. Caller holds pe.mu.
func (pe *PmaxEstimator) stopDrawLocked(k int64) (int64, bool) {
	if pe.succ < k {
		return 0, false
	}
	var seen, base int64
	for _, c := range pe.chunks {
		if seen+int64(len(c.succ)) >= k {
			return base + int64(c.succ[k-seen-1]) + 1, true
		}
		seen += int64(len(c.succ))
		base += c.draws
	}
	return 0, false
}

// successesWithinLocked counts the successes among the first d ledgered
// draws. Caller holds pe.mu; d ≤ pe.draws.
func (pe *PmaxEstimator) successesWithinLocked(d int64) int64 {
	var s, base int64
	for _, c := range pe.chunks {
		if base+c.draws <= d {
			s += int64(len(c.succ))
			base += c.draws
			continue
		}
		off := d - base
		return s + int64(sort.Search(len(c.succ), func(i int) bool { return int64(c.succ[i]) >= off }))
	}
	return s
}

// growLocked extends the ledger to l draws, sampling the missing chunks
// in parallel. Like pool growth, full chunks are kept and a trailing
// partial chunk is rebuilt at its grown size, keeping its complete touch
// groups — per-draw streams restart, so any draw it re-draws reproduces
// its earlier outcome, and only the net growth is charged to the
// engine's draw ledger. Caller holds pe.mu.
func (pe *PmaxEstimator) growLocked(ctx context.Context, l int64) error {
	if err := checkDraws(l); err != nil {
		return err
	}
	if l <= pe.draws {
		return nil
	}
	keep := len(pe.chunks)
	var partial *pmaxChunk
	if keep > 0 && pe.chunks[keep-1].draws < ChunkSize {
		keep--
		partial = &pe.chunks[keep]
	}
	nchunks := int((l + ChunkSize - 1) / ChunkSize)
	chunks := make([]pmaxChunk, nchunks)
	copy(chunks, pe.chunks[:keep])
	err := parallel.For(ctx, nchunks-keep, pe.workers, func(i int) {
		c := keep + i
		n := int64(ChunkSize)
		if start := int64(c) * ChunkSize; start+n > l {
			n = l - start
		}
		redraw := groupsFrom(0, n)
		var old *pmaxChunk
		if i == 0 && partial != nil {
			old, redraw = partial, regrowGroups(partial.touch, partial.draws, n)
		}
		chunks[c] = pe.eng.drawPmaxChunk(pe.seed, int64(c), n, old, &redraw)
	})
	if err != nil {
		return err
	}
	var draws, succ int64
	for _, c := range chunks {
		draws += c.draws
		succ += int64(len(c.succ))
	}
	pe.eng.addPmaxDraws(draws - pe.draws)
	pe.chunks, pe.draws, pe.succ = chunks, draws, succ
	return nil
}

// drawPmaxChunk builds ledger chunk number chunk, n Bernoulli type-1
// draws, recording the chunk-local indices of the successes. As in
// drawChunk, groups in redraw are drawn, draw i from its own stream
// (seed, nsPmax, chunk·ChunkSize + i), and every other group's
// successes and touch list are copied from old. Like sampleChunk, it
// does not touch the draw ledger — the caller charges the net-new draws
// it is responsible for.
func (e *Engine) drawPmaxChunk(seed int64, chunk, n int64, old *pmaxChunk, redraw *groupSet) pmaxChunk {
	c := pmaxChunk{draws: n}
	var oldTouch touchList
	var from int // old's first success not yet copied or skipped
	if old != nil {
		oldTouch = old.touch
		c.succ = make([]int32, 0, len(old.succ))
	}
	b := e.getChunkBuf()
	touch := e.drawGroups(seed, nsPmax, chunk, n, b, oldTouch, redraw, func(lo, hi int64) {
		for from < len(old.succ) && int64(old.succ[from]) < lo {
			from++
		}
		to := from
		for to < len(old.succ) && int64(old.succ[to]) < hi {
			to++
		}
		c.succ = append(c.succ, old.succ[from:to]...)
		from = to
	}, func(i int64, tg realization.TG) {
		if tg.Outcome == realization.Type1 {
			c.succ = append(c.succ, int32(i))
		}
	})
	c.touch = b.detachTouch(touch)
	chunkBufs.Put(b)
	return c
}

// Snapshot serializes the estimator's ledger — the (seed, nsPmax) stream
// identity, the instance fingerprint, the total draw count and the global
// success indices — in the internal/snapshot PmaxState format. Because
// the ledger is a pure function of (seed, draws), a restored estimator
// answers every request identically to the writer, including refinements
// that grow past the snapshotted size. A never-sampled estimator writes a
// valid empty snapshot.
func (pe *PmaxEstimator) Snapshot(w io.Writer) error {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	st := &snapshot.PmaxState{
		Seed:        pe.seed,
		NS:          nsPmax,
		Fingerprint: pe.eng.Fingerprint(),
		StreamEpoch: rng.StreamEpoch,
		Draws:       pe.draws,
		Successes:   make([]int64, 0, pe.succ),
	}
	var base int64
	for _, c := range pe.chunks {
		for _, p := range c.succ {
			st.Successes = append(st.Successes, base+int64(p))
		}
		base += c.draws
	}
	return snapshot.WritePmax(w, st)
}

// Restore loads a Snapshot into a freshly created (never-sampled)
// estimator, consuming exactly one PmaxState from r. The snapshot's
// stream identity (seed and namespace) and instance fingerprint must
// match the estimator's own; on mismatch an error is returned and the
// estimator is left cold — it resamples lazily with byte-identical
// results, so the fallback never changes an answer. Loading charges
// nothing to the engine's draw ledger.
func (pe *PmaxEstimator) Restore(r io.Reader) error {
	st, err := snapshot.ReadPmax(r)
	if err != nil {
		return err
	}
	pe.mu.Lock()
	defer pe.mu.Unlock()
	if pe.draws != 0 {
		return fmt.Errorf("engine: pmax restore into an estimator holding %d draws", pe.draws)
	}
	if st.StreamEpoch != rng.StreamEpoch {
		return fmt.Errorf("%w: pmax snapshot stream epoch %d does not match the current epoch %d (resample required)",
			ErrStreamMismatch, st.StreamEpoch, rng.StreamEpoch)
	}
	if st.Seed != pe.seed || st.NS != nsPmax {
		return fmt.Errorf("%w: pmax snapshot stream (seed %d, ns %#x) does not match estimator (seed %d, ns %#x)",
			ErrStreamMismatch, st.Seed, st.NS, pe.seed, nsPmax)
	}
	// Unlike pools, ancestor-epoch ledgers are not adopted: touch lists
	// are not persisted for p_max, so every group would fail the damage
	// test anyway — resetting cold re-draws the same groups,
	// answer-identically.
	if fp := pe.eng.Fingerprint(); st.Fingerprint != fp {
		return fmt.Errorf("%w: pmax snapshot instance fingerprint %#x does not match %#x", ErrInstanceMismatch, st.Fingerprint, fp)
	}
	if st.Draws == 0 {
		return nil // empty snapshot: the estimator starts cold, as written
	}
	if err := checkDraws(st.Draws); err != nil {
		return err
	}
	// Rebuild the per-chunk ledger by splitting the global success
	// indices at ChunkSize boundaries — the exact inverse of Snapshot, so
	// growth past the snapshotted size behaves identically to the writer.
	nchunks := int((st.Draws + ChunkSize - 1) / ChunkSize)
	chunks := make([]pmaxChunk, nchunks)
	for c := range chunks {
		start := int64(c) * ChunkSize
		chunks[c].draws = min(int64(ChunkSize), st.Draws-start)
	}
	for _, d := range st.Successes {
		c := d / ChunkSize
		chunks[c].succ = append(chunks[c].succ, int32(d%ChunkSize))
	}
	pe.chunks, pe.draws, pe.succ = chunks, st.Draws, int64(len(st.Successes))
	return nil
}
