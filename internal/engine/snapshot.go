package engine

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// Sentinel causes for snapshot rejection, wrapped into the returned
// errors so serving layers can ledger rejections by kind (errors.Is).
var (
	// ErrStreamMismatch: the blob was sampled under a different stream
	// identity — seed, namespace, or rng.StreamEpoch draw protocol.
	ErrStreamMismatch = errors.New("engine: snapshot stream identity mismatch")
	// ErrInstanceMismatch: the blob belongs to a different problem
	// instance — a fingerprint that is neither the current instance nor,
	// when a lineage is bound, any ancestor epoch of it.
	ErrInstanceMismatch = errors.New("engine: snapshot instance mismatch")
)

// Snapshot serializes the session's cached pool — arena, offsets,
// per-path draw indices, universe and total draws, plus the (seed,
// namespace) that produced it — in the internal/snapshot format. Because
// pool contents are a pure function of (seed, l), a snapshot loaded by
// OpenSession or Restore is byte-identical to the live pool, and every
// solve or estimate computed from it returns identical results: spilling
// to disk is a latency decision, never a correctness one. A session that
// has not sampled yet writes a valid empty snapshot.
// When every cached chunk carries touch information, the pool blob is
// followed by a touch section (snapshot.TouchSet, TOUCH v3) holding the
// chunks' touch lists as they are, so a later process can
// adopt-and-repair the blob across graph deltas, re-drawing only damaged
// groups, instead of resampling it wholesale. The section is optional on
// read; a session restored without one still answers identically, it
// just repairs more conservatively.
func (s *Session) Snapshot(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := &snapshot.Pool{
		Seed:        s.seed,
		NS:          uint64(s.ns),
		Fingerprint: s.eng.Fingerprint(),
		StreamEpoch: rng.StreamEpoch,
		Universe:    int64(s.eng.in.Graph().NumNodes()),
		Total:       s.draws,
		Offsets:     []int32{0},
	}
	if s.pool != nil {
		sp.Offsets = s.pool.offsets
		sp.PathDraw = s.pool.pathDraw
		sp.Arena = s.pool.arena[:s.pool.offsets[s.pool.NumType1()]]
	}
	if err := snapshot.Write(w, sp); err != nil {
		return err
	}
	ts := s.touchSetLocked()
	if ts == nil {
		return nil
	}
	return snapshot.WriteTouch(w, ts)
}

// touchSetLocked gathers the chunks' touch lists into a serializable
// TouchSet that aliases them, or nil when the session has no chunks or
// any chunk lacks touch information (all-or-nothing: a partially-informed
// section could not distinguish "untouched" from "unknown"). Caller holds
// s.mu.
func (s *Session) touchSetLocked() *snapshot.TouchSet {
	if !s.touchKnownLocked() {
		return nil
	}
	ts := &snapshot.TouchSet{
		StreamEpoch: rng.StreamEpoch,
		Universe:    int64(s.eng.in.Graph().NumNodes()),
		Total:       s.draws,
		ChunkSize:   ChunkSize,
		GroupSize:   GroupSize,
		Chunks:      make([]snapshot.TouchChunk, len(s.chunks)),
	}
	for c, ch := range s.chunks {
		ts.Chunks[c] = snapshot.TouchChunk(ch.touch)
	}
	return ts
}

// touchKnownLocked reports whether the session has chunks and every one
// carries touch information. Caller holds s.mu.
func (s *Session) touchKnownLocked() bool {
	for _, c := range s.chunks {
		if !c.touch.known() {
			return false
		}
	}
	return len(s.chunks) > 0
}

// SnapshotSize returns the exact byte size Snapshot would write now.
func (s *Session) SnapshotSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pool == nil {
		return snapshot.EncodedSize(&snapshot.Pool{Offsets: []int32{0}})
	}
	sz := snapshot.EncodedSize(&snapshot.Pool{
		Offsets: s.pool.offsets,
		Arena:   s.pool.arena[:s.pool.offsets[s.pool.NumType1()]],
	})
	if s.touchKnownLocked() {
		var offsets, data int64
		for _, c := range s.chunks {
			offsets += int64(len(c.touch.Offsets))
			data += int64(len(c.touch.Data))
		}
		sz += snapshot.EncodedSizeTouchFor(offsets, data)
	}
	return sz
}

// Seed returns the seed the session's streams derive from.
func (s *Session) Seed() int64 { return s.seed }

// peeker is the subset of bufio.Reader used to detect an optional touch
// section without consuming stream bytes.
type peeker interface {
	io.Reader
	Peek(int) ([]byte, error)
}

// readSnapshotAndTouch reads one pool blob from r plus, when the next
// bytes carry the touch magic, the touch section that follows it. The
// lookahead needs a reader that can un-consume 8 bytes — Peek (e.g. a
// *bufio.Reader) or Seek (bytes.Reader, *os.File); any other reader
// leaves a touch section unread, which is harmless: repair then treats
// every chunk as damaged. A pool blob from another stream epoch is
// rejected before its touch section is read, so a file written under an
// earlier draw protocol fails as a stream mismatch whatever touch format
// it carries.
func readSnapshotAndTouch(r io.Reader) (*snapshot.Pool, *snapshot.TouchSet, error) {
	sp, err := snapshot.Read(r)
	if err != nil {
		return nil, nil, err
	}
	// The stream epoch is part of the pool's identity: bytes sampled
	// under another draw protocol are correct for that protocol only, so
	// adopting them would silently mix generations. Rejecting sends every
	// caller down its resample fallback, which is answer-identical.
	if sp.StreamEpoch != rng.StreamEpoch {
		return nil, nil, fmt.Errorf("%w: snapshot stream epoch %d does not match the current epoch %d (resample required)",
			ErrStreamMismatch, sp.StreamEpoch, rng.StreamEpoch)
	}
	hasTouch := false
	switch rr := r.(type) {
	case peeker:
		b, err := rr.Peek(8)
		hasTouch = err == nil && snapshot.IsTouch(b)
	case io.ReadSeeker:
		var hdr [8]byte
		n, err := io.ReadFull(rr, hdr[:])
		if n > 0 {
			if _, serr := rr.Seek(int64(-n), io.SeekCurrent); serr != nil {
				return nil, nil, serr
			}
		}
		hasTouch = err == nil && snapshot.IsTouch(hdr[:])
	}
	if !hasTouch {
		return sp, nil, nil
	}
	ts, err := snapshot.ReadTouch(r)
	if err != nil {
		return nil, nil, err
	}
	return sp, ts, nil
}

// OpenSession loads a session from a snapshot written by Snapshot: the
// pool, its per-chunk regrow tables, and the (seed, namespace) identity
// all come from the snapshot, so the loaded session behaves exactly like
// the one that wrote it — including growth past the snapshotted size,
// which resamples only the missing chunks. Reading consumes the pool
// blob plus its touch section when one follows — r should support Peek
// (e.g. a *bufio.Reader; a plain reader loads the pool but leaves the
// touch bytes unread).
func OpenSession(e *Engine, r io.Reader, workers int) (*Session, error) {
	sp, ts, err := readSnapshotAndTouch(r)
	if err != nil {
		return nil, err
	}
	return sessionFromSnapshot(e, sp, ts, workers)
}

func sessionFromSnapshot(e *Engine, sp *snapshot.Pool, ts *snapshot.TouchSet, workers int) (*Session, error) {
	s := &Session{eng: e, seed: sp.Seed, workers: workers, ns: sp.NS}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.adoptSnapshotLocked(sp, ts); err != nil {
		return nil, err
	}
	return s, nil
}

// Restore loads a snapshot into a freshly created (never-sampled)
// session. Unlike OpenSession it validates that the snapshot's stream
// identity matches the session's own (seed and namespace), so a serving
// layer restoring spilled pair state cannot adopt bytes sampled under a
// different configuration — a mismatch returns an error (wrapping
// ErrStreamMismatch or ErrInstanceMismatch) and the caller falls back to
// resampling, which yields the same answers. When the engine is bound to
// a lineage, a snapshot from an ancestor graph epoch is adopted and
// repaired instead of rejected (see adoptSnapshotLocked).
func (s *Session) Restore(r io.Reader) error {
	sp, ts, err := readSnapshotAndTouch(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draws != 0 {
		return fmt.Errorf("engine: restore into a session holding %d draws", s.draws)
	}
	if sp.Seed != s.seed || sp.NS != s.ns {
		return fmt.Errorf("%w: snapshot stream (seed %d, ns %#x) does not match session (seed %d, ns %#x)",
			ErrStreamMismatch, sp.Seed, sp.NS, s.seed, s.ns)
	}
	return s.adoptSnapshotLocked(sp, ts)
}

// attachTouch hands each rebuilt chunk its persisted touch lists when the
// touch section matches the pool's stream epoch and geometry and the
// engine's chunk and group sizes; on any mismatch the lists stay unknown
// and a later repair degrades to re-drawing every group (correct, just
// slower). The lists alias the section's storage and are not decoded
// here: repair reads a list where it tests it, and a malformed one
// counts as damaged.
func attachTouch(chunks []chunkPaths, ts *snapshot.TouchSet, sp *snapshot.Pool) {
	if ts == nil || ts.StreamEpoch != sp.StreamEpoch || ts.Universe != sp.Universe || ts.Total != sp.Total ||
		ts.ChunkSize != ChunkSize || ts.GroupSize != GroupSize || ts.NumChunks() != len(chunks) {
		return
	}
	for c := range chunks {
		chunks[c].touch = touchList(ts.Chunks[c])
	}
}

// adoptSnapshotLocked installs the snapshot's pool and rebuilds the
// per-chunk tables growth needs. Caller holds s.mu. Loading charges
// nothing to the engine's draw ledger: the whole point of a snapshot is
// that its draws were paid for in a previous life. (Draws re-made
// repairing an ancestor-epoch blob ARE charged, to the repair ledger.)
//
// A fingerprint (or universe) mismatch is terminal unless the engine's
// bound lineage resolves the snapshot's fingerprint to an ancestor epoch
// of this same instance; then the blob is adopted and repaired — touch
// groups untouched by the epochs' accumulated dirty set keep their bytes,
// damaged groups are re-drawn — leaving the session byte-identical to
// one sampled cold at the current epoch. The blob's stream epoch was
// checked on read (readSnapshotAndTouch).
func (s *Session) adoptSnapshotLocked(sp *snapshot.Pool, ts *snapshot.TouchSet) error {
	n := int64(s.eng.in.Graph().NumNodes())
	var repairDirty []graph.Node
	repair := false
	if fp := s.eng.Fingerprint(); sp.Fingerprint != fp || sp.Universe != n {
		// Same node count is not same instance: a restart against a
		// modified graph or weight scheme must not silently adopt stale
		// pools. An ancestor epoch of this instance's own lineage is the
		// one exception — its blob is adopted and repaired below. (Deltas
		// only grow the universe, so an ancestor universe never exceeds n.)
		dirty, ok := s.eng.ancestorDirty(sp.Fingerprint)
		if !ok || sp.Universe > n {
			return fmt.Errorf("%w: snapshot instance fingerprint %#x (universe %d) matches neither %#x (universe %d) nor a lineage ancestor",
				ErrInstanceMismatch, sp.Fingerprint, sp.Universe, fp, n)
		}
		repair, repairDirty = true, dirty
	}
	if sp.Total == 0 {
		return nil // empty snapshot: the session starts cold, as written
	}
	if err := checkDraws(sp.Total); err != nil {
		return err
	}
	pool := &Pool{
		arena:    sp.Arena,
		offsets:  sp.Offsets,
		pathDraw: sp.PathDraw,
		total:    sp.Total,
		universe: int(sp.Universe),
	}
	chunks := chunksFromPool(pool)
	attachTouch(chunks, ts, sp)
	if repair {
		rchunks, bufs, _, err := repairChunks(context.Background(), s.eng, s.seed, s.ns, chunks, repairDirty, s.workers)
		if err != nil {
			return err
		}
		rpool, err := assemblePool(rchunks, int(n))
		if err != nil {
			return err
		}
		var base int32
		for c := range rchunks {
			cn := int32(len(rchunks[c].arena))
			if bufs[c] != nil {
				s.eng.putChunkBuf(bufs[c], &rchunks[c], true)
			}
			rchunks[c].arena = rpool.arena[base : base+cn]
			base += cn
		}
		pool, chunks = rpool, rchunks
	}
	s.pool = pool
	s.draws = pool.total
	s.chunks = chunks
	s.views = nil
	return nil
}

// chunksFromPool rebuilds the per-chunk CSR tables from an assembled
// pool by splitting its draw indices at ChunkSize boundaries — the exact
// inverse of assemblePool, so a loaded session's chunk state is
// byte-identical to the writer's and growth behaves identically (the
// trailing partial chunk, if any, is still resampled on growth with the
// loaded draws as its stream prefix).
func chunksFromPool(p *Pool) []chunkPaths {
	nchunks := int((p.total + ChunkSize - 1) / ChunkSize)
	chunks := make([]chunkPaths, nchunks)
	lo := 0
	for c := range chunks {
		start := int64(c) * ChunkSize
		end := min(start+ChunkSize, p.total)
		hi := lo
		for hi < len(p.pathDraw) && p.pathDraw[hi] < end {
			hi++
		}
		cp := chunkPaths{
			draws:   end - start,
			arena:   p.arena[p.offsets[lo]:p.offsets[hi]],
			offsets: make([]int32, hi-lo+1),
			drawIdx: make([]int32, hi-lo),
		}
		base := p.offsets[lo]
		for j := lo; j < hi; j++ {
			cp.offsets[j-lo+1] = p.offsets[j+1] - base
			cp.drawIdx[j-lo] = int32(p.pathDraw[j] - start)
		}
		chunks[c] = cp
		lo = hi
	}
	return chunks
}
