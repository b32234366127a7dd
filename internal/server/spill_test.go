package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/snapshot"
	"repro/internal/weights"
)

// newSpillServer returns a server over the shared test graph with a
// spill directory and the given byte budget (0 = no eviction).
func newSpillServer(tb testing.TB, dir string, maxBytes int64) *Server {
	g := testGraph(40, 60)
	return New(g, weights.NewDegree(g), Config{
		MaxPoolBytes: maxBytes,
		Seed:         7,
		Workers:      2,
		SpillDir:     dir,
	})
}

// TestSpillReloadDeterminism is the spill tier's correctness claim:
// answers under any evict-to-disk / restore-from-disk schedule equal the
// never-evicted answers, and the ledger shows the spills and loads
// actually happening.
func TestSpillReloadDeterminism(t *testing.T) {
	g := testGraph(40, 60)
	pairs := validPairs(g, 8)
	if len(pairs) < 4 {
		t.Skip("not enough pairs")
	}

	ref := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2})
	want := queryAll(t, ref, pairs, 2)

	dir := t.TempDir()
	sv := newSpillServer(t, dir, 200<<10)
	got := queryAll(t, sv, pairs, 2)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("spill-evicting server answers differ from the unbounded reference")
	}

	st := sv.Stats()
	if st.SessionsEvicted == 0 {
		t.Fatal("budget never forced an eviction; shrink MaxPoolBytes")
	}
	if st.Spills == 0 || st.SpillBytes == 0 {
		t.Fatalf("evictions did not spill: %+v", st)
	}
	if st.SpillLoads == 0 || st.SpillDrawsSaved == 0 {
		t.Fatalf("re-admissions did not load from disk: %+v", st)
	}
	if st.SpillLoadErrors != 0 {
		t.Fatalf("unexpected load errors: %+v", st)
	}
	if len(spillPairs(t, dir)) == 0 {
		t.Fatal("no spill records on disk")
	}
}

// TestSpillCorruptionFallsBackToResample: a damaged spill record must
// be rejected (ledgered as a load error) and the pair resampled, with
// byte-identical answers.
func TestSpillCorruptionFallsBackToResample(t *testing.T) {
	g := testGraph(40, 60)
	pairs := validPairs(g, 4)
	if len(pairs) < 2 {
		t.Skip("not enough pairs")
	}
	dir := t.TempDir()
	sv := newSpillServer(t, dir, 0) // no budget: spill only via SpillAll
	want := queryAll(t, sv, pairs, 1)
	if err := sv.SpillAll(); err != nil {
		t.Fatal(err)
	}
	files := spillPairs(t, dir)
	if len(files) == 0 {
		t.Fatal("SpillAll wrote nothing")
	}
	// Corrupt one record's blob, truncate another's mid-header, and cut
	// a third's exactly after its first snapshot — the partial-restore
	// path, where the solve pool loads but the eval pool cannot: the pair
	// must be reset to wholly cold so the load ledger stays exact.
	rewriteSpill(t, dir, files[0], func(raw []byte) []byte {
		raw[len(raw)/3] ^= 1
		return raw
	})
	if len(files) > 1 {
		rewriteSpill(t, dir, files[1], func(raw []byte) []byte { return raw[:40] })
	}
	if len(files) > 2 {
		rewriteSpill(t, dir, files[2], func(raw []byte) []byte {
			_, first, err := snapshot.DecodeNext(raw)
			if err != nil {
				t.Fatal(err)
			}
			return raw[:first]
		})
	}

	fresh := newSpillServer(t, dir, 0)
	got := queryAll(t, fresh, pairs, 1)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("answers after corrupted spill differ")
	}
	st := fresh.Stats()
	if want := int64(min(len(files), 3)); st.SpillLoadErrors != want {
		t.Fatalf("SpillLoadErrors = %d, want %d: %+v", st.SpillLoadErrors, want, st)
	}
	if st.SpillLoads != int64(len(files))-st.SpillLoadErrors {
		t.Fatalf("SpillLoads = %d with %d records and %d errors", st.SpillLoads, len(files), st.SpillLoadErrors)
	}
}

// TestSpillAllWriteError: when snapshots cannot be written (here the
// "directory" is a regular file), SpillAll must surface the error and
// the ledger must count the failed writes.
func TestSpillAllWriteError(t *testing.T) {
	g := testGraph(40, 60)
	pairs := validPairs(g, 2)
	if len(pairs) == 0 {
		t.Skip("no pairs")
	}
	notADir := filepath.Join(t.TempDir(), "notadir")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	sv := newSpillServer(t, notADir, 0)
	queryAll(t, sv, pairs[:1], 1)
	if err := sv.SpillAll(); err == nil {
		t.Fatal("SpillAll on an unwritable spill dir returned nil")
	}
	if st := sv.Stats(); st.SpillWriteErrors == 0 || st.Spills != 0 {
		t.Fatalf("write failures not ledgered: %+v", st)
	}
}

// TestSpillAllWarmRestart is the restart story end to end: flush a
// server's pools, open a successor with the same seed, Warm it, and
// check the successor (a) loads pools from disk and (b) answers
// identically without resampling the warmed draws.
func TestSpillAllWarmRestart(t *testing.T) {
	g := testGraph(40, 60)
	pairs := validPairs(g, 6)
	if len(pairs) < 3 {
		t.Skip("not enough pairs")
	}
	dir := t.TempDir()

	first := newSpillServer(t, dir, 0)
	want := queryAll(t, first, pairs, 1)
	if err := first.SpillAll(); err != nil {
		t.Fatal(err)
	}

	second := newSpillServer(t, dir, 0)
	n, err := second.Warm()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("Warm admitted no pairs")
	}
	st := second.Stats()
	if st.SpillLoads == 0 || st.SpillDrawsSaved == 0 {
		t.Fatalf("Warm did not load pools: %+v", st)
	}
	got := queryAll(t, second, pairs, 1)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("warm-restarted server answers differ")
	}

	// A server with a different seed must refuse the foreign snapshots
	// (stream identity mismatch) and still answer deterministically for
	// its own seed.
	foreign := New(g, weights.NewDegree(g), Config{Seed: 8, Workers: 2, SpillDir: dir})
	if _, err := foreign.Warm(); err != nil {
		t.Fatal(err)
	}
	if fst := foreign.Stats(); fst.SpillLoads != 0 || fst.SpillLoadErrors == 0 {
		t.Fatalf("foreign-seed server adopted alien pools: %+v", fst)
	}
}

// TestStatsSessionInvariant drives concurrent query/evict/spill churn,
// quiesces, and checks the lifetime ledger: every created session is
// either still live or was evicted exactly once. Run under -race in CI.
func TestStatsSessionInvariant(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		name := "discard"
		if dir != "" {
			name = "spill"
		}
		t.Run(name, func(t *testing.T) {
			g := testGraph(40, 60)
			pairs := validPairs(g, 10)
			if len(pairs) < 4 {
				t.Skip("not enough pairs")
			}
			sv := New(g, weights.NewDegree(g), Config{
				MaxPoolBytes: 150 << 10,
				Seed:         7,
				Workers:      1,
				SpillDir:     dir,
			})
			ctx := context.Background()
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < 30; i++ {
						pk := pairs[r.Intn(len(pairs))]
						switch r.Intn(3) {
						case 0:
							sv.Pmax(ctx, pk.s, pk.t, 2000)
						case 1:
							sv.SolveMax(ctx, pk.s, pk.t, 3, 2000)
						default:
							sv.Solve(ctx, pk.s, pk.t, solveCfg)
						}
					}
				}(w)
			}
			wg.Wait()
			st := sv.Stats()
			if st.SessionsEvicted == 0 {
				t.Fatalf("no eviction churn; shrink the budget (stats %+v)", st)
			}
			if got, want := int64(st.SessionsLive), st.SessionsCreated-st.SessionsEvicted; got != want {
				t.Fatalf("SessionsLive = %d, want created−evicted = %d (stats %+v)", got, want, st)
			}
		})
	}
}

// TestPmaxEstimatorSpillCarry: the p_max estimator's draw ledger rides
// the spill tier — a flushed pair's stopping-rule draws are restored by a
// successor process, so a refined estimate after the restart reuses them
// (ledgered in PmaxDrawsReused) instead of resampling, with answers
// identical to an always-warm server.
func TestPmaxEstimatorSpillCarry(t *testing.T) {
	g := testGraph(40, 60)
	pairs := validPairs(g, 3)
	if len(pairs) < 2 {
		t.Skip("not enough pairs")
	}
	pk := pairs[1]
	ctx := context.Background()
	dir := t.TempDir()

	first := newSpillServer(t, dir, 0)
	coarse, err := first.PmaxEstimate(ctx, pk.s, pk.t, 0.3, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Reused != 0 || coarse.Sampled == 0 {
		t.Fatalf("cold coarse estimate %+v, want fresh sampling", coarse)
	}
	// Always-warm reference for the refined request.
	wantTight, err := first.PmaxEstimate(ctx, pk.s, pk.t, 0.12, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats().PmaxDrawsReused == 0 {
		t.Error("refinement on a warm pair ledgered no reused draws")
	}
	if err := first.SpillAll(); err != nil {
		t.Fatal(err)
	}

	// Restarted process: restore from disk, refine straight to the tight
	// accuracy. Every stopping-rule draw the first process paid for must
	// be reused.
	second := newSpillServer(t, dir, 0)
	if _, err := second.Warm(); err != nil {
		t.Fatal(err)
	}
	tight, err := second.PmaxEstimate(ctx, pk.s, pk.t, 0.12, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Estimate != wantTight.Estimate || tight.Draws != wantTight.Draws || tight.Truncated != wantTight.Truncated {
		t.Errorf("post-restart estimate %+v, want %+v", tight, wantTight)
	}
	if tight.Sampled != 0 {
		t.Errorf("post-restart refinement sampled %d draws despite the spilled ledger", tight.Sampled)
	}
	if got := second.Stats().PmaxDrawsReused; got < tight.Draws {
		t.Errorf("PmaxDrawsReused = %d, want at least the %d consumed draws", got, tight.Draws)
	}

	// A third process with a different seed must reject the files and
	// still answer deterministically for its own streams.
	third := New(g, weights.NewDegree(g), Config{Seed: 8, Workers: 2, SpillDir: dir})
	if _, err := third.PmaxEstimate(ctx, pk.s, pk.t, 0.12, 100, 0); err != nil {
		t.Fatalf("mismatched-seed server failed to fall back cold: %v", err)
	}
	if st := third.Stats(); st.SpillLoads != 0 {
		t.Errorf("mismatched-seed server claimed %d spill loads", st.SpillLoads)
	}
}

// TestRestoreSpillSmallFileAllocs: restoring a small spill record
// allocates the record once — one exactly-sized buffer that every
// section decodes in place — plus a fixed slack, not a large buffer or
// a copy per section (cold-churn workloads restore on nearly every
// query).
func TestRestoreSpillSmallFileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's shadow allocations skew TotalAlloc")
	}
	dir := t.TempDir()
	p := validPairs(testGraph(40, 60), 1)[0]
	sv := newSpillServer(t, dir, 0)
	if _, err := sv.Pmax(context.Background(), p.s, p.t, 2048); err != nil {
		t.Fatal(err)
	}
	if err := sv.SpillAll(); err != nil {
		t.Fatal(err)
	}
	size := len(spillBlob(t, sv.spill, p))

	warm := newSpillServer(t, dir, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h, err := warm.Pair(p.s, p.t)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	h.Done()
	if !h.e.loaded {
		t.Fatal("pair was not restored from its spill record")
	}
	// The slack covers opening the log (directory listing, segment scan,
	// index), the pair's instance and session, and the restored chunk
	// tables: 13.2–21.5 KB over 20 runs on a 26,216-byte record.
	const slack = 32 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(size)+slack {
		t.Errorf("restoring a %d-byte spill record allocated %d bytes, want at most the record plus %d", size, got, slack)
	}
}

// restampSpill rewrites every section of the pair's spill record — pool
// blobs, their touch sections, the p_max ledger and the VMAX section —
// as if written under the given stream epoch, with valid checksums; each
// touch section's header names touch format touchVersion.
func restampSpill(t *testing.T, dir string, pk pairKey, epoch, touchVersion uint32) {
	t.Helper()
	rewriteSpill(t, dir, pk, func(data []byte) []byte { return restampBlob(t, data, epoch, touchVersion) })
}

func restampBlob(t *testing.T, data []byte, epoch, touchVersion uint32) []byte {
	t.Helper()
	var out bytes.Buffer
	for len(data) > 0 {
		sec := nextSection(t, data)
		data = data[sec.n:]
		var err error
		switch {
		case sec.touch != nil:
			sec.touch.StreamEpoch = epoch
			var blob bytes.Buffer
			if err = snapshot.WriteTouch(&blob, sec.touch); err != nil {
				break
			}
			b := blob.Bytes()
			binary.LittleEndian.PutUint32(b[8:], touchVersion)
			binary.LittleEndian.PutUint32(b[len(b)-8:], crc32.Checksum(b[:len(b)-8], crc32.MakeTable(crc32.Castagnoli)))
			out.Write(b)
		case sec.pmax != nil:
			sec.pmax.StreamEpoch = epoch
			err = snapshot.WritePmax(&out, sec.pmax)
		case sec.vmax != nil:
			sec.vmax.StreamEpoch = epoch
			err = snapshot.WriteVmax(&out, sec.vmax)
		default:
			sec.pool.StreamEpoch = epoch
			err = snapshot.Write(&out, sec.pool)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// spillSection is one decoded section of a spill record's blob: exactly
// one of its forms is set, and n is its length.
type spillSection struct {
	pool  *snapshot.Pool
	touch *snapshot.TouchSet
	pmax  *snapshot.PmaxState
	vmax  *snapshot.VmaxState
	n     int64
}

// nextSection decodes the section at the start of data, by its magic.
func nextSection(t *testing.T, data []byte) spillSection {
	t.Helper()
	var sec spillSection
	var err error
	switch {
	case snapshot.IsTouch(data):
		sec.touch, sec.n, err = snapshot.DecodeTouchNext(data)
	case snapshot.IsPmax(data):
		sec.pmax, sec.n, err = snapshot.DecodePmaxNext(data)
	case snapshot.IsVmax(data):
		sec.vmax, sec.n, err = snapshot.DecodeVmaxNext(data)
	default:
		sec.pool, sec.n, err = snapshot.DecodeNext(data)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sec
}

// TestSpillStaleStreamEpochAnswersCold: spill records written under stream
// epoch 2 (one stream per 64-draw group, TOUCH v2 sections) are rejected
// on load as stream mismatches — the pool blob's epoch is checked before
// its touch section is read — and the pairs then answer exactly like a
// cold server's.
func TestSpillStaleStreamEpochAnswersCold(t *testing.T) {
	g := testGraph(40, 60)
	pairs := validPairs(g, 3)
	dir := t.TempDir()
	writer := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1, SpillDir: dir})
	queryAll(t, writer, pairs, 1)
	if err := writer.SpillAll(); err != nil {
		t.Fatal(err)
	}
	for _, pk := range pairs {
		restampSpill(t, dir, pk, rng.StreamEpoch-1, snapshot.TouchVersion-1)
	}
	stale := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1, SpillDir: dir})
	got := queryAll(t, stale, pairs, 1)
	want := queryAll(t, New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1}), pairs, 1)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pairs restored from epoch-2 spill records answer differently from a cold server:\n got %v\nwant %v", got, want)
	}
	st := stale.Stats()
	if st.SpillLoadErrStream != int64(len(pairs)) || st.SpillLoadErrors != st.SpillLoadErrStream || st.SpillLoads != 0 {
		t.Fatalf("stats %+v, want %d stream-epoch load errors and no loads", st, len(pairs))
	}
}

// downgradeSpill rewrites every pool blob of the pair's spill record as
// format version 1 wrote it — each path in walk order (here:
// descending), a version 1 header and a valid checksum — and keeps the
// touch, p_max and VMAX sections as they are.
func downgradeSpill(t *testing.T, dir string, pk pairKey) {
	t.Helper()
	rewriteSpill(t, dir, pk, func(data []byte) []byte { return downgradeBlob(t, data) })
}

func downgradeBlob(t *testing.T, data []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	for len(data) > 0 {
		sec := nextSection(t, data)
		if p := sec.pool; p != nil {
			p.Arena = slices.Clone(p.Arena) // the decoded pool aliases data
			for i := 0; i < p.NumPaths(); i++ {
				slices.Reverse(p.Arena[p.Offsets[i]:p.Offsets[i+1]])
			}
			var blob bytes.Buffer
			if err := snapshot.Write(&blob, p); err != nil {
				t.Fatal(err)
			}
			b := blob.Bytes()
			binary.LittleEndian.PutUint32(b[8:], 1)
			binary.LittleEndian.PutUint32(b[len(b)-8:], crc32.Checksum(b[:len(b)-8], castagnoli))
			out.Write(b)
		} else {
			out.Write(data[:sec.n])
		}
		data = data[sec.n:]
	}
	return out.Bytes()
}

// TestSpillVersion1AnswersCold: spill records whose pools were written by
// format version 1, paths in walk order, are rejected on load as
// version errors, and the pairs then answer exactly like a cold
// server's.
func TestSpillVersion1AnswersCold(t *testing.T) {
	g := testGraph(40, 60)
	pairs := validPairs(g, 3)
	dir := t.TempDir()
	writer := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1, SpillDir: dir})
	queryAll(t, writer, pairs, 1)
	if err := writer.SpillAll(); err != nil {
		t.Fatal(err)
	}
	for _, pk := range pairs {
		downgradeSpill(t, dir, pk)
	}
	old := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1, SpillDir: dir})
	got := queryAll(t, old, pairs, 1)
	want := queryAll(t, New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1}), pairs, 1)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pairs restored from version 1 spill records answer differently from a cold server:\n got %v\nwant %v", got, want)
	}
	st := old.Stats()
	if st.SpillLoadErrVersion != int64(len(pairs)) || st.SpillLoadErrors != st.SpillLoadErrVersion || st.SpillLoads != 0 {
		t.Fatalf("stats %+v, want %d version load errors and no loads", st, len(pairs))
	}
}

// TestSpillCorruptEvalSectionAnswersCold: a spill record whose
// evaluation pool — the last pool blob, after the solve pool and the
// p_max ledger — is corrupt fails the pair's restore as a whole. The server counts one
// checksum load error, no load and no saved draws, and the pair answers
// like a cold server's, resampling everything it holds.
func TestSpillCorruptEvalSectionAnswersCold(t *testing.T) {
	g := testGraph(40, 60)
	pairs := validPairs(g, 1)
	dir := t.TempDir()
	writer := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1, SpillDir: dir})
	queryAll(t, writer, pairs, 1)
	if err := writer.SpillAll(); err != nil {
		t.Fatal(err)
	}
	rewriteSpill(t, dir, pairs[0], func(data []byte) []byte {
		// Walk the sections to the second pool blob and flip its last
		// body byte, so only its checksum fails.
		pools, evalEnd := 0, int64(-1)
		for at := int64(0); at < int64(len(data)) && evalEnd < 0; {
			sec := nextSection(t, data[at:])
			if at += sec.n; sec.pool != nil {
				if pools++; pools == 2 {
					evalEnd = at
				}
			}
		}
		if evalEnd < 0 {
			t.Fatal("spill record holds no evaluation pool")
		}
		data[evalEnd-9] ^= 0xff // the byte before the 8-byte footer
		return data
	})

	sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1, SpillDir: dir})
	cold := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1})
	got, want := queryAll(t, sv, pairs, 1), queryAll(t, cold, pairs, 1)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pair with a corrupt eval section answers differently from a cold server:\n got %v\nwant %v", got, want)
	}
	st := sv.Stats()
	if st.SpillLoadErrors != 1 || st.SpillLoadErrChecksum != 1 || st.SpillLoads != 0 || st.SpillDrawsSaved != 0 {
		t.Fatalf("stats %+v, want exactly one checksum load error and no load", st)
	}
	h, err := sv.Pair(pairs[0].s, pairs[0].t)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Done()
	hc, err := cold.Pair(pairs[0].s, pairs[0].t)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Done()
	if got, want := h.Core().Engine().PoolDraws(), hc.Core().Engine().PoolDraws(); got != want {
		t.Errorf("pair sampled %d pool draws, a cold pair %d: part of the spill record was kept", got, want)
	}
}
