package server

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

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
	files, err := filepath.Glob(filepath.Join(dir, "pair-*.afsnap"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no spill files on disk (err %v)", err)
	}
}

// TestSpillCorruptionFallsBackToResample: a damaged spill file must be
// rejected (ledgered as a load error) and the pair resampled, with
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
	files, err := filepath.Glob(filepath.Join(dir, "pair-*.afsnap"))
	if err != nil || len(files) == 0 {
		t.Fatalf("SpillAll wrote nothing (err %v)", err)
	}
	// Corrupt one file, truncate another mid-header, and cut a third
	// exactly after its first snapshot — the partial-restore path, where
	// the solve pool loads but the eval pool cannot: the pair must be
	// reset to wholly cold so the load ledger stays exact.
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 1
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if len(files) > 1 {
		if err := os.Truncate(files[1], 40); err != nil {
			t.Fatal(err)
		}
	}
	if len(files) > 2 {
		whole, err := os.ReadFile(files[2])
		if err != nil {
			t.Fatal(err)
		}
		if _, first, err := snapshot.DecodeNext(whole); err != nil {
			t.Fatal(err)
		} else if err := os.Truncate(files[2], first); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("SpillLoads = %d with %d files and %d errors", st.SpillLoads, len(files), st.SpillLoadErrors)
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

// TestRestoreSpillSmallFileAllocs: restoring a small spill file sizes
// its read buffer to the file rather than allocating a fixed 1 MiB
// buffer per load (cold-churn workloads restore on nearly every query).
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
	fi, err := os.Stat(sv.spillPath(p))
	if err != nil {
		t.Fatal(err)
	}

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
		t.Fatal("pair was not restored from its spill file")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
		t.Errorf("restoring a %d-byte spill file allocated %d bytes, want well under 1 MiB", fi.Size(), got)
	}
}

// restampSpill rewrites every section of a spill file — pool blobs,
// their touch sections and the p_max ledger — as if written under the
// given stream epoch, with valid checksums.
func restampSpill(t *testing.T, path string, epoch uint32) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(data)
	var out bytes.Buffer
	for r.Len() > 0 {
		head := data[len(data)-r.Len():]
		switch {
		case snapshot.IsTouch(head):
			ts, err := snapshot.ReadTouch(r)
			if err != nil {
				t.Fatal(err)
			}
			ts.StreamEpoch = epoch
			err = snapshot.WriteTouch(&out, ts)
		case snapshot.IsPmax(head):
			st, err := snapshot.ReadPmax(r)
			if err != nil {
				t.Fatal(err)
			}
			st.StreamEpoch = epoch
			err = snapshot.WritePmax(&out, st)
		default:
			p, err := snapshot.Read(r)
			if err != nil {
				t.Fatal(err)
			}
			p.StreamEpoch = epoch
			err = snapshot.Write(&out, p)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSpillStaleStreamEpochAnswersCold: spill files written under stream
// epoch 1 (one stream per 2048-draw chunk, before per-group streams) are
// rejected on load as stream mismatches, and the pairs then answer
// exactly like a cold server's.
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
		restampSpill(t, writer.spillPath(pk), 1)
	}
	stale := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1, SpillDir: dir})
	got := queryAll(t, stale, pairs, 1)
	want := queryAll(t, New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1}), pairs, 1)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pairs restored from epoch-1 spill files answer differently from a cold server:\n got %v\nwant %v", got, want)
	}
	st := stale.Stats()
	if st.SpillLoadErrStream != int64(len(pairs)) || st.SpillLoadErrors != st.SpillLoadErrStream || st.SpillLoads != 0 {
		t.Fatalf("stats %+v, want %d stream-epoch load errors and no loads", st, len(pairs))
	}
}

// TestSpillCorruptEvalSectionAnswersCold: a spill file whose evaluation
// pool — the last pool blob, after the solve pool and the p_max ledger —
// is corrupt fails the pair's restore as a whole. The server counts one
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
	path := writer.spillPath(pairs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the sections to the second pool blob and flip its last body
	// byte, so only its checksum fails.
	r := bytes.NewReader(data)
	pools, evalEnd := 0, int64(-1)
	for r.Len() > 0 && evalEnd < 0 {
		head := data[len(data)-r.Len():]
		switch {
		case snapshot.IsTouch(head):
			_, err = snapshot.ReadTouch(r)
		case snapshot.IsPmax(head):
			_, err = snapshot.ReadPmax(r)
		default:
			_, err = snapshot.Read(r)
			if pools++; pools == 2 {
				evalEnd = int64(len(data) - r.Len())
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if evalEnd < 0 {
		t.Fatal("spill file holds no evaluation pool")
	}
	data[evalEnd-9] ^= 0xff // the byte before the 8-byte footer
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

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
		t.Errorf("pair sampled %d pool draws, a cold pair %d: part of the spill file was kept", got, want)
	}
}
