package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/weights"
)

// openSpillLog opens a store of its own on dir, as a successor process
// would, and closes its files when the test ends.
func openSpillLog(t *testing.T, dir string) *spillStore {
	t.Helper()
	st := newSpillStore(dir)
	if err := st.open(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		st.compactWG.Wait()
		st.mu.Lock()
		defer st.mu.Unlock()
		for _, seg := range st.segs {
			seg.f.Close()
		}
	})
	return st
}

// spillPairs returns the pairs the spill log in dir holds a record for.
func spillPairs(t *testing.T, dir string) []pairKey {
	t.Helper()
	return openSpillLog(t, dir).keys()
}

// spillBlob returns the session blob of the pair's latest record.
func spillBlob(t *testing.T, st *spillStore, k pairKey) []byte {
	t.Helper()
	loc, ok := st.pin(k)
	if !ok {
		t.Fatalf("no spill record for pair %v", k)
	}
	defer st.unpin(loc)
	b := make([]byte, loc.n)
	if _, err := loc.seg.f.ReadAt(b, loc.off); err != nil {
		t.Fatal(err)
	}
	return b
}

// rewriteSpill appends a record holding edit(blob) as the pair's latest,
// where blob is its latest record's session blob: the way a test plants
// a damaged or foreign blob in the log in dir.
func rewriteSpill(t *testing.T, dir string, k pairKey, edit func([]byte) []byte) {
	t.Helper()
	st := openSpillLog(t, dir)
	b := edit(spillBlob(t, st, k))
	if _, err := st.put(k, func(w io.Writer) error { _, err := w.Write(b); return err }); err != nil {
		t.Fatal(err)
	}
	// The record superseded may start a compaction; let it finish before
	// another store reads the directory.
	st.compactWG.Wait()
}

// setWriter replaces the store's segment writer.
func setWriter(st *spillStore, w func(*os.File, []byte, int64) (int, error)) {
	st.mu.Lock()
	st.writeAt = w
	st.mu.Unlock()
}

// hasSpill reports whether the server's spill index holds the pair.
func hasSpill(sv *Server, k pairKey) bool {
	loc, ok := sv.spill.pin(k)
	if ok {
		sv.spill.unpin(loc)
	}
	return ok
}

// shiftClock moves the server's spill clock by d: records are stamped,
// and expired, by it.
func shiftClock(sv *Server, d time.Duration) {
	sv.spill.now = func() time.Time { return time.Now().Add(d) }
}

// segmentFiles lists the segment files in dir.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "spill-*.afseg"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// spillAnswers spills the answers of a clean server on the pairs to a
// fresh directory and returns the directory and the answers.
func spillAnswers(t *testing.T, g *graph.Graph, pairs []pairKey) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1, SpillDir: dir})
	want := queryAll(t, sv, pairs, 1)
	if err := sv.SpillAll(); err != nil {
		t.Fatal(err)
	}
	return dir, want
}

// TestSpillTornTail: a segment cut inside its last record loads every
// record before the cut, and the torn record's pair resamples; every
// answer equals a clean server's.
func TestSpillTornTail(t *testing.T) {
	g := testGraph(40, 60)
	pairs := validPairs(g, 4)
	dir, want := spillAnswers(t, g, pairs)
	files := segmentFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("SpillAll wrote %d segments, want 1", len(files))
	}
	fi, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[0], fi.Size()-100); err != nil {
		t.Fatal(err)
	}
	if got := spillPairs(t, dir); len(got) != len(pairs)-1 {
		t.Fatalf("torn log holds %d pairs, want %d", len(got), len(pairs)-1)
	}
	sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1, SpillDir: dir})
	if got := queryAll(t, sv, pairs, 1); !reflect.DeepEqual(got, want) {
		t.Fatal("answers after a torn tail differ from a clean server's")
	}
	if st := sv.Stats(); st.SpillLoads != int64(len(pairs)-1) || st.SpillLoadErrors != 0 {
		t.Fatalf("stats %+v, want %d loads and no load error", st, len(pairs)-1)
	}
}

// TestSpillBadHeaderCRC: a record header that fails its CRC in the
// middle of a segment ends that segment's scan: the records before it
// load, it and the records after it resample, and every answer equals a
// clean server's.
func TestSpillBadHeaderCRC(t *testing.T) {
	g := testGraph(40, 60)
	pairs := validPairs(g, 5)
	dir, want := spillAnswers(t, g, pairs)
	files := segmentFiles(t, dir)
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	scanSegment(bytes.NewReader(raw), int64(len(raw)), func(_ recordHeader, off int64) { offs = append(offs, off-recordHeaderSize) })
	if len(offs) != len(pairs) {
		t.Fatalf("segment holds %d records, want %d", len(offs), len(pairs))
	}
	raw[offs[2]+13] ^= 0x01 // the third record's blob length
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := spillPairs(t, dir); len(got) != 2 {
		t.Fatalf("log holds %d pairs past a bad header, want the 2 before it", len(got))
	}
	sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1, SpillDir: dir})
	if got := queryAll(t, sv, pairs, 1); !reflect.DeepEqual(got, want) {
		t.Fatal("answers after a bad record header differ from a clean server's")
	}
	if st := sv.Stats(); st.SpillLoads != 2 || st.SpillLoadErrors != 0 {
		t.Fatalf("stats %+v, want 2 loads and no load error", st)
	}
}

// TestSpillAppendFailure: an append that fails — ENOSPC, or a short
// write — is ledgered in SpillWriteErrors, and the pair's previous
// record still serves: its answers equal a clean server's, restored
// from the older record, which a later successful spill replaces.
func TestSpillAppendFailure(t *testing.T) {
	ctx := context.Background()
	g := testGraph(40, 60)
	pairs := validPairs(g, 2)
	pk := pairs[0]
	want := queryAll(t, New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1}), pairs, 1)
	for name, fail := range map[string]func(*os.File, []byte, int64) (int, error){
		"enospc": func(f *os.File, b []byte, off int64) (int, error) {
			return 0, &os.PathError{Op: "write", Path: f.Name(), Err: syscall.ENOSPC}
		},
		"short": func(f *os.File, b []byte, off int64) (int, error) {
			return f.WriteAt(b[:len(b)/2], off)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1, SpillDir: dir})
			if _, err := sv.Pmax(ctx, pk.s, pk.t, 2000); err != nil {
				t.Fatal(err)
			}
			if err := sv.SpillAll(); err != nil {
				t.Fatal(err)
			}
			first := len(spillBlob(t, sv.spill, pk))
			// Grow the pair, then fail its next spill.
			queryAll(t, sv, pairs[:1], 1)
			setWriter(sv.spill, fail)
			err := sv.SpillAll()
			if err == nil {
				t.Fatal("SpillAll hid a failed append")
			}
			if name == "enospc" && !errors.Is(err, syscall.ENOSPC) {
				t.Errorf("SpillAll error %v does not wrap ENOSPC", err)
			}
			if st := sv.Stats(); st.SpillWriteErrors != 1 || st.Spills != 1 {
				t.Fatalf("stats %+v, want one write error after one spill", st)
			}
			if got := len(spillBlob(t, sv.spill, pk)); got != first {
				t.Fatalf("a failed append replaced the pair's %d-byte record with %d bytes", first, got)
			}
			// The failed segment, now mostly a torn record, is compacted.
			sv.spill.compactWG.Wait()

			// A successor serves the previous record and answers cleanly.
			next := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1, SpillDir: dir})
			if got := queryAll(t, next, pairs, 1); !reflect.DeepEqual(got, want) {
				t.Fatal("answers after a failed append differ from a clean server's")
			}
			if st := next.Stats(); st.SpillLoads != 1 || st.SpillLoadErrors != 0 {
				t.Fatalf("successor stats %+v, want the previous record loaded", st)
			}

			// Appends work again once the writer does; the failed segment
			// is sealed, so the new record goes to a fresh one.
			setWriter(sv.spill, (*os.File).WriteAt)
			if err := sv.SpillAll(); err != nil {
				t.Fatal(err)
			}
			if got := len(spillBlob(t, sv.spill, pk)); got <= first {
				t.Fatalf("record after recovery holds %d bytes, want more than %d", got, first)
			}
			if got := len(spillBlob(t, openSpillLog(t, dir), pk)); got <= first {
				t.Fatalf("reopened log serves the %d-byte record, not the grown one", got)
			}
		})
	}
}

// TestSpillCompactionRace: with segments small enough that eviction
// churn seals them every few spills, compaction runs while concurrent
// queries load records from the segments it copies and removes, and
// while ApplyDelta drops a dissolved pair's record. Every answer equals
// a clean server's at the same epoch, and the compacted log reopens to
// the same answers.
func TestSpillCompactionRace(t *testing.T) {
	ctx := context.Background()
	g := testGraph(40, 60)
	pairs := validPairs(g, 10)
	victim, pairs := pairs[0], pairs[1:]
	d := &graph.Delta{Add: []graph.Edge{{U: victim.s, V: victim.t}}}
	g2, _, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	ref := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1})
	ref2 := New(g2, weights.NewDegree(g2), Config{Seed: 7, Workers: 1})
	want := map[pairKey][]string{}
	want2 := map[pairKey][]string{}
	for _, pk := range pairs {
		want[pk] = queryAll(t, ref, []pairKey{pk}, 1)
		want2[pk] = queryAll(t, ref2, []pairKey{pk}, 1)
	}

	dir := t.TempDir()
	sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1, SpillDir: dir, MaxPoolBytes: 150 << 10})
	sv.spill.limit = 64 << 10
	if _, err := sv.Pmax(ctx, victim.s, victim.t, 3000); err != nil {
		t.Fatal(err)
	}
	// run queries the pairs from 4 goroutines; each answer must equal
	// that of a clean server at one of the epochs in wants.
	run := func(wants ...map[pairKey][]string) {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 12; i++ {
					pk := pairs[(w*5+i*3)%len(pairs)]
				answers:
					for j, got := range queryAll(t, sv, []pairKey{pk}, 1) {
						for _, want := range wants {
							if got == want[pk][j] {
								continue answers
							}
						}
						t.Errorf("pair %v answers %s, which no clean server does", pk, got)
					}
				}
			}(w)
		}
		wg.Wait()
	}
	run(want)
	if !hasSpill(sv, victim) {
		t.Fatal("the victim pair was never spilled")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := sv.ApplyDelta(ctx, d, nil); err != nil {
			t.Error(err)
		}
	}()
	run(want, want2)
	wg.Wait()
	run(want2)
	sv.spill.compactWG.Wait()
	if hasSpill(sv, victim) {
		t.Error("the dissolved pair's record survived the delta")
	}
	sv.spill.mu.Lock()
	retired := sv.spill.nextID - len(sv.spill.segs)
	sv.spill.mu.Unlock()
	if retired == 0 {
		t.Fatal("no segment was compacted away; shrink the segment limit")
	}
	if files := segmentFiles(t, dir); len(files) != liveSegments(sv) {
		t.Errorf("%d segment files on disk, the log holds %d", len(files), liveSegments(sv))
	}
	if err := sv.SpillAll(); err != nil {
		t.Fatal(err)
	}
	next := New(g2, weights.NewDegree(g2), Config{Seed: 7, Workers: 1, SpillDir: dir})
	for _, pk := range pairs {
		if got := queryAll(t, next, []pairKey{pk}, 1); !reflect.DeepEqual(got, want2[pk]) {
			t.Errorf("reopened log: pair %v answers %v, want %v", pk, got, want2[pk])
		}
	}
	if st := next.Stats(); st.SpillLoads != int64(len(pairs)) || st.SpillLoadErrors != 0 {
		t.Errorf("reopened log: stats %+v, want %d loads", st, len(pairs))
	}
}

// liveSegments returns the number of segment files the server's log
// holds open.
func liveSegments(sv *Server) int {
	sv.spill.mu.Lock()
	defer sv.spill.mu.Unlock()
	return len(sv.spill.segs)
}

// TestSpillTTLExpiryRacesWarm: expiry passes run while Warm admits the
// log's pairs and queries touch them. The records' write times are a
// minute apart and the clock advances a minute at every reading, so
// successive passes expire successively more records while Warm loads
// the rest. Whichever records a pass takes first, every answer equals a
// clean server's.
func TestSpillTTLExpiryRacesWarm(t *testing.T) {
	g := testGraph(40, 60)
	pairs := validPairs(g, 8)
	for round := 0; round < 3; round++ {
		dir, want := spillAnswers(t, g, pairs)
		base := time.Now()
		st := openSpillLog(t, dir)
		for i, pk := range pairs {
			b := spillBlob(t, st, pk)
			st.now = func() time.Time { return base.Add(time.Duration(i) * time.Minute) }
			if _, err := st.put(pk, func(w io.Writer) error { _, err := w.Write(b); return err }); err != nil {
				t.Fatal(err)
			}
		}
		sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1, SpillDir: dir, SpillTTL: time.Hour})
		var tick atomic.Int64
		sv.spill.now = func() time.Time {
			return base.Add(time.Hour + time.Duration(2*round+int(tick.Add(1))-4)*time.Minute)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < len(pairs); i++ {
				sv.expireSpills()
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := sv.Warm(); err != nil {
				t.Error(err)
			}
		}()
		if got := queryAll(t, sv, pairs, 1); !reflect.DeepEqual(got, want) {
			t.Fatal("answers while expiry races Warm differ from a clean server's")
		}
		wg.Wait()
		sv.spill.compactWG.Wait()
		stats := sv.Stats()
		if stats.SpillLoads+stats.SpillFilesExpired < int64(len(pairs)) || stats.SpillLoadErrors != 0 {
			t.Fatalf("round %d: stats %+v: every record must load or expire", round, stats)
		}
	}
}

// TestSpillLatestRecordWins: a reopened log serves each pair's latest
// record; a compaction copy that lost a race to a fresh spill (an older
// write time, later in the log) does not shadow it; and files of the
// per-pair format are removed while foreign files stay.
func TestSpillLatestRecordWins(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"pair-3-9.afsnap", "pair-3-9.afsnap.tmp1", "notes.txt", "spill-7.afseg"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st := openSpillLog(t, dir)
	k := pairKey{3, 9}
	t0 := time.Now()
	put := func(at time.Time, blob string) {
		t.Helper()
		st.now = func() time.Time { return at }
		if _, err := st.put(k, func(w io.Writer) error { _, err := io.WriteString(w, blob); return err }); err != nil {
			t.Fatal(err)
		}
	}
	put(t0, "old")
	old, _ := st.pin(k)
	st.unpin(old)
	put(t0.Add(time.Second), "new")
	// A copy of the old record, appended after the new one.
	rec := make([]byte, recordHeaderSize, recordHeaderSize+3)
	putRecordHeader(rec, recordHeader{key: k, n: 3, at: t0.UnixNano()})
	if err := st.append(k, append(rec, "old"...), &old); err != nil {
		t.Fatal(err)
	}
	if got := string(spillBlob(t, st, k)); got != "new" {
		t.Fatalf("live index serves %q, want the newest write", got)
	}
	if got := string(spillBlob(t, openSpillLog(t, dir), k)); got != "new" {
		t.Fatalf("reopened log serves %q, want the newest write", got)
	}
	for name, keep := range map[string]bool{"pair-3-9.afsnap": false, "pair-3-9.afsnap.tmp1": true, "notes.txt": true, "spill-7.afseg": true} {
		if _, err := os.Stat(filepath.Join(dir, name)); (err == nil) != keep {
			t.Errorf("%s: kept = %v, want %v", name, err == nil, keep)
		}
	}
}

// FuzzSpillSegment throws arbitrary bytes at the segment scan: it must
// never panic or allocate by a header's claim, and every record it
// accepts lies inside the segment, after the one before it.
func FuzzSpillSegment(f *testing.F) {
	rec := func(k pairKey, blob string) []byte {
		b := make([]byte, recordHeaderSize, recordHeaderSize+len(blob))
		putRecordHeader(b, recordHeader{key: k, n: int64(len(blob)), at: 1})
		return append(b, blob...)
	}
	two := append(rec(pairKey{1, 2}, "abcdefgh"), rec(pairKey{3, 4}, "")...)
	f.Add([]byte{})
	f.Add(two)
	f.Add(two[:len(two)-1])
	f.Add(append(bytes.Clone(two), 0, 0, 0))
	huge := rec(pairKey{5, 6}, "")
	putRecordHeader(huge, recordHeader{key: pairKey{5, 6}, n: 1 << 62})
	f.Add(huge)
	for _, off := range []int{0, 5, 13, 28, 40} {
		mut := bytes.Clone(two)
		mut[off] ^= 0x80
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prev := int64(0)
		end := scanSegment(bytes.NewReader(data), int64(len(data)), func(h recordHeader, off int64) {
			if off != prev+recordHeaderSize || h.n < 0 || off+h.n > int64(len(data)) {
				t.Fatalf("record at %d of %d bytes accepted after %d, in a %d-byte segment", off, h.n, prev, len(data))
			}
			prev = off + h.n
		})
		if end != prev {
			t.Fatalf("scan ends at %d, its last record at %d", end, prev)
		}
	})
}

func newTTLServer(dir string, ttl time.Duration) *Server {
	g := testGraph(40, 60)
	return New(g, weights.NewDegree(g), Config{
		Seed:     7,
		Workers:  2,
		SpillDir: dir,
		SpillTTL: ttl,
	})
}

// TestSpillTTLWarmSweep: Warm on a log of expired records drops them
// instead of loading them, ledgers the drops, and the server still
// answers identically by resampling — expiry is a cost event, never a
// correctness event. Fresh records are untouched.
func TestSpillTTLWarmSweep(t *testing.T) {
	dir := t.TempDir()
	sv := newTTLServer(dir, time.Hour)
	pairs := validPairs(sv.Graph(), 4)
	want := queryAll(t, sv, pairs, 1)
	if err := sv.SpillAll(); err != nil {
		t.Fatal(err)
	}
	records := len(spillPairs(t, dir))
	if records == 0 {
		t.Fatal("SpillAll wrote nothing")
	}

	// Fresh records survive a warm start wholesale.
	warm := newTTLServer(dir, time.Hour)
	n, err := warm.Warm()
	if err != nil || n != records {
		t.Fatalf("Warm loaded %d of %d fresh records (err %v)", n, records, err)
	}
	if st := warm.Stats(); st.SpillFilesExpired != 0 {
		t.Fatalf("fresh records expired: %+v", st)
	}

	// Two hours on, past the TTL, the same log warms nothing: expiry
	// drops every record before the admission walk, and the ledger says
	// so.
	cold := newTTLServer(dir, time.Hour)
	shiftClock(cold, 2*time.Hour)
	n, err = cold.Warm()
	if err != nil || n != 0 {
		t.Fatalf("Warm loaded %d expired records (err %v)", n, err)
	}
	if st := cold.Stats(); st.SpillFilesExpired != int64(records) {
		t.Fatalf("expired %d records, ledger says %d", records, st.SpillFilesExpired)
	}
	if left := cold.spill.keys(); len(left) != 0 {
		t.Fatalf("%d expired records survived: %v", len(left), left)
	}
	// Resampled answers equal the originals: pools are pure functions of
	// (Seed, s, t), so losing a snapshot costs draws, not answers.
	if got := queryAll(t, cold, pairs, 1); !reflect.DeepEqual(got, want) {
		t.Fatal("answers diverged after TTL expiry forced a resample")
	}
}

// TestSpillTTLDeltaSweep: ApplyDelta expires records on its way out,
// and expiry only ever drops records of the log: files that are not its
// segments are not its to delete.
func TestSpillTTLDeltaSweep(t *testing.T) {
	dir := t.TempDir()
	sv := newTTLServer(dir, time.Hour)
	pairs := validPairs(sv.Graph(), 4)
	queryAll(t, sv, pairs, 1)
	if err := sv.SpillAll(); err != nil {
		t.Fatal(err)
	}
	if len(sv.spill.keys()) == 0 {
		t.Fatal("SpillAll wrote nothing")
	}
	foreign := filepath.Join(dir, "not-a-snapshot.txt")
	if err := os.WriteFile(foreign, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	shiftClock(sv, 2*time.Hour)

	g := sv.Graph()
	a := graph.Node(0)
	b := graph.Node(g.NumNodes() - 1)
	if g.HasEdge(a, b) {
		t.Fatal("test graph grew an inconvenient edge")
	}
	if _, err := sv.ApplyDelta(context.Background(), &graph.Delta{Add: []graph.Edge{{U: a, V: b}}}, nil); err != nil {
		t.Fatal(err)
	}
	if st := sv.Stats(); st.SpillFilesExpired == 0 {
		t.Fatalf("delta expired nothing: %+v", st)
	}
	if left := sv.spill.keys(); len(left) != 0 {
		t.Fatalf("expired records survived the delta: %v", left)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Errorf("foreign file deleted: %v", err)
	}
}

// TestSpillTTLDisabled: SpillTTL = 0 (the default) never expires
// anything, however old.
func TestSpillTTLDisabled(t *testing.T) {
	dir := t.TempDir()
	sv := newTTLServer(dir, 0)
	pairs := validPairs(sv.Graph(), 2)
	queryAll(t, sv, pairs[:1], 1)
	if err := sv.SpillAll(); err != nil {
		t.Fatal(err)
	}
	records := len(spillPairs(t, dir))
	warm := newTTLServer(dir, 0)
	shiftClock(warm, 1000*time.Hour)
	if n, err := warm.Warm(); err != nil || n != records {
		t.Fatalf("Warm loaded %d of %d (err %v)", n, records, err)
	}
	if st := warm.Stats(); st.SpillFilesExpired != 0 {
		t.Fatalf("TTL disabled but records expired: %+v", st)
	}
}
