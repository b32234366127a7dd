package core

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/ltm"
	"repro/internal/weights"
)

// restoreAllocSlack bounds what a restore allocates beyond its input's
// length: the error values and the pools' and ledger's fixed-size
// headers. A valid record's chunk tables (8 bytes per path, 4 per chunk)
// and p_max ledger (4 bytes per success) stay under the bytes the record
// spends on the same paths and successes.
const restoreAllocSlack = 4 << 10

// FuzzRestoreRecord hands arbitrary bytes to the session restore a spill
// load runs (RestoreBytes). Whatever the input, it must return an error
// or restore — never panic — and never allocate more than the input's
// length plus restoreAllocSlack: every size a header claims is checked
// against the bytes present before anything is made for it. The seeds
// are a real record (solve pool, touch, p_max, eval pool, VMAX), its
// truncations and flipped bytes across it.
func FuzzRestoreRecord(f *testing.F) {
	g := randomConnected(1, 24, 30)
	in, err := ltm.NewInstance(g, weights.NewDegree(g), 0, 23)
	if err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()
	writer := NewSession(in, 7, 1)
	if _, err := writer.RAF(ctx, Config{Alpha: 0.3, Eps: 0.1, N: 100, OverrideL: 700, MaxPmaxDraws: 100000}); err != nil {
		f.Fatal(err)
	}
	if _, err := writer.Eval().Pool(ctx, 700); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writer.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	rec := buf.Bytes()
	f.Add([]byte{})
	f.Add(bytes.Clone(rec))
	for _, n := range []int{8, 72, len(rec) / 3, len(rec) / 2, len(rec) - 40, len(rec) - 1} {
		f.Add(bytes.Clone(rec[:n]))
	}
	// Flip one byte at 16 spots spread over the record, so each section
	// has seeds failing its checksum.
	for k := 0; k < 16; k++ {
		mut := bytes.Clone(rec)
		mut[k*len(rec)/16] ^= 0x01
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// TotalAlloc is process-wide, and the fuzzing engine's own
		// goroutines allocate now and then, so a reading over the bound is
		// retried: the restore allocates the same each time, noise does not.
		limit := uint64(len(data)) + restoreAllocSlack
		got, err := uint64(math.MaxUint64), error(nil)
		for try := 0; try < 3 && got > limit; try++ {
			s := NewSession(in, 7, 1)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = s.RestoreBytes(data)
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		if !raceEnabled && got > limit {
			t.Fatalf("restoring %d bytes allocated %d (err %v)", len(data), got, err)
		}
	})
}
