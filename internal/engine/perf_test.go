package engine

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// sink defeats dead-code elimination in the allocation tests.
var sink int64

// TestStaleStreamEpochPoolSnapshotRejected: a pool blob written under an
// older draw protocol (stream epoch 0 was the retired math/rand kernel)
// must be rejected on load — by OpenSession and by Restore — and the
// resample fallback must rebuild the exact same pool.
func TestStaleStreamEpochPoolSnapshotRejected(t *testing.T) {
	in := testInstance(t)
	e := New(in)
	s := e.NewSession(7, 0)
	ctx := context.Background()
	if _, err := s.Pool(ctx, 3000); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := s.Snapshot(&want); err != nil {
		t.Fatal(err)
	}
	sp, err := snapshot.Read(bytes.NewReader(want.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sp.StreamEpoch = rng.StreamEpoch - 1
	var stale bytes.Buffer
	if err := snapshot.Write(&stale, sp); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenSession(e, bytes.NewReader(stale.Bytes()), 0); err == nil {
		t.Error("OpenSession accepted a stale stream-epoch snapshot")
	}
	fresh := New(in).NewSession(7, 0)
	if err := fresh.Restore(bytes.NewReader(stale.Bytes())); err == nil {
		t.Error("Restore accepted a stale stream-epoch snapshot")
	}
	// The serving layer's fallback after a rejected restore is plain
	// resampling; it must produce a byte-identical pool.
	if _, err := fresh.Pool(ctx, 3000); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := fresh.Snapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("resample fallback pool differs from the rejected snapshot's")
	}
}

// TestStaleStreamEpochPmaxSnapshotRejected is the p_max-ledger twin: a
// pre-epoch PmaxState is rejected by Restore and the estimator, left
// cold, resamples to the identical estimate.
func TestStaleStreamEpochPmaxSnapshotRejected(t *testing.T) {
	in := testInstance(t)
	pe := New(in).NewPmaxEstimator(7, 0)
	ctx := context.Background()
	want, err := pe.Estimate(ctx, 0.2, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pe.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.ReadPmax(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	st.StreamEpoch = rng.StreamEpoch - 1
	var stale bytes.Buffer
	if err := snapshot.WritePmax(&stale, st); err != nil {
		t.Fatal(err)
	}

	fresh := New(in).NewPmaxEstimator(7, 0)
	if err := fresh.Restore(bytes.NewReader(stale.Bytes())); err == nil {
		t.Error("pmax Restore accepted a stale stream-epoch snapshot")
	}
	if fresh.Draws() != 0 {
		t.Fatalf("rejected restore left %d draws in the ledger", fresh.Draws())
	}
	got, err := fresh.Estimate(ctx, 0.2, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("resample fallback estimate %+v differs from %+v", got, want)
	}
}

// TestSampleChunkZeroAlloc pins the steady-state sampling contract: once
// the engine's sampler and chunk-buffer pools are warm, drawing a chunk
// allocates nothing.
func TestSampleChunkZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	in := testInstance(t)
	e := New(in)
	run := func() {
		b := e.getChunkBuf()
		cp := e.sampleChunk(7, nsPool, 0, ChunkSize, b)
		sink += int64(len(cp.offsets))
		e.putChunkBuf(b, &cp, false)
	}
	run() // warm the sampler and size the chunk arrays
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("warmed sampleChunk allocates %v per run, want 0", allocs)
	}
}

// TestGroupRepairZeroAlloc pins the repair kernel: once warm, rebuilding
// a chunk — adopting some touch groups from the old chunk and re-drawing
// the others, each draw from its own stream — allocates nothing. On the
// same instance the rebuilt chunk must equal the old one exactly.
func TestGroupRepairZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	in := testInstance(t)
	e := New(in)
	old := e.sampleChunk(7, nsPool, 0, ChunkSize, e.getChunkBuf()) // its buffer stays with old
	var redraw groupSet
	for _, g := range []int64{0, 16, 17, 40, groupsPerChunk - 1} {
		redraw.add(g)
	}
	check := e.getChunkBuf()
	cp := e.drawChunk(7, nsPool, 0, ChunkSize, check, &old, &redraw)
	if !slices.Equal(cp.arena, old.arena) || !slices.Equal(cp.offsets, old.offsets) ||
		!slices.Equal(cp.drawIdx, old.drawIdx) || !touchEqual(cp.touch, old.touch) {
		t.Fatal("re-drawing groups on an unchanged instance changed the chunk")
	}
	e.putChunkBuf(check, &cp, false)
	run := func() {
		b := e.getChunkBuf()
		cp := e.drawChunk(7, nsPool, 0, ChunkSize, b, &old, &redraw)
		sink += int64(len(cp.offsets))
		e.putChunkBuf(b, &cp, false)
	}
	run() // warm the sampler and size the chunk arrays
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("warmed group repair allocates %v per run, want 0", allocs)
	}
}

// TestCoverageCountZeroAlloc pins the path scan's allocations: measuring
// one set allocates nothing, whether the length filter skips most paths
// (small) or every path is read (full), and a batch allocates only its
// result.
func TestCoverageCountZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	in := testInstance(t)
	pool, err := New(in).SamplePool(context.Background(), 50000, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if pool.NumType1() == 0 {
		t.Fatal("empty pool")
	}
	small := graph.NewNodeSetOf(pool.universe, pool.Path(0)...)
	full := graph.NewNodeSet(pool.universe)
	full.Fill()
	for _, tc := range []struct {
		name string
		set  *graph.NodeSet
	}{{"small", small}, {"full", full}} {
		t.Run(tc.name, func(t *testing.T) {
			set := tc.set
			if allocs := testing.AllocsPerRun(20, func() {
				sink += pool.CoverageCount(set)
				sink += int64(pool.EstimateF(set))
			}); allocs != 0 {
				t.Errorf("CoverageCount + EstimateF allocate %v per query, want 0", allocs)
			}
		})
	}
	t.Run("batch", func(t *testing.T) {
		sets := []*graph.NodeSet{small, full, nil, small}
		if allocs := testing.AllocsPerRun(20, func() {
			sink += int64(len(pool.EstimateFMany(sets)))
		}); allocs != 1 {
			t.Errorf("EstimateFMany allocates %v per batch, want 1 (its result)", allocs)
		}
	})
}

// TestPmaxRepeatEstimateZeroAlloc pins the refine fast path: once the
// ledger covers a request, answering it again is a pure prefix scan with
// no allocation.
func TestPmaxRepeatEstimateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	in := testInstance(t)
	pe := New(in).NewPmaxEstimator(7, 0)
	ctx := context.Background()
	if _, err := pe.Estimate(ctx, 0.2, 1000, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := pe.Estimate(ctx, 0.1, 1000, 0); err != nil { // refine
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		r, err := pe.Estimate(ctx, 0.1, 1000, 0)
		if err != nil {
			panic(err)
		}
		sink += r.Draws
	}); allocs != 0 {
		t.Errorf("ledger-covered Estimate allocates %v per call, want 0", allocs)
	}
}
