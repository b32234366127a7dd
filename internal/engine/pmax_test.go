package engine

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/ltm"
	"repro/internal/mc"
	"repro/internal/realization"
	"repro/internal/rng"
)

// TestPmaxEstimatorMatchesSequentialRule: for a request that converges
// within the first chunk, the chunked estimator must agree exactly with
// the sequential mc.StoppingRule over the same streams — group g of
// chunk 0 (GroupSize draws) reads the stream (seed, nsPmax, g), which is
// precisely what a sequential estimator drawing one by one, switching
// streams at every group boundary, would consume.
func TestPmaxEstimatorMatchesSequentialRule(t *testing.T) {
	in := mustInstance(t, line(4), 0, 3) // p_max = 1/2
	const eps, n, seed = 0.2, 10.0, 7

	sp := realization.NewSampler(in)
	var st rng.Stream
	var drawn uint64
	want, wantDraws, truncated, err := mc.StoppingRule(context.Background(), eps, n, 0, func() bool {
		if drawn%GroupSize == 0 {
			st = rng.DerivedStream(seed, nsPmax, drawn/GroupSize)
		}
		drawn++
		return sp.SampleTG(&st).Outcome == realization.Type1
	})
	if err != nil || truncated {
		t.Fatalf("sequential reference: %v (truncated %v)", err, truncated)
	}
	if wantDraws >= ChunkSize {
		t.Fatalf("reference needs %d draws; test requires convergence inside chunk 0", wantDraws)
	}

	res, err := New(in).NewPmaxEstimator(seed, 4).Estimate(context.Background(), eps, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != want || res.Draws != wantDraws || res.Truncated {
		t.Errorf("chunked = %v/%d/%v, sequential = %v/%d", res.Estimate, res.Draws, res.Truncated, want, wantDraws)
	}
	if math.Abs(res.Estimate-0.5) > 0.2 {
		t.Errorf("estimate %v far from p_max = 0.5", res.Estimate)
	}
}

// TestPmaxDeterminismAcrossWorkers: the estimate — every field of the
// result, and the ledger it leaves behind — is a pure function of the
// seed for any worker count.
func TestPmaxDeterminismAcrossWorkers(t *testing.T) {
	in := testInstance(t)
	ctx := context.Background()
	type outcome struct {
		res   PmaxResult
		draws int64
	}
	var ref outcome
	for i, workers := range []int{1, 2, 8} {
		pe := New(in).NewPmaxEstimator(11, workers)
		res, err := pe.Estimate(ctx, 0.1, 1000, 0)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := outcome{res: res, draws: pe.Draws()}
		if i == 0 {
			ref = got
			if res.Draws <= ChunkSize {
				t.Fatalf("stopping point %d inside one chunk; pick a tighter eps for a multi-chunk test", res.Draws)
			}
			continue
		}
		if got != ref {
			t.Errorf("workers=%d diverged: %+v vs %+v", workers, got, ref)
		}
	}
}

// TestPmaxRefineMatchesCold is the resumability contract: refining a
// coarse estimate (ε₀ = 0.3) to a tight one (ε₀ = 0.1) reuses every draw
// the coarse pass sampled, and the refined estimate is identical — in
// every field — to a cold estimate at the tight accuracy. Checked for
// several worker counts.
func TestPmaxRefineMatchesCold(t *testing.T) {
	in := testInstance(t)
	ctx := context.Background()
	for _, workers := range []int{1, 2, 8} {
		engCold := New(in)
		cold, err := engCold.NewPmaxEstimator(3, workers).Estimate(ctx, 0.1, 1000, 0)
		if err != nil {
			t.Fatal(err)
		}

		engRef := New(in)
		pe := engRef.NewPmaxEstimator(3, workers)
		coarse, err := pe.Estimate(ctx, 0.3, 1000, 0)
		if err != nil {
			t.Fatal(err)
		}
		ledgerAfterCoarse := pe.Draws()
		refined, err := pe.Estimate(ctx, 0.1, 1000, 0)
		if err != nil {
			t.Fatal(err)
		}

		if refined.Estimate != cold.Estimate || refined.Draws != cold.Draws || refined.Truncated != cold.Truncated {
			t.Errorf("workers=%d: refined %+v != cold %+v", workers, refined, cold)
		}
		if coarse.Draws >= refined.Draws {
			t.Errorf("workers=%d: coarse stopping point %d not before refined %d", workers, coarse.Draws, refined.Draws)
		}
		// All prior draws are reused...
		if refined.Reused != ledgerAfterCoarse {
			t.Errorf("workers=%d: refined reused %d draws, want the whole coarse ledger %d",
				workers, refined.Reused, ledgerAfterCoarse)
		}
		// ...so the refinement samples strictly less than the cold run,
		// asserted on the engines' draw ledgers.
		if refined.Sampled >= cold.Sampled {
			t.Errorf("workers=%d: refine sampled %d draws, cold sampled %d — no reuse",
				workers, refined.Sampled, cold.Sampled)
		}
		if engRef.PmaxDraws() != pe.Draws() {
			t.Errorf("workers=%d: engine ledger %d != estimator ledger %d (regrow double-counted?)",
				workers, engRef.PmaxDraws(), pe.Draws())
		}
		if got, want := engRef.PmaxDraws(), engCold.PmaxDraws(); got != want {
			t.Errorf("workers=%d: staged ledger %d != cold ledger %d (schedules diverged)", workers, got, want)
		}
	}
}

// TestPmaxTruncationBoundary pins the budget semantics the sequential
// rule's callers used to get wrong: a budget equal to the exact
// convergence point converges (not truncated, same estimate), one draw
// less is a genuine truncation returning the plain mean over the budget.
func TestPmaxTruncationBoundary(t *testing.T) {
	in := testInstance(t)
	ctx := context.Background()
	free, err := New(in).NewPmaxEstimator(5, 2).Estimate(ctx, 0.2, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := free.Draws

	exact, err := New(in).NewPmaxEstimator(5, 2).Estimate(ctx, 0.2, 100, d)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Truncated || exact.Estimate != free.Estimate || exact.Draws != d {
		t.Errorf("budget %d (= convergence) mismarked: %+v, want %+v", d, exact, free)
	}

	short, err := New(in).NewPmaxEstimator(5, 2).Estimate(ctx, 0.2, 100, d-1)
	if err != nil {
		t.Fatal(err)
	}
	if !short.Truncated || short.Draws != d-1 {
		t.Errorf("budget %d (one short): %+v, want truncated at %d draws", d-1, short, d-1)
	}

	// A truncated request against a ledger that already extends past the
	// budget (from the unbounded run) must use exactly the budgeted
	// prefix, matching the fresh estimator's answer.
	pe := New(in).NewPmaxEstimator(5, 2)
	if _, err := pe.Estimate(ctx, 0.2, 100, 0); err != nil {
		t.Fatal(err)
	}
	again, err := pe.Estimate(ctx, 0.2, 100, d-1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Estimate != short.Estimate || again.Draws != short.Draws || !again.Truncated {
		t.Errorf("truncated answer from an over-full ledger %+v != fresh %+v", again, short)
	}
	if again.Sampled != 0 {
		t.Errorf("over-full ledger sampled %d new draws for a within-ledger request", again.Sampled)
	}
}

// TestPmaxZeroSuccesses: a disconnected target exhausts its budget with
// zero successes and reports mc.ErrZeroEstimate.
func TestPmaxZeroSuccesses(t *testing.T) {
	in := disconnectedInstance(t)
	res, err := New(in).NewPmaxEstimator(1, 2).Estimate(context.Background(), 0.1, 100, 3000)
	if !errors.Is(err, mc.ErrZeroEstimate) {
		t.Fatalf("err = %v, want ErrZeroEstimate", err)
	}
	if res.Draws != 3000 || !res.Truncated {
		t.Errorf("zero-success result %+v, want the full 3000-draw budget, truncated", res)
	}
}

// TestPmaxAstronomicalThreshold: an eps tiny enough to push Υ past the
// engine's total draw capacity (Υ overflows int64; the float→int64
// conversion is implementation-defined) must not panic: with a budget it
// degrades to the sequential rule's budget-truncated plain mean, and
// unbounded it is rejected up front as a bad parameter.
func TestPmaxAstronomicalThreshold(t *testing.T) {
	in := mustInstance(t, line(4), 0, 3)
	ctx := context.Background()
	res, err := New(in).NewPmaxEstimator(3, 2).Estimate(ctx, 1e-9, 1e5, 10000)
	if err != nil {
		t.Fatalf("budgeted astronomical eps: %v", err)
	}
	if !res.Truncated || res.Draws != 10000 || math.Abs(res.Estimate-0.5) > 0.05 {
		t.Errorf("budgeted astronomical eps: %+v, want truncated plain mean ~0.5 over 10000 draws", res)
	}
	if _, err := New(in).NewPmaxEstimator(3, 2).Estimate(ctx, 1e-9, 1e5, 0); !errors.Is(err, mc.ErrBadParam) {
		t.Errorf("unbounded astronomical eps: err = %v, want ErrBadParam", err)
	}
}

func TestPmaxEstimateValidation(t *testing.T) {
	pe := New(testInstance(t)).NewPmaxEstimator(1, 1)
	ctx := context.Background()
	for _, c := range []struct {
		eps, n float64
		budget int64
	}{
		{0, 100, 0}, {1, 100, 0}, {0.1, 1, 0}, {0.1, 100, -5},
	} {
		if _, err := pe.Estimate(ctx, c.eps, c.n, c.budget); !errors.Is(err, mc.ErrBadParam) {
			t.Errorf("Estimate(%v,%v,%d): err = %v, want ErrBadParam", c.eps, c.n, c.budget, err)
		}
	}
	ctxc, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := pe.Estimate(ctxc, 0.1, 100, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled: err = %v", err)
	}
}

// TestPmaxSnapshotRoundTrip: snapshot → restore reproduces the ledger
// exactly, charges nothing to the engine's draw ledger, and a refinement
// after the restore continues identically to one on the original.
func TestPmaxSnapshotRoundTrip(t *testing.T) {
	in := testInstance(t)
	ctx := context.Background()
	eng := New(in)
	pe := eng.NewPmaxEstimator(9, 4)
	coarse, err := pe.Estimate(ctx, 0.25, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pe.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	eng2 := New(in)
	pe2 := eng2.NewPmaxEstimator(9, 1)
	if err := pe2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if eng2.PmaxDraws() != 0 || eng2.Draws() != 0 {
		t.Errorf("restore charged %d draws to the engine ledger", eng2.Draws())
	}
	if pe2.Draws() != pe.Draws() || pe2.Successes() != pe.Successes() {
		t.Errorf("restored ledger %d/%d, want %d/%d", pe2.Draws(), pe2.Successes(), pe.Draws(), pe.Successes())
	}
	// Same request: answered from the ledger with zero sampling.
	re, err := pe2.Estimate(ctx, 0.25, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if re.Estimate != coarse.Estimate || re.Draws != coarse.Draws || re.Sampled != 0 {
		t.Errorf("restored answer %+v, want %+v with 0 sampled", re, coarse)
	}
	// Refinement past the snapshotted size matches the original's.
	want, err := pe.Estimate(ctx, 0.1, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pe2.Estimate(ctx, 0.1, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("post-restore refinement %+v != original %+v", got, want)
	}
}

// TestPmaxSnapshotEmpty: a never-sampled estimator writes a valid empty
// snapshot that restores to a cold estimator.
func TestPmaxSnapshotEmpty(t *testing.T) {
	in := testInstance(t)
	eng := New(in)
	var buf bytes.Buffer
	if err := eng.NewPmaxEstimator(3, 1).Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	pe := eng.NewPmaxEstimator(3, 1)
	if err := pe.Restore(bufio.NewReader(bytes.NewReader(buf.Bytes()))); err != nil {
		t.Fatal(err)
	}
	if pe.Draws() != 0 {
		t.Errorf("empty snapshot restored %d draws", pe.Draws())
	}
}

// TestPmaxSnapshotMismatchFallsBackCold: restoring a snapshot with the
// wrong stream identity or instance fingerprint errors without adopting
// any state, and the estimator then resamples with answers identical to
// a clean cold run — the mismatch is a latency event, not a correctness
// event.
func TestPmaxSnapshotMismatchFallsBackCold(t *testing.T) {
	in := testInstance(t)
	ctx := context.Background()
	eng := New(in)
	writer := eng.NewPmaxEstimator(9, 2)
	if _, err := writer.Estimate(ctx, 0.3, 100, 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writer.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Wrong seed.
	pe := eng.NewPmaxEstimator(10, 2)
	if err := pe.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("seed-mismatched snapshot adopted")
	}
	if pe.Draws() != 0 {
		t.Fatalf("mismatch left %d draws behind", pe.Draws())
	}
	clean, err := eng.NewPmaxEstimator(10, 2).Estimate(ctx, 0.3, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := pe.Estimate(ctx, 0.3, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cold != clean {
		t.Errorf("post-mismatch estimate %+v != clean cold %+v", cold, clean)
	}

	// Wrong instance: same seed, different graph.
	other := New(mustInstance(t, randomConnected(8, 30, 40), 0, 29))
	pe2 := other.NewPmaxEstimator(9, 2)
	if err := pe2.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("fingerprint-mismatched snapshot adopted")
	}

	// Restoring into a warm estimator is refused.
	if err := writer.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("restore into a warm estimator accepted")
	}
}

// disconnectedInstance returns an instance whose target is unreachable
// from the initiator (p_max = 0).
func disconnectedInstance(t *testing.T) *ltm.Instance {
	t.Helper()
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(3, 4)
	return mustInstance(t, b.Build(), 0, 4)
}

// TestPmaxGrowthLadder pins the growth schedule's contract: rungs are a
// pure function of ledger size (request-independent — this is what keeps
// staged and cold ledgers byte-identical), chunk-aligned, strictly
// increasing, and capped near 1.25× so the oversample past the stopping
// draw stays small.
func TestPmaxGrowthLadder(t *testing.T) {
	if got := pmaxNextTarget(0); got != pmaxInitialDraws {
		t.Fatalf("cold rung = %d, want %d", got, pmaxInitialDraws)
	}
	draws := int64(0)
	for rung := 0; rung < 60; rung++ {
		next := pmaxNextTarget(draws)
		if next%ChunkSize != 0 {
			t.Fatalf("rung %d: target %d not chunk-aligned", rung, next)
		}
		if next <= draws {
			t.Fatalf("rung %d: target %d does not grow past %d", rung, next, draws)
		}
		if draws >= 8*ChunkSize {
			if ratio := float64(next) / float64(draws); ratio > 1.5 {
				t.Fatalf("rung %d: growth ratio %.2f too aggressive (%d -> %d)", rung, ratio, draws, next)
			}
		}
		draws = next
	}
	// Sixty rungs of ~1.25× growth still reach billions of draws — the
	// finer ladder trades at most a constant factor of rung count.
	if draws < int64(1)<<31 {
		t.Fatalf("ladder stalled: 60 rungs reach only %d draws", draws)
	}
}
