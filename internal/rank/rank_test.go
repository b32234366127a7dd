package rank

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/parallel"
)

// each builds a Scorer that scores a round's candidates one by one
// through f, spread over workers goroutines.
func each(workers int, f func(ctx context.Context, i int, effort int64) (float64, error)) Scorer {
	return func(ctx context.Context, cands []int, effort int64) ([]float64, []error) {
		scores, errs := make([]float64, len(cands)), make([]error, len(cands))
		// Run checks ctx itself after each round.
		_ = parallel.For(ctx, len(cands), workers, func(j int) {
			scores[j], errs[j] = f(ctx, cands[j], effort)
		})
		return scores, errs
	}
}

// deterministicScore is a synthetic pure scorer: monotone in a
// per-candidate "true" quality, with an effort-dependent wobble so
// low-effort rounds can misrank near-ties (as real Monte-Carlo scores
// do), converging as effort grows.
func deterministicScore(i int, effort int64) float64 {
	truth := float64(1000 - i)
	wobble := math.Sin(float64(i)*12.9898+float64(effort)*0.0001) * 50.0 / math.Sqrt(float64(effort))
	return truth + wobble
}

func TestPlanExhaustive(t *testing.T) {
	for _, maxDraws := range []int64{0, 64 * 2 * 16384, 1 << 40} {
		p, err := NewPlan(Config{Candidates: 64, K: 4, FullEffort: 16384, MaxDraws: maxDraws})
		if err != nil {
			t.Fatal(err)
		}
		if !p.Exhaustive || len(p.Rounds) != 1 || p.Rounds[0].Effort != 16384 || p.Rounds[0].Survivors != 64 {
			t.Fatalf("maxDraws=%d: want single exhaustive round, got %+v", maxDraws, p)
		}
		if p.Cost != 64*2*16384 || p.Truncated {
			t.Fatalf("maxDraws=%d: bad cost/truncation: %+v", maxDraws, p)
		}
	}
	// k >= n also degenerates to exhaustive even under a tight budget.
	p, err := NewPlan(Config{Candidates: 8, K: 8, FullEffort: 4096, MaxDraws: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Exhaustive {
		t.Fatalf("k=n: want exhaustive, got %+v", p)
	}
}

func TestPlanHalvingShape(t *testing.T) {
	p, err := NewPlan(Config{Candidates: 64, K: 4, FullEffort: 16384, MaxDraws: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	wantSurv := []int{64, 32, 16, 8, 4}
	wantEff := []int64{2048, 2048, 4096, 8192, 16384} // first rungs floored at DefaultMinEffort
	if len(p.Rounds) != len(wantSurv) {
		t.Fatalf("rounds: %+v", p.Rounds)
	}
	for i, r := range p.Rounds {
		if r.Survivors != wantSurv[i] || r.Effort != wantEff[i] {
			t.Fatalf("round %d = %+v, want {%d %d}", i, r, wantEff[i], wantSurv[i])
		}
	}
	if p.Exhaustive || p.Truncated {
		t.Fatalf("unexpected flags: %+v", p)
	}
	if p.ExhaustiveCost != 64*2*16384 {
		t.Fatalf("exhaustive cost %d", p.ExhaustiveCost)
	}
	if p.Cost*3 > p.ExhaustiveCost {
		t.Fatalf("halving plan saves less than 3x: %d vs %d", p.Cost, p.ExhaustiveCost)
	}
	if p.Cost > 1<<20 {
		t.Fatalf("plan cost %d exceeds budget", p.Cost)
	}
}

func TestPlanBudgetFit(t *testing.T) {
	// A budget below the natural halving bill halves rungs until it fits;
	// the final rung then sits below FullEffort and the plan says so.
	p, err := NewPlan(Config{Candidates: 32, K: 2, FullEffort: 16384, MaxDraws: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost > 100_000 {
		t.Fatalf("fitted cost %d exceeds budget", p.Cost)
	}
	if !p.Truncated {
		t.Fatalf("want truncated plan, got %+v", p)
	}
	last := p.Rounds[len(p.Rounds)-1]
	if last.Effort >= 16384 || last.Survivors != 2 {
		t.Fatalf("last round %+v", last)
	}
	// Monotone rungs survive the fitting.
	for i := 1; i < len(p.Rounds); i++ {
		if p.Rounds[i].Effort < p.Rounds[i-1].Effort {
			t.Fatalf("rungs not monotone: %+v", p.Rounds)
		}
	}
}

func TestPlanValidation(t *testing.T) {
	bad := []Config{
		{Candidates: 0, K: 1, FullEffort: 10},
		{Candidates: 4, K: 0, FullEffort: 10},
		{Candidates: 4, K: 1, FullEffort: 0},
		{Candidates: 4, K: 1, FullEffort: 10, MaxDraws: -1},
	}
	for i, cfg := range bad {
		if _, err := NewPlan(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	var base *Result
	for _, workers := range []int{1, 2, 8} {
		cfg := Config{Candidates: 50, K: 5, FullEffort: 8192, MaxDraws: 200_000}
		res, err := Run(context.Background(), cfg, each(workers, func(_ context.Context, i int, effort int64) (float64, error) {
			return deterministicScore(i, effort), nil
		}))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(res, base) {
			t.Fatalf("workers=%d: result diverged\n%+v\nvs\n%+v", workers, res, base)
		}
	}
}

func TestRunFindsTopK(t *testing.T) {
	// With a wide quality gap, the schedule must surface the true top k.
	cfg := Config{Candidates: 64, K: 4, FullEffort: 16384, MaxDraws: 1 << 20}
	res, err := Run(context.Background(), cfg, each(0, func(_ context.Context, i int, effort int64) (float64, error) {
		return deterministicScore(i, effort), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranked) != 64 {
		t.Fatalf("ranked %d of 64", len(res.Ranked))
	}
	got := append([]int{}, res.Ranked[:4]...)
	for _, want := range []int{0, 1, 2, 3} {
		found := false
		for _, g := range got {
			if g == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("true top-4 candidate %d missing from winners %v", want, got)
		}
	}
	for _, ci := range res.Ranked[:4] {
		c := res.Candidates[ci]
		if c.Frozen || c.Effort != 16384 {
			t.Fatalf("winner %d not at full effort: %+v", ci, c)
		}
	}
	// Every index appears exactly once in the ranking.
	seen := make(map[int]bool)
	for _, ci := range res.Ranked {
		if seen[ci] {
			t.Fatalf("index %d ranked twice", ci)
		}
		seen[ci] = true
	}
}

func TestRunExhaustiveMatchesIndependentCalls(t *testing.T) {
	// Full budget: every candidate scored once, at full effort, score
	// identical to a direct call — the byte-identity contract the server
	// builds on.
	n := 16
	cfg := Config{Candidates: n, K: 3, FullEffort: 4096}
	res, err := Run(context.Background(), cfg, each(0, func(_ context.Context, i int, effort int64) (float64, error) {
		return deterministicScore(i, effort), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.Exhaustive || res.Rounds != 1 {
		t.Fatalf("want one exhaustive round, got %+v", res.Plan)
	}
	for i, c := range res.Candidates {
		want := deterministicScore(i, 4096)
		if c.Score != want || c.Effort != 4096 || c.Rounds != 1 || c.Frozen {
			t.Fatalf("candidate %d: %+v want score %v", i, c, want)
		}
	}
}

func TestRunErrorFreezesCandidate(t *testing.T) {
	boom := errors.New("unreachable target")
	cfg := Config{Candidates: 8, K: 2, FullEffort: 4096, MaxDraws: 40_000}
	res, err := Run(context.Background(), cfg, each(0, func(_ context.Context, i int, effort int64) (float64, error) {
		if i == 3 {
			return 0, fmt.Errorf("candidate 3: %w", boom)
		}
		return deterministicScore(i, effort), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Candidates[3]
	if !c.Frozen || !errors.Is(c.Err, boom) {
		t.Fatalf("errored candidate not frozen with cause: %+v", c)
	}
	for _, ci := range res.Ranked[:2] {
		if ci == 3 {
			t.Fatalf("errored candidate ranked as winner")
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Config{Candidates: 4, K: 1, FullEffort: 1024}, each(0, func(ctx context.Context, i int, effort int64) (float64, error) {
		return 0, ctx.Err()
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context error, got %v", err)
	}
}
