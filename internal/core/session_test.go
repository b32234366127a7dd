package core

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ltm"
	"repro/internal/mc"
	"repro/internal/snapshot"
)

// sessionTestInstance returns a random instance with a comfortably
// positive p_max. Its pair (0, 23) is not adjacent; ltm.NewInstance
// rejects an adjacent pair, so a fixture change that made it adjacent
// fails every test using it instead of skipping them.
func sessionTestInstance(t *testing.T) *ltm.Instance {
	t.Helper()
	return mustInstance(t, randomConnected(1, 24, 30), 0, 23)
}

// TestSessionAlphaSweepSamplesPoolOnce is the Session's headline
// guarantee: an α-sweep at a fixed pool size draws the realization pool
// exactly once, verified by counting sampler invocations on the engine.
func TestSessionAlphaSweepSamplesPoolOnce(t *testing.T) {
	in := sessionTestInstance(t)
	ctx := context.Background()
	sess := NewSession(in, 5, 4)
	cfg := Config{
		Eps: 0.01, N: 1000, OverrideL: 10000, MaxPmaxDraws: 500000,
	}
	var afterFirst int64
	for i, alpha := range []float64{0.05, 0.1, 0.2, 0.35} {
		cfg.Alpha = alpha
		res, err := sess.RAF(ctx, cfg)
		if err != nil {
			t.Fatalf("alpha=%v: %v", alpha, err)
		}
		if res.LUsed != 10000 {
			t.Errorf("alpha=%v: LUsed = %d, want 10000", alpha, res.LUsed)
		}
		if i == 0 {
			afterFirst = sess.Engine().PoolDraws()
			if afterFirst != 10000 {
				t.Errorf("first solve drew %d pool samples, want 10000", afterFirst)
			}
		} else if got := sess.Engine().PoolDraws(); got != afterFirst {
			t.Errorf("alpha=%v resampled the pool: draws %d → %d", alpha, afterFirst, got)
		}
	}
}

// TestSessionMatchesOneShotRAF: a solve on a session that has already
// served other queries — a larger pool, a tighter p_max estimate —
// equals a one-shot solve on a fresh session with the same seed, so the
// one-shot path needs no code of its own.
func TestSessionMatchesOneShotRAF(t *testing.T) {
	in := sessionTestInstance(t)
	ctx := context.Background()
	cfg := Config{
		Alpha: 0.3, Eps: 0.05, N: 100, Seed: 9,
		MaxRealizations: 20000, MaxPmaxDraws: 500000,
	}
	free, err := oneShotRAF(ctx, in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewSession(in, 9, 4)
	if _, err := warm.Pool(ctx, 30000); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.EstimatePmax(ctx, 0.01, 1000, 500000); err != nil {
		t.Fatal(err)
	}
	sess, err := warm.RAF(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !free.Invited.ContainsAll(sess.Invited) || !sess.Invited.ContainsAll(free.Invited) {
		t.Errorf("invited sets differ: %v vs %v", free.Invited.Members(), sess.Invited.Members())
	}
	if free.PoolType1 != sess.PoolType1 || free.Covered != sess.Covered || free.Demand != sess.Demand ||
		free.PStar != sess.PStar || free.PmaxDraws != sess.PmaxDraws {
		t.Errorf("diagnostics differ: %+v vs %+v", free, sess)
	}
}

// TestRAFWorkerCountIndependence: solve results are byte-identical across
// worker counts for a fixed seed — the engine's chunked sampling makes
// the pool, and hence the greedy solve, independent of parallelism.
func TestRAFWorkerCountIndependence(t *testing.T) {
	in := sessionTestInstance(t)
	ctx := context.Background()
	base := Config{
		Alpha: 0.3, Eps: 0.05, N: 100, Seed: 21,
		MaxRealizations: 20000, MaxPmaxDraws: 500000, Workers: 1,
	}
	ref, err := oneShotRAF(ctx, in, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		cfg := base
		cfg.Workers = workers
		res, err := oneShotRAF(ctx, in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Invited.ContainsAll(res.Invited) || !res.Invited.ContainsAll(ref.Invited) {
			t.Errorf("workers=%d: invited %v, want %v", workers, res.Invited.Members(), ref.Invited.Members())
		}
		if res.PoolType1 != ref.PoolType1 || res.Covered != ref.Covered ||
			res.Demand != ref.Demand || res.PStar != ref.PStar || res.LUsed != ref.LUsed {
			t.Errorf("workers=%d: diagnostics differ: %+v vs %+v", workers, res, ref)
		}
	}
}

// TestDemandSurfacedFromSolution: Result.Demand equals ⌈β·|B_l¹|⌉ as
// computed once inside the framework and carried via the set-cover
// solution.
func TestDemandSurfacedFromSolution(t *testing.T) {
	in := sessionTestInstance(t)
	res, err := oneShotRAF(context.Background(), in, Config{
		Alpha: 0.3, Eps: 0.05, N: 100, Seed: 3,
		MaxRealizations: 10000, MaxPmaxDraws: 500000,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Ceil(res.Params.Beta * float64(res.PoolType1)))
	if want < 1 {
		want = 1
	}
	if res.Demand != want {
		t.Errorf("Demand = %d, want %d", res.Demand, want)
	}
	if res.Covered < res.Demand {
		t.Errorf("Covered %d below demand %d", res.Covered, res.Demand)
	}
}

// TestSessionPoolGrowthAcrossAlphas: with theoretical sizing capped at
// different MaxRealizations, a later larger request grows the cached pool
// rather than resampling it.
func TestSessionPoolGrowthAcrossAlphas(t *testing.T) {
	in := sessionTestInstance(t)
	ctx := context.Background()
	sess := NewSession(in, 7, 2)
	cfg := Config{Alpha: 0.3, Eps: 0.05, N: 100, MaxPmaxDraws: 500000}

	cfg.OverrideL = 5000
	if _, err := sess.RAF(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	drawsSmall := sess.Engine().PoolDraws()
	cfg.OverrideL = 15000
	res, err := sess.RAF(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LUsed != 15000 {
		t.Errorf("LUsed = %d, want 15000", res.LUsed)
	}
	grown := sess.Engine().PoolDraws() - drawsSmall
	// Growth resamples at most the trailing partial chunk on top of the
	// missing 10000 draws.
	if grown > 10000+2048 {
		t.Errorf("growth drew %d samples, want ≤ %d", grown, 10000+2048)
	}
}

// TestSessionPmaxTruncatedNotReused: a p_max estimate cut short by its
// draw cap must not satisfy a later solve with a larger budget — the
// cached estimate never reached its nominal accuracy.
func TestSessionPmaxTruncatedNotReused(t *testing.T) {
	in := sessionTestInstance(t)
	ctx := context.Background()
	sess := NewSession(in, 5, 2)
	cfg := Config{Alpha: 0.3, Eps: 0.05, N: 100, OverrideL: 2000}

	cfg.MaxPmaxDraws = 50 // far below the stopping-rule threshold
	first, err := sess.RAF(ctx, cfg)
	if err != nil {
		t.Fatalf("tiny budget found no successes: %v", err)
	}
	if first.PmaxDraws != 50 {
		t.Fatalf("PmaxDraws = %d, want truncation at 50", first.PmaxDraws)
	}
	cfg.MaxPmaxDraws = 500000
	second, err := sess.RAF(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.PmaxDraws <= 50 {
		t.Errorf("truncated estimate reused: PmaxDraws = %d", second.PmaxDraws)
	}
	// And now that the rule converged, an equal-budget solve does reuse it.
	third, err := sess.RAF(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if third.PmaxDraws != second.PmaxDraws || third.PStar != second.PStar {
		t.Errorf("converged estimate not reused: %v/%d vs %v/%d",
			third.PStar, third.PmaxDraws, second.PStar, second.PmaxDraws)
	}
}

// TestSessionPmaxRefinementReusesDraws: a solve needing a tighter ε₀
// (here: a larger α tightens ε₀ through the equation system is not
// guaranteed, so the estimator is driven directly) extends the session's
// existing stopping-rule draw sequence instead of restarting, and the
// refined estimate is identical to a cold session's estimate at the
// tight accuracy.
func TestSessionPmaxRefinementReusesDraws(t *testing.T) {
	in := sessionTestInstance(t)
	ctx := context.Background()

	cold := NewSession(in, 5, 4)
	coldRes, err := cold.EstimatePmax(ctx, 0.1, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}

	staged := NewSession(in, 5, 1)
	coarse, err := staged.EstimatePmax(ctx, 0.3, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := staged.EstimatePmax(ctx, 0.1, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if refined.Estimate != coldRes.Estimate || refined.Draws != coldRes.Draws {
		t.Errorf("refined %v/%d != cold %v/%d", refined.Estimate, refined.Draws, coldRes.Estimate, coldRes.Draws)
	}
	if refined.Reused == 0 || refined.Reused < coarse.Draws {
		t.Errorf("refinement reused %d draws, want at least the coarse pass's %d", refined.Reused, coarse.Draws)
	}
	if refined.Sampled >= coldRes.Sampled {
		t.Errorf("refinement sampled %d draws, cold sampled %d — prior draws were thrown away",
			refined.Sampled, coldRes.Sampled)
	}
	// RAF's step 2 runs through the same ledger: a solve after the tight
	// estimate samples nothing new for p_max.
	before := staged.Engine().PmaxDraws()
	res, err := staged.RAF(ctx, Config{Alpha: 0.3, Eps: 0.05, N: 100, OverrideL: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if got := staged.Engine().PmaxDraws(); got != before && res.PmaxReused == 0 {
		t.Errorf("post-estimate solve resampled p_max draws: ledger %d → %d, reused %d", before, got, res.PmaxReused)
	}
}

// TestSessionSnapshotCarriesPmaxState: Snapshot/Restore round-trips the
// estimator ledger alongside the pool, so a restored session's solve
// reuses the stopping-rule draws; a seed-mismatched snapshot leaves the
// whole session cold with identical answers.
func TestSessionSnapshotCarriesPmaxState(t *testing.T) {
	in := sessionTestInstance(t)
	ctx := context.Background()
	cfg := Config{Alpha: 0.3, Eps: 0.05, N: 100, OverrideL: 3000, MaxPmaxDraws: 500000}

	writer := NewSession(in, 7, 2)
	want, err := writer.RAF(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writer.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	loaded := NewSession(in, 7, 4)
	if err := loaded.Restore(bufio.NewReader(bytes.NewReader(buf.Bytes()))); err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.PmaxEstimator().Draws(), writer.PmaxEstimator().Draws(); got != want {
		t.Fatalf("restored estimator ledger %d, want %d", got, want)
	}
	if got := loaded.Engine().PmaxDraws(); got != 0 {
		t.Errorf("restore charged %d p_max draws to the engine ledger", got)
	}
	got, err := loaded.RAF(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.PStar != want.PStar || got.PmaxDraws != want.PmaxDraws {
		t.Errorf("restored solve p* = %v/%d, want %v/%d", got.PStar, got.PmaxDraws, want.PStar, want.PmaxDraws)
	}
	if got.PmaxReused != got.PmaxDraws {
		t.Errorf("restored solve reused %d of %d p_max draws, want all of them", got.PmaxReused, got.PmaxDraws)
	}
	if loaded.Engine().PmaxDraws() != 0 {
		t.Errorf("restored solve sampled %d p_max draws despite the warm ledger", loaded.Engine().PmaxDraws())
	}

	// Mismatched identity: the restore fails, the session stays cold, and
	// answers still match — resampling is the fallback, not a failure.
	mismatched := NewSession(in, 8, 2)
	if err := mismatched.Restore(bufio.NewReader(bytes.NewReader(buf.Bytes()))); err == nil {
		t.Fatal("seed-mismatched snapshot adopted")
	}
	if mismatched.PoolSize() != 0 || mismatched.PmaxEstimator().Draws() != 0 {
		t.Fatal("mismatched restore left state behind")
	}
	reference, err := NewSession(in, 8, 2).RAF(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldAgain, err := mismatched.RAF(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if coldAgain.PStar != reference.PStar || coldAgain.PmaxDraws != reference.PmaxDraws {
		t.Errorf("post-mismatch solve diverged: %v/%d vs %v/%d",
			coldAgain.PStar, coldAgain.PmaxDraws, reference.PStar, reference.PmaxDraws)
	}
}

// TestSessionSnapshotCarriesEvalPool: the evaluation pool rides in the
// same snapshot as the solve pool and the p_max ledger, a restored
// session answers EstimateF identically without sampling, and a corrupt
// or missing evaluation section fails the restore.
func TestSessionSnapshotCarriesEvalPool(t *testing.T) {
	in := sessionTestInstance(t)
	ctx := context.Background()
	const trials = 4000

	writer := NewSession(in, 7, 2)
	res, err := writer.RAF(ctx, Config{Alpha: 0.3, Eps: 0.05, N: 100, OverrideL: 3000, MaxPmaxDraws: 500000})
	if err != nil {
		t.Fatal(err)
	}
	all := graph.NewNodeSet(in.Graph().NumNodes())
	all.Fill()
	sets := []*graph.NodeSet{res.Invited, all}
	want, err := writer.Eval().EstimateFMany(ctx, sets, trials)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writer.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	for name, r := range map[string]func() io.Reader{
		"bufio": func() io.Reader { return bufio.NewReader(bytes.NewReader(data)) },
		"plain": func() io.Reader { return bytes.NewReader(data) },
	} {
		loaded := NewSession(in, 7, 4)
		if err := loaded.Restore(r()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := loaded.Eval().Size(); got != trials {
			t.Fatalf("%s: restored eval pool holds %d draws, want %d", name, got, trials)
		}
		if got, want := loaded.HeldDraws(), writer.HeldDraws(); got != want {
			t.Errorf("%s: HeldDraws = %d, want %d", name, got, want)
		}
		for i, set := range sets {
			f, err := loaded.Eval().EstimateF(ctx, set, trials)
			if err != nil {
				t.Fatal(err)
			}
			if f != want[i] {
				t.Errorf("%s: set %d: restored EstimateF %v, want %v", name, i, f, want[i])
			}
		}
		if got := loaded.Engine().Draws(); got != 0 {
			t.Errorf("%s: restored session sampled %d draws", name, got)
		}
	}

	// The evaluation section is the last pool: corrupting its checksum
	// footer, which ends just before the 40-byte VMAX section the RAF
	// above made the snapshot carry, or cutting the section off fails the
	// whole restore.
	if !writer.VmaxKnown() {
		t.Fatal("RAF at α < 1 left |V_max| unknown")
	}
	corrupt := bytes.Clone(data)
	corrupt[len(corrupt)-40-8] ^= 0xff
	if err := NewSession(in, 7, 2).Restore(bufio.NewReader(bytes.NewReader(corrupt))); !errors.Is(err, snapshot.ErrChecksum) {
		t.Errorf("corrupt eval section: err = %v, want ErrChecksum", err)
	}
	var solveAndPmax bytes.Buffer
	if err := writer.pools.Snapshot(&solveAndPmax); err != nil {
		t.Fatal(err)
	}
	if err := writer.pmax.Snapshot(&solveAndPmax); err != nil {
		t.Fatal(err)
	}
	if err := NewSession(in, 7, 2).Restore(bufio.NewReader(&solveAndPmax)); err == nil {
		t.Error("snapshot without an eval section restored")
	}
}

// TestSessionPmaxConcurrentEstimates hammers one session's estimator
// from many goroutines at mixed accuracies (alongside RAF solves that
// share the ledger): run under -race in CI. Every answer must equal the
// sequential answer at its accuracy — concurrency is a scheduling event,
// never a correctness one.
func TestSessionPmaxConcurrentEstimates(t *testing.T) {
	in := sessionTestInstance(t)
	ctx := context.Background()
	epss := []float64{0.3, 0.2, 0.15, 0.1}

	ref := NewSession(in, 5, 2)
	want := make(map[float64][2]float64)
	for _, eps := range epss {
		res, err := ref.EstimatePmax(ctx, eps, 1000, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[eps] = [2]float64{res.Estimate, float64(res.Draws)}
	}

	sess := NewSession(in, 5, 2)
	var wg sync.WaitGroup
	errs := make(chan error, 3*len(epss)+1)
	for round := 0; round < 3; round++ {
		for _, eps := range epss {
			wg.Add(1)
			go func(eps float64) {
				defer wg.Done()
				res, err := sess.EstimatePmax(ctx, eps, 1000, 0)
				if err != nil {
					errs <- err
					return
				}
				if got := [2]float64{res.Estimate, float64(res.Draws)}; got != want[eps] {
					errs <- fmt.Errorf("eps=%v: concurrent estimate %v, want %v", eps, got, want[eps])
				}
			}(eps)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := sess.RAF(ctx, Config{Alpha: 0.3, Eps: 0.05, N: 100, OverrideL: 2000}); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPoolSizeFromTheory: the Eq. 16 threshold must be clamped BEFORE the
// float→int64 conversion — an out-of-range conversion is
// implementation-defined in Go, and the theoretical l* routinely exceeds
// int64 when p* is tiny.
func TestPoolSizeFromTheory(t *testing.T) {
	const clamp = int64(math.MaxInt64 / 2)
	cases := []struct {
		lTheory float64
		want    int64
	}{
		{123.4, 124},
		{1, 1},
		{1e30, clamp},
		{math.MaxInt64, clamp}, // above MaxInt64/2, below MaxInt64
		{math.Inf(1), clamp},
		{math.NaN(), clamp},
	}
	for _, c := range cases {
		if got := poolSizeFromTheory(c.lTheory); got != c.want {
			t.Errorf("poolSizeFromTheory(%v) = %d, want %d", c.lTheory, got, c.want)
		}
	}
	// An astronomical threshold straight out of Eq. 16: p* = 1e-280 on a
	// 1000-dimensional union bound blows far past int64. The clamped size
	// must stay positive (a negative or wrapped l would poison sampling).
	lTheory, err := mc.RealizationThreshold(0.01, 0.01, 1e-280, 1000, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if lTheory <= math.MaxInt64 {
		t.Fatalf("lTheory = %v, expected astronomical", lTheory)
	}
	if got := poolSizeFromTheory(lTheory); got != clamp {
		t.Errorf("poolSizeFromTheory(%v) = %d, want clamp %d", lTheory, got, clamp)
	}
}

// snapshotBytes returns the session's snapshot.
func snapshotBytes(t *testing.T, s *Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoredVmaxCountSkipsDFS: a snapshot taken after an α < 1 solve
// carries |V_max|, and a session restored from it answers the same
// solves byte-identically to a cold session without building the V_max
// set, so no DFS runs. α = 1 still builds and returns the set.
func TestRestoredVmaxCountSkipsDFS(t *testing.T) {
	in := sessionTestInstance(t)
	ctx := context.Background()
	cfgs := []Config{
		{Alpha: 0.3, Eps: 0.05, N: 100, OverrideL: 2000, MaxPmaxDraws: 500000},
		{Alpha: 0.6, Eps: 0.1, N: 100, OverrideL: 1500, MaxPmaxDraws: 500000},
	}
	writer := NewSession(in, 7, 2)
	if writer.VmaxKnown() {
		t.Fatal("a fresh session knows |V_max|")
	}
	if _, err := writer.RAF(ctx, cfgs[0]); err != nil {
		t.Fatal(err)
	}
	if writer.vmax != nil || !writer.VmaxKnown() {
		t.Fatal("an α < 1 solve must cache the count and not the set")
	}
	data := snapshotBytes(t, writer)

	loaded := NewSession(in, 7, 2)
	if err := loaded.Restore(bufio.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	if !loaded.VmaxKnown() {
		t.Fatal("restored session did not adopt |V_max|")
	}
	cold := NewSession(in, 7, 2)
	for _, cfg := range cfgs {
		got, err := loaded.RAF(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.RAF(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// PmaxReused is provenance: the restored ledger is reused.
		g, w := *got, *want
		g.Invited, w.Invited, g.PmaxReused, w.PmaxReused = nil, nil, 0, 0
		if g != w || !slices.Equal(got.Invited.Members(), want.Invited.Members()) {
			t.Errorf("α=%v: restored session answers\n%+v %v\ncold session\n%+v %v", cfg.Alpha, g, got.Invited.Members(), w, want.Invited.Members())
		}
	}
	if loaded.vmax != nil {
		t.Error("α < 1 solves on a restored session built the V_max set")
	}
	vm, err := Vmax(in)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := loaded.VmaxLen(); n != vm.Len() {
		t.Errorf("restored |V_max| = %d, want %d", n, vm.Len())
	}

	// α = 1 returns V_max itself.
	res, err := loaded.RAF(ctx, Config{Alpha: 1, Eps: 0.5, N: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Invited.Members(), vm.Members()) || res.VmaxSize != vm.Len() || loaded.vmax == nil {
		t.Errorf("α = 1 answered %v (size %d), want V_max %v", res.Invited.Members(), res.VmaxSize, vm.Members())
	}

	// A count stamped with another instance's fingerprint is ignored.
	var other *ltm.Instance
	for v := graph.Node(22); other == nil; v-- {
		if !in.Graph().HasEdge(0, v) {
			other = mustInstance(t, in.Graph(), 0, v)
		}
	}
	stranger := NewSession(other, 7, 2)
	if _, err := stranger.VmaxLen(); err != nil {
		t.Fatal(err)
	}
	var foreign bytes.Buffer
	foreign.Write(data[:len(data)-40])
	tail := snapshotBytes(t, stranger)
	foreign.Write(tail[len(tail)-40:])
	mixed := NewSession(in, 7, 2)
	if err := mixed.Restore(bufio.NewReader(&foreign)); err != nil {
		t.Fatal(err)
	}
	if mixed.VmaxKnown() {
		t.Error("a session adopted |V_max| written for another instance")
	}
}

// TestAncestorBlobDropsVmaxCount: after a delta that changes |V_max|, a
// blob written at the ancestor epoch is adopted and repaired, but its
// count is not: the restored session recomputes a count equal to a cold
// session's on the new graph.
func TestAncestorBlobDropsVmaxCount(t *testing.T) {
	g := randomConnected(1, 24, 30)
	in := mustInstance(t, g, 0, 23)
	before, err := Vmax(in)
	if err != nil {
		t.Fatal(err)
	}
	// The first edge whose addition changes |V_max| and keeps (0, 23)
	// apart.
	var (
		g2    *graph.Graph
		dirty []graph.Node
		in2   *ltm.Instance
	)
	for u := graph.Node(0); u < 24 && in2 == nil; u++ {
		for v := u + 1; v < 24 && in2 == nil; v++ {
			if g.HasEdge(u, v) || (u == 0 && v == 23) {
				continue
			}
			cand, d, err := (&graph.Delta{Add: []graph.Edge{{U: u, V: v}}}).Apply(g)
			if err != nil {
				t.Fatal(err)
			}
			cin := mustInstance(t, cand, 0, 23)
			if after, err := Vmax(cin); err == nil && after.Len() != before.Len() {
				g2, dirty, in2 = cand, d, cin
			}
		}
	}
	if in2 == nil {
		t.Fatal("no one-edge delta changes |V_max| on the fixture")
	}

	ctx := context.Background()
	cfg := Config{Alpha: 0.3, Eps: 0.05, N: 100, OverrideL: 1000, MaxPmaxDraws: 500000}
	gfp := engine.GraphFingerprint(g, in.Weights())
	lin := engine.NewLineage(gfp)
	writer := NewSession(in, 7, 2)
	writer.Engine().Bind(lin, gfp)
	if _, err := writer.RAF(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	data := snapshotBytes(t, writer)

	gfp2 := engine.GraphFingerprint(g2, in2.Weights())
	lin.Advance(gfp2, dirty)
	adopted := NewSession(in2, 7, 2)
	adopted.Engine().Bind(lin, gfp2)
	if err := adopted.Restore(bufio.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatalf("ancestor blob not adopted: %v", err)
	}
	if adopted.VmaxKnown() {
		t.Fatal("an ancestor-epoch blob's |V_max| was adopted")
	}
	cold := NewSession(in2, 7, 2)
	want, err := cold.Vmax()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := adopted.VmaxLen(); err != nil || n != want.Len() {
		t.Fatalf("recomputed |V_max| = %d (err %v), want %d", n, err, want.Len())
	}
	got, err := adopted.RAF(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cold.RAF(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.VmaxSize != ref.VmaxSize || !slices.Equal(got.Invited.Members(), ref.Invited.Members()) {
		t.Errorf("adopted session answers |V_max| %d, %v; cold %d, %v", got.VmaxSize, got.Invited.Members(), ref.VmaxSize, ref.Invited.Members())
	}

	// RepairTo drops the count as it drops the set.
	repaired, _, err := writer.RepairTo(ctx, in2, lin, gfp2, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if repaired.VmaxKnown() {
		t.Error("RepairTo kept |V_max| across a delta")
	}
}

// TestRestoredMemBytesCountsRecord: a session restored from one record
// buffer decodes its pools and touch lists in place, so the buffer — its
// p_max and VMAX bytes included — stays alive whole. MemBytes counts it
// once, plus what the restore allocated (the chunk tables and the p_max
// ledger), and keeps counting it after the solve pool grows past its
// restored size, since the kept chunks' touch lists and the evaluation
// pool still alias it.
func TestRestoredMemBytesCountsRecord(t *testing.T) {
	in := sessionTestInstance(t)
	ctx := context.Background()
	const l = 3000
	writer := NewSession(in, 7, 2)
	if _, err := writer.RAF(ctx, Config{Alpha: 0.3, Eps: 0.05, N: 100, OverrideL: l, MaxPmaxDraws: 500000}); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Eval().Pool(ctx, l); err != nil {
		t.Fatal(err)
	}
	data := snapshotBytes(t, writer)
	rec := make([]byte, len(data))
	copy(rec, data)
	loaded := NewSession(in, 7, 2)
	if err := loaded.RestoreBytes(rec); err != nil {
		t.Fatal(err)
	}
	// A restored chunk keeps an offset per path plus one and a draw index
	// per path; everything else of a pool aliases the record.
	tables := func(p *engine.Pool) int64 {
		return 4 * (2*int64(p.NumType1()) + (p.Total()+engine.ChunkSize-1)/engine.ChunkSize)
	}
	solve, err := loaded.Pool(ctx, l)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := loaded.Eval().Pool(ctx, l)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Engine().Draws() != 0 {
		t.Fatal("the restored session sampled")
	}
	want := int64(len(rec)) + tables(solve) + tables(eval) + loaded.PmaxEstimator().MemBytes()
	if got := loaded.MemBytes(); got != want {
		t.Errorf("restored MemBytes = %d, want the %d-byte record plus %d restored tables = %d", got, len(rec), want-int64(len(rec)), want)
	}

	grown, err := loaded.Pool(ctx, 2*l)
	if err != nil {
		t.Fatal(err)
	}
	if _, aliased := loaded.pools.MemBytesOutside(rec); !aliased {
		t.Fatal("no section of the grown solve pool aliases the record: the kept chunks' touch lists should")
	}
	floor := int64(len(rec)) + grown.MemBytes() + tables(grown) + tables(eval) + loaded.PmaxEstimator().MemBytes()
	if got := loaded.MemBytes(); got < floor {
		t.Errorf("MemBytes after growth = %d, want at least the record plus the grown pool and tables, %d", got, floor)
	}
}
