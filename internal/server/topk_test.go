package server

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/weights"
)

// validTargetsFor returns up to want candidate targets for source s:
// distinct, non-adjacent, positive-degree nodes — what a friending
// surface would rank.
func validTargetsFor(g *graph.Graph, s graph.Node, want int) []graph.Node {
	var out []graph.Node
	for t := graph.Node(0); t < graph.Node(g.NumNodes()) && len(out) < want; t++ {
		if t != s && !g.HasEdge(s, t) && g.Degree(t) > 0 {
			out = append(out, t)
		}
	}
	return out
}

// renderTopK serializes everything a TopK answer promises to be a pure
// function of (seed, query) — float bits included, so equality means
// byte identity. DrawsSpent is excluded: it legitimately varies with the
// eviction schedule (a resampled pool costs real draws), never the
// answer.
func renderTopK(res *TopKResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ranked=%v winners=%v rounds=%d planned=%d exhaustive=%d trunc=%v\n",
		res.Ranked, res.Winners(), res.Rounds, res.PlannedDraws, res.ExhaustiveDraws, res.Truncated)
	for i, c := range res.Candidates {
		fmt.Fprintf(&b, "cand %d t=%d score=%x train=%x effort=%d rounds=%d frozen=%v err=%q inv=",
			i, c.Target, math.Float64bits(c.Score), math.Float64bits(c.TrainF), c.Effort, c.Rounds, c.Frozen, c.Err)
		if c.Invited != nil {
			fmt.Fprintf(&b, "%v", c.Invited.Members())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

const topkEffort = 4096

func topkServer(workers int, maxBytes int64) (*Server, *graph.Graph) {
	g := testGraph(40, 50)
	return New(g, weights.NewDegree(g), Config{Seed: 7, Workers: workers, MaxPoolBytes: maxBytes}), g
}

// TestTopKFullBudgetMatchesExhaustive is the purity half of the
// acceptance criteria: an unbudgeted TopK must return byte-identical
// scores and invitation sets to independent SolveMax calls, and its
// ranking must be exactly the exhaustive scores' order.
func TestTopKFullBudgetMatchesExhaustive(t *testing.T) {
	ctx := context.Background()
	sv, g := topkServer(1, 0)
	s := graph.Node(0)
	targets := validTargetsFor(g, s, 12)
	if len(targets) < 8 {
		t.Fatalf("only %d targets", len(targets))
	}
	res, err := sv.TopK(ctx, TopKQuery{S: s, Targets: targets, K: 3, Budget: 3, Realizations: topkEffort})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := topkServer(1, 0)
	for i, tgt := range targets {
		mres, f, err := ref.SolveMax(ctx, s, tgt, 3, topkEffort)
		c := res.Candidates[i]
		if err != nil {
			if c.Err == "" {
				t.Fatalf("candidate %d: solvemax failed (%v) but topk scored it: %+v", i, err, c)
			}
			continue
		}
		if c.Err != "" || c.Frozen || c.Effort != topkEffort {
			t.Fatalf("candidate %d not at full effort: %+v", i, c)
		}
		if c.Score != f || c.TrainF != mres.CoveredFraction ||
			fmt.Sprint(c.Invited.Members()) != fmt.Sprint(mres.Invited.Members()) {
			t.Fatalf("candidate %d diverged from SolveMax:\ntopk  %x %x %v\nsolve %x %x %v",
				i, math.Float64bits(c.Score), math.Float64bits(c.TrainF), c.Invited.Members(),
				math.Float64bits(f), math.Float64bits(mres.CoveredFraction), mres.Invited.Members())
		}
	}
	// The ranking must be the exhaustive scores in (score desc, index
	// asc) order, errored candidates last.
	for j := 1; j < len(res.Ranked); j++ {
		a, b := res.Candidates[res.Ranked[j-1]], res.Candidates[res.Ranked[j]]
		if a.Err != "" && b.Err == "" {
			t.Fatalf("errored candidate ranked above a scored one: %v", res.Ranked)
		}
		if a.Err == "" && b.Err == "" {
			if a.Score < b.Score || (a.Score == b.Score && res.Ranked[j-1] > res.Ranked[j]) {
				t.Fatalf("ranking out of order at %d: %v", j, res.Ranked)
			}
		}
	}
	if res.Rounds != 1 || res.Truncated {
		t.Fatalf("full budget should plan one exhaustive round: %+v", res)
	}
}

// TestTopKDeterminismAcrossWorkers: the whole result (ranking, float
// bits, efforts, draw plan) is a pure function of (seed, query) for any
// worker count.
func TestTopKDeterminismAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	var want string
	var wantSpent int64
	for _, workers := range []int{1, 2, 8} {
		sv, g := topkServer(workers, 0)
		s := graph.Node(0)
		targets := validTargetsFor(g, s, 16)
		res, err := sv.TopK(ctx, TopKQuery{
			S: s, Targets: targets, K: 3, Budget: 3,
			Realizations: topkEffort, MaxDraws: int64(len(targets)) * topkEffort, // half the exhaustive bill
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := renderTopK(res)
		if want == "" {
			want, wantSpent = got, res.DrawsSpent
			continue
		}
		if got != want {
			t.Fatalf("workers=%d diverged:\n%s\nvs\n%s", workers, got, want)
		}
		if res.DrawsSpent != wantSpent {
			t.Fatalf("workers=%d: draws spent %d != %d (no eviction here)", workers, res.DrawsSpent, wantSpent)
		}
	}
}

// TestTopKEvictRestoreDeterminism: a byte budget small enough to churn
// candidates out mid-batch changes the bill, never the answer.
func TestTopKEvictRestoreDeterminism(t *testing.T) {
	ctx := context.Background()
	free, g := topkServer(2, 0)
	s := graph.Node(0)
	targets := validTargetsFor(g, s, 12)
	q := TopKQuery{S: s, Targets: targets, K: 3, Budget: 3,
		Realizations: topkEffort, MaxDraws: int64(len(targets)) * topkEffort}
	want, err := free.TopK(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	tight, _ := topkServer(2, 200_000) // a few pools' worth: constant churn
	got, err := tight.TopK(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if renderTopK(got) != renderTopK(want) {
		t.Fatalf("evicting server diverged:\n%s\nvs\n%s", renderTopK(got), renderTopK(want))
	}
	if st := tight.Stats(); st.SessionsEvicted == 0 {
		t.Fatalf("tight budget evicted nothing (bytes held %d) — test lost its teeth", st.BytesHeld)
	}
	if got.DrawsSpent < want.DrawsSpent {
		t.Fatalf("evicting run spent fewer draws (%d) than the free run (%d)?", got.DrawsSpent, want.DrawsSpent)
	}
}

// TestTopKScheduledSublinearDraws is the perf half of the acceptance
// criteria at unit-test scale: a quarter-budget schedule must spend ≥3×
// fewer draws than the exhaustive batch while still returning k winners.
func TestTopKScheduledSublinearDraws(t *testing.T) {
	ctx := context.Background()
	sv, g := topkServer(2, 0)
	s := graph.Node(0)
	targets := validTargetsFor(g, s, 16)
	exhaustive := int64(len(targets)) * 2 * topkEffort
	sched, err := sv.TopK(ctx, TopKQuery{S: s, Targets: targets, K: 2, Budget: 3,
		Realizations: topkEffort, MaxDraws: exhaustive / 4})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := topkServer(2, 0)
	full, err := ref.TopK(ctx, TopKQuery{S: s, Targets: targets, K: 2, Budget: 3, Realizations: topkEffort})
	if err != nil {
		t.Fatal(err)
	}
	if sched.DrawsSpent*3 > full.DrawsSpent {
		t.Fatalf("scheduled batch not ≥3x cheaper: %d vs %d draws", sched.DrawsSpent, full.DrawsSpent)
	}
	if len(sched.Winners()) != 2 {
		t.Fatalf("winners: %v", sched.Winners())
	}
	for _, wi := range sched.Winners() {
		if c := sched.Candidates[wi]; c.Err != "" || c.Effort == 0 {
			t.Fatalf("winner %d unscored: %+v", wi, c)
		}
	}
}

// TestTopKRefineResumesWarm: refining a budgeted run tops up to the
// cold larger-budget answer while paying only the incremental draws.
func TestTopKRefineResumesWarm(t *testing.T) {
	ctx := context.Background()
	sv, g := topkServer(2, 0)
	s := graph.Node(0)
	targets := validTargetsFor(g, s, 12)
	exhaustive := int64(len(targets)) * 2 * topkEffort
	first, err := sv.TopK(ctx, TopKQuery{S: s, Targets: targets, K: 3, Budget: 3,
		Realizations: topkEffort, MaxDraws: exhaustive / 4})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := sv.TopKRefine(ctx, first, exhaustive/4)
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := topkServer(2, 0)
	want, err := cold.TopK(ctx, TopKQuery{S: s, Targets: targets, K: 3, Budget: 3,
		Realizations: topkEffort, MaxDraws: exhaustive / 2})
	if err != nil {
		t.Fatal(err)
	}
	if renderTopK(refined) != renderTopK(want) {
		t.Fatalf("refined result != cold run at the combined budget:\n%s\nvs\n%s",
			renderTopK(refined), renderTopK(want))
	}
	if refined.DrawsSpent >= want.DrawsSpent {
		t.Fatalf("refinement resumed nothing: spent %d, cold run spent %d", refined.DrawsSpent, want.DrawsSpent)
	}
}

// TestTopKErrorCandidates: targets the instance rejects (self, already
// adjacent) freeze with an error and rank last; the batch still answers.
func TestTopKErrorCandidates(t *testing.T) {
	ctx := context.Background()
	sv, g := topkServer(1, 0)
	s := graph.Node(0)
	adjacent := g.Neighbors(s)[0]
	targets := append([]graph.Node{s, adjacent}, validTargetsFor(g, s, 6)...)
	res, err := sv.TopK(ctx, TopKQuery{S: s, Targets: targets, K: 2, Budget: 3, Realizations: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if c := res.Candidates[i]; !c.Frozen || c.Err == "" {
			t.Fatalf("invalid target %d not frozen with error: %+v", i, c)
		}
	}
	for _, wi := range res.Winners() {
		if wi < 2 {
			t.Fatalf("invalid target ranked as winner: %v", res.Winners())
		}
	}
}

// TestTopKValidation: malformed queries fail fast.
func TestTopKValidation(t *testing.T) {
	sv, g := topkServer(1, 0)
	s := graph.Node(0)
	targets := validTargetsFor(g, s, 4)
	ctx := context.Background()
	bad := []TopKQuery{
		{S: s, K: 1, Budget: 1},
		{S: s, Targets: targets, K: 0, Budget: 1},
		{S: s, Targets: targets, K: 1, Budget: 0},
	}
	for i, q := range bad {
		if _, err := sv.TopK(ctx, q); err == nil {
			t.Errorf("query %d accepted: %+v", i, q)
		}
	}
	if _, err := sv.TopKRefine(ctx, nil, 10); err == nil {
		t.Error("refine without prior accepted")
	}
}

// TestCoalesceJoinsFlight pins the singleflight mechanics without
// relying on scheduler luck: the winner blocks inside the flight until
// the test has observed a second caller join it. The flight carries its
// kind's result type, so both callers read a typed answer.
func TestCoalesceJoinsFlight(t *testing.T) {
	sv, _ := topkServer(1, 0)
	release := make(chan struct{})
	computed := 0
	key := pmaxParams{s: 0, t: 5, trials: 1000}
	fn := func(context.Context) (float64, error) { computed++; <-release; return 42, nil }
	ctx, gen := context.Background(), sv.gen.Load()
	done := make(chan float64, 2)
	go func() {
		v, _ := sv.pmaxFlights.do(ctx, sv, gen, key, fn)
		done <- v
	}()
	// Wait for the winner to open the flight.
	open := func() bool {
		sv.pmaxFlights.mu.Lock()
		defer sv.pmaxFlights.mu.Unlock()
		return sv.pmaxFlights.m[flightKey[pmaxParams]{gen: sv.gen.Load(), params: key}] != nil
	}
	for !open() {
		runtime.Gosched()
	}
	go func() {
		v, _ := sv.pmaxFlights.do(ctx, sv, gen, key, fn)
		done <- v
	}()
	// Wait for the joiner to be counted, then let the flight finish.
	for sv.ledger[ctrCoalesced].Load() == 0 {
		runtime.Gosched()
	}
	close(release)
	if a, b := <-done, <-done; a != 42 || b != 42 {
		t.Fatalf("flight answers %v, %v", a, b)
	}
	if computed != 1 {
		t.Fatalf("fn computed %d times", computed)
	}
	if got := sv.Stats().Coalesced; got != 1 {
		t.Fatalf("Coalesced = %d, want 1", got)
	}
	if open() {
		t.Fatal("finished flight left in the table")
	}
	// A later, non-overlapping duplicate opens a fresh flight.
	v, err := sv.pmaxFlights.do(ctx, sv, gen, key, func(context.Context) (float64, error) { return 43, nil })
	if err != nil || v != 43 {
		t.Fatalf("post-flight call: %v %v", v, err)
	}
	// A different parameter value never joins: distinct queries never
	// share a key.
	other := key
	other.trials++
	if v, _ := sv.pmaxFlights.do(ctx, sv, gen, other, func(context.Context) (float64, error) { return 44, nil }); v != 44 {
		t.Fatalf("distinct params answered %v", v)
	}
}

// TestCoalesceConcurrentQueries: racing identical SolveMax calls all get
// the same answer, and the flight table drains.
func TestCoalesceConcurrentQueries(t *testing.T) {
	sv, g := topkServer(0, 0)
	s := graph.Node(0)
	tgt := validTargetsFor(g, s, 1)[0]
	ctx := context.Background()
	const callers = 8
	answers := make([]string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, f, err := sv.SolveMax(ctx, s, tgt, 3, 4096)
			if err != nil {
				answers[i] = err.Error()
				return
			}
			answers[i] = fmt.Sprintf("%v|%x", res.Invited.Members(), math.Float64bits(f))
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if answers[i] != answers[0] {
			t.Fatalf("caller %d got %q, caller 0 got %q", i, answers[i], answers[0])
		}
	}
	if open := len(sv.maxFlights.m); open != 0 {
		t.Fatalf("%d flights left open", open)
	}
}

// TestCoalesceEpochKeying: a flight opened at one epoch must not serve a
// query that starts after ApplyDelta — the keys differ by generation.
func TestCoalesceEpochKeying(t *testing.T) {
	sv, _ := topkServer(1, 0)
	genBefore := sv.gen.Load()
	p := pmaxParams{s: 1, t: 9, trials: 2000}
	k1 := flightKey[pmaxParams]{gen: genBefore, params: p}
	// Simulate an in-flight query at the old epoch.
	sv.pmaxFlights.m = map[flightKey[pmaxParams]]*flight[float64]{k1: {}}
	g := sv.Graph()
	free := validPairs(g, 1)[0]
	if _, err := sv.ApplyDelta(context.Background(), &graph.Delta{Add: []graph.Edge{{U: free.s, V: free.t}}}, nil); err != nil {
		t.Fatal(err)
	}
	k2 := flightKey[pmaxParams]{gen: sv.gen.Load(), params: p}
	if k1 == k2 {
		t.Fatal("flight keys identical across epochs")
	}
	if _, ok := sv.pmaxFlights.m[k2]; ok {
		t.Fatal("new-epoch query would join the old epoch's flight")
	}
}

// TestTopKEvictionOrderAcrossWorkers: under a byte budget that evicts
// mid-batch, a sequence of TopK queries leaves the same Stats, the same
// LRU order and the same answers (DrawsSpent included, since the
// eviction schedule is now deterministic) for every worker count, run
// after run. A round pins its candidates in index order before scoring
// and settles them in index order after, so recency never follows the
// order in which concurrent scorers finish. With a spill directory the
// victims are written, and restored, by parallel scorers; the ledger
// must not notice.
func TestTopKEvictionOrderAcrossWorkers(t *testing.T) {
	for _, spill := range []bool{false, true} {
		t.Run(fmt.Sprintf("spill=%v", spill), func(t *testing.T) { testTopKEvictionOrder(t, spill) })
	}
}

func testTopKEvictionOrder(t *testing.T, spill bool) {
	ctx := context.Background()
	type outcome struct {
		answers []string
		spent   []int64
		stats   Stats
		lru     []pairKey
	}
	run := func(workers int) outcome {
		g := testGraph(40, 50)
		cfg := Config{Seed: 7, Workers: workers, MaxPoolBytes: 200_000}
		if spill {
			cfg.SpillDir = t.TempDir()
		}
		sv := New(g, weights.NewDegree(g), cfg)
		var out outcome
		for _, s := range []graph.Node{0, 3, 0, 7} {
			targets := validTargetsFor(g, s, 12)
			res, err := sv.TopK(ctx, TopKQuery{S: s, Targets: targets, K: 3, Budget: 3,
				Realizations: topkEffort, MaxDraws: int64(len(targets)) * topkEffort})
			if err != nil {
				t.Fatalf("workers=%d s=%d: %v", workers, s, err)
			}
			out.answers = append(out.answers, renderTopK(res))
			out.spent = append(out.spent, res.DrawsSpent)
		}
		out.stats, out.lru = sv.Stats(), lruKeys(sv)
		return out
	}
	want := run(1)
	if want.stats.SessionsEvicted == 0 {
		t.Fatal("budget evicted nothing — test lost its teeth")
	}
	if spill && (want.stats.Spills == 0 || want.stats.SpillLoads == 0) {
		t.Fatalf("spills %d, spill loads %d: the spill tier went untested", want.stats.Spills, want.stats.SpillLoads)
	}
	for rep := 0; rep < 5; rep++ {
		for _, workers := range []int{1, 2, 8} {
			if got := run(workers); !reflect.DeepEqual(got, want) {
				t.Fatalf("rep %d workers=%d differs from workers=1:\n got stats %+v lru %v spent %v\nwant stats %+v lru %v spent %v",
					rep, workers, got.stats, got.lru, got.spent, want.stats, want.lru, want.spent)
			}
		}
	}
}
