package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/weights"
)

// testGraph builds a deterministic random connected graph with enough
// non-adjacent pairs for multi-pair traffic.
func testGraph(n, extra int) *graph.Graph {
	r := rand.New(rand.NewSource(42))
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.Node(i), graph.Node(r.Intn(i)))
	}
	for i := 0; i < extra; i++ {
		b.AddEdge(graph.Node(r.Intn(n)), graph.Node(r.Intn(n)))
	}
	return b.Build()
}

// validPairs returns up to want distinct non-adjacent (s,t) pairs.
func validPairs(g *graph.Graph, want int) []pairKey {
	var out []pairKey
	n := graph.Node(g.NumNodes())
	for s := graph.Node(0); s < n && len(out) < want; s++ {
		for t := s + 2; t < n && len(out) < want; t++ {
			if s != t && !g.HasEdge(s, t) && g.Degree(s) > 0 && g.Degree(t) > 0 {
				out = append(out, pairKey{s, t})
			}
		}
	}
	return out
}

var solveCfg = core.Config{Alpha: 0.3, Eps: 0.1, N: 50, OverrideL: 3000, MaxPmaxDraws: 50000}

// queryAll runs a fixed mixed workload (every pair × every query kind,
// with repeats) sequentially and returns the answers as strings (errors
// included: an unreachable pair must stay unreachable).
func queryAll(t *testing.T, sv *Server, pairs []pairKey, rounds int) []string {
	t.Helper()
	ctx := context.Background()
	var out []string
	for round := 0; round < rounds; round++ {
		for _, pk := range pairs {
			pm, err := sv.Pmax(ctx, pk.s, pk.t, 3000)
			out = append(out, fmt.Sprintf("pmax(%d,%d)=%.9f/%v", pk.s, pk.t, pm, err))
			invited := graph.NewNodeSetOf(sv.Graph().NumNodes(), pk.t)
			for _, v := range sv.Graph().Neighbors(pk.t) {
				invited.Add(v)
			}
			f, err := sv.EstimateF(ctx, pk.s, pk.t, invited, 3000)
			out = append(out, fmt.Sprintf("estf(%d,%d)=%.9f/%v", pk.s, pk.t, f, err))
			res, err := sv.Solve(ctx, pk.s, pk.t, solveCfg)
			if err != nil {
				out = append(out, fmt.Sprintf("solve(%d,%d)=err:%v", pk.s, pk.t, errors.Is(err, core.ErrTargetUnreachable)))
			} else {
				out = append(out, fmt.Sprintf("solve(%d,%d)=%v|%.9f", pk.s, pk.t, res.Invited.Members(), res.PStar))
			}
			mres, mf, err := sv.SolveMax(ctx, pk.s, pk.t, 3, 2000)
			if err != nil {
				out = append(out, fmt.Sprintf("smax(%d,%d)=err:%v", pk.s, pk.t, errors.Is(err, core.ErrTargetUnreachable)))
			} else {
				out = append(out, fmt.Sprintf("smax(%d,%d)=%v|%.9f|%.9f", pk.s, pk.t, mres.Invited.Members(), mres.CoveredFraction, mf))
			}
			// Estimate/Draws/Truncated are pure functions of (seed, s, t,
			// eps0, n, budget); Reused/Sampled legitimately vary with the
			// eviction schedule and are excluded from the answer identity.
			pe, err := sv.PmaxEstimate(ctx, pk.s, pk.t, 0.25, 50, 20000)
			out = append(out, fmt.Sprintf("pmaxest(%d,%d)=%.9f|%d|%v/%v", pk.s, pk.t,
				pe.Estimate, pe.Draws, pe.Truncated, err != nil))
		}
	}
	return out
}

// TestEvictThenRequeryDeterminism is the tentpole's correctness claim:
// for any eviction schedule and worker count, every query answer equals
// the never-evicted answer, because evicted pairs re-derive the same
// (seed, s, t) streams on re-admission.
func TestEvictThenRequeryDeterminism(t *testing.T) {
	g := testGraph(40, 50)
	pairs := validPairs(g, 10)
	if len(pairs) < 8 {
		t.Fatalf("only %d valid pairs", len(pairs))
	}
	baseline := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1})
	want := queryAll(t, baseline, pairs, 2)
	if st := baseline.Stats(); st.SessionsEvicted != 0 {
		t.Fatalf("unbudgeted server evicted %d sessions", st.SessionsEvicted)
	}

	for _, cfg := range []Config{
		{Seed: 7, Workers: 4},                          // worker count must not matter
		{Seed: 7, Workers: 2, MaxPoolBytes: 64 << 10},  // constant eviction
		{Seed: 7, Workers: 1, MaxPoolBytes: 256 << 10}, // occasional eviction
		{Seed: 7, Workers: 3, Shards: 1},               // single shard
	} {
		sv := New(g, weights.NewDegree(g), cfg)
		got := queryAll(t, sv, pairs, 2)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cfg %+v: answer %d diverged:\n got %s\nwant %s", cfg, i, got[i], want[i])
			}
		}
		st := sv.Stats()
		if cfg.MaxPoolBytes > 0 {
			if st.SessionsEvicted == 0 {
				t.Errorf("cfg %+v: no eviction under a %d-byte budget (stats %+v)", cfg, cfg.MaxPoolBytes, st)
			}
			if st.BytesHeld > cfg.MaxPoolBytes {
				t.Errorf("cfg %+v: BytesHeld = %d exceeds budget %d", cfg, st.BytesHeld, cfg.MaxPoolBytes)
			}
		}
	}
}

// TestConcurrentQueriesMatchSequential: a concurrent mixed workload under
// an eviction-inducing budget returns, query for query, the sequential
// answers. Run with -race.
func TestConcurrentQueriesMatchSequential(t *testing.T) {
	g := testGraph(40, 50)
	pairs := validPairs(g, 12)
	if len(pairs) < 8 {
		t.Fatalf("only %d valid pairs", len(pairs))
	}
	baseline := New(g, weights.NewDegree(g), Config{Seed: 3, Workers: 1})
	want := queryAll(t, baseline, pairs, 1)

	sv := New(g, weights.NewDegree(g), Config{Seed: 3, Workers: 2, MaxPoolBytes: 128 << 10, Shards: 4})
	got := make([]string, len(pairs))
	var wg sync.WaitGroup
	for i, pk := range pairs {
		wg.Add(1)
		go func(i int, pk pairKey) {
			defer wg.Done()
			// Each goroutine runs its pair's full query slice; the per-pair
			// sub-slice of the sequential transcript must match exactly.
			one := queryAll(t, sv, []pairKey{pk}, 1)
			got[i] = fmt.Sprint(one)
		}(i, pk)
	}
	wg.Wait()
	const perPair = 5 // answers queryAll emits per pair per round
	for i := range pairs {
		wantOne := fmt.Sprint(want[i*perPair : (i+1)*perPair])
		if got[i] != wantOne {
			t.Errorf("pair %v: concurrent answers diverged:\n got %s\nwant %s", pairs[i], got[i], wantOne)
		}
	}
	if st := sv.Stats(); st.BytesHeld > 128<<10 {
		t.Errorf("BytesHeld = %d exceeds budget", st.BytesHeld)
	}
}

// TestStatsLedger: hit/miss accounting per kind, live/created/evicted
// counts, and the budget invariant on BytesHeld.
func TestStatsLedger(t *testing.T) {
	g := testGraph(30, 30)
	pairs := validPairs(g, 4)
	if len(pairs) < 4 {
		t.Fatalf("only %d valid pairs", len(pairs))
	}
	ctx := context.Background()
	sv := New(g, weights.NewDegree(g), Config{Seed: 1})
	for _, pk := range pairs {
		if _, err := sv.Pmax(ctx, pk.s, pk.t, 2000); err != nil {
			t.Fatal(err)
		}
		if _, err := sv.Pmax(ctx, pk.s, pk.t, 2000); err != nil {
			t.Fatal(err)
		}
	}
	st := sv.Stats()
	if st.SessionsLive != len(pairs) || st.SessionsCreated != int64(len(pairs)) {
		t.Errorf("live/created = %d/%d, want %d/%d", st.SessionsLive, st.SessionsCreated, len(pairs), len(pairs))
	}
	if c := st.Pmax; c.Misses != int64(len(pairs)) || c.Hits != int64(len(pairs)) {
		t.Errorf("pmax hit/miss = %d/%d, want %d/%d", c.Hits, c.Misses, len(pairs), len(pairs))
	}
	if st.BytesHeld <= 0 {
		t.Errorf("BytesHeld = %d, want positive", st.BytesHeld)
	}
	// An invalid pair (adjacent) fails without leaving state behind.
	s := pairs[0].s
	var adj graph.Node = -1
	for _, v := range g.Neighbors(s) {
		adj = v
		break
	}
	if adj >= 0 {
		if _, err := sv.Pmax(ctx, s, adj, 1000); err == nil {
			t.Error("adjacent pair accepted")
		}
		if got := sv.Stats().SessionsLive; got != len(pairs) {
			t.Errorf("failed query leaked a session: live = %d", got)
		}
	}

	// A tiny budget evicts down to the budget, never below zero bytes.
	tiny := New(g, weights.NewDegree(g), Config{Seed: 1, MaxPoolBytes: 1 << 10})
	for _, pk := range pairs {
		if _, err := tiny.Pmax(ctx, pk.s, pk.t, 4000); err != nil {
			t.Fatal(err)
		}
	}
	st = tiny.Stats()
	if st.SessionsEvicted == 0 {
		t.Errorf("no eviction under a 1KiB budget: %+v", st)
	}
	if st.BytesHeld > 1<<10 || st.BytesHeld < 0 {
		t.Errorf("BytesHeld = %d, want within [0, 1024]", st.BytesHeld)
	}
	if st.SessionsLive > len(pairs) {
		t.Errorf("live = %d after evictions", st.SessionsLive)
	}
}

// TestPairHandle: the harness handle shares the cached sessions and
// settles accounting on Done.
func TestPairHandle(t *testing.T) {
	g := testGraph(30, 30)
	pairs := validPairs(g, 1)
	if len(pairs) == 0 {
		t.Fatal("no valid pair")
	}
	pk := pairs[0]
	ctx := context.Background()
	sv := New(g, weights.NewDegree(g), Config{Seed: 5})
	h, err := sv.Pair(pk.s, pk.t)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Eval().Pool(ctx, 5000); err != nil {
		t.Fatal(err)
	}
	h.Done()
	if st := sv.Stats(); st.BytesHeld <= 0 {
		t.Errorf("BytesHeld = %d after Done, want positive", st.BytesHeld)
	}
	// The server-level query reuses the handle's session (a hit).
	if _, err := sv.Pmax(ctx, pk.s, pk.t, 5000); err != nil {
		t.Fatal(err)
	}
	if c := sv.Stats().Pmax; c.Hits != 1 || c.Misses != 0 {
		t.Errorf("pmax hit/miss = %d/%d, want 1/0 (handle session not shared)", c.Hits, c.Misses)
	}
}

// TestSolveMaxBudgetsMatchesSolveMax: the batched budget sweep must
// return, per budget, exactly what the single-budget query returns —
// same invited sets, same in-pool fractions, same decorrelated
// estimates — including across eviction (fresh server).
func TestSolveMaxBudgetsMatchesSolveMax(t *testing.T) {
	g := testGraph(40, 60)
	pairs := validPairs(g, 2)
	if len(pairs) == 0 {
		t.Skip("no valid pairs")
	}
	ctx := context.Background()
	budgets := []int{1, 2, 4, 8}
	for _, pk := range pairs {
		sweepSv := New(g, weights.NewDegree(g), Config{Seed: 5})
		results, fs, err := sweepSv.SolveMaxBudgets(ctx, pk.s, pk.t, budgets, 3000)
		if err != nil {
			if errors.Is(err, core.ErrTargetUnreachable) {
				continue
			}
			t.Fatal(err)
		}
		singleSv := New(g, weights.NewDegree(g), Config{Seed: 5})
		for i, b := range budgets {
			res, f, err := singleSv.SolveMax(ctx, pk.s, pk.t, b, 3000)
			if err != nil {
				t.Fatal(err)
			}
			gotM, wantM := results[i].Invited.Members(), res.Invited.Members()
			if fmt.Sprint(gotM) != fmt.Sprint(wantM) {
				t.Fatalf("pair %v budget %d: sweep invited %v != single %v", pk, b, gotM, wantM)
			}
			if results[i].CoveredFraction != res.CoveredFraction {
				t.Errorf("pair %v budget %d: TrainF %v != %v", pk, b, results[i].CoveredFraction, res.CoveredFraction)
			}
			if fs[i] != f {
				t.Errorf("pair %v budget %d: EstimatedF %v != %v", pk, b, fs[i], f)
			}
		}
	}
}
