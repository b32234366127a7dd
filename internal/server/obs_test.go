package server

import (
	"context"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/weights"
)

// TestServerObs: an observability-enabled server records per-kind
// request latency, per-stage spans, Stats counter mirrors and the
// tracez ring — and the answers are identical to an uninstrumented
// server's.
func TestServerObs(t *testing.T) {
	g := testGraph(60, 40)
	pairs := validPairs(g, 4)
	o := obs.New()
	sv := New(g, weights.NewDegree(g), Config{Seed: 11, Obs: o})
	got := queryAll(t, sv, pairs, 2)
	plain := New(g, weights.NewDegree(g), Config{Seed: 11})
	want := queryAll(t, plain, pairs, 2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("instrumented answer diverged:\n got %s\nwant %s", got[i], want[i])
		}
	}
	targets := make([]graph.Node, len(pairs))
	for i, p := range pairs {
		targets[i] = p.t
	}
	if _, err := sv.TopK(context.Background(), TopKQuery{
		S: pairs[0].s, Targets: targets, K: 2, Budget: 3, Realizations: 2000,
	}); err != nil {
		t.Fatalf("topk: %v", err)
	}

	var b strings.Builder
	if err := o.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exp := b.String()
	for _, series := range []string{
		`af_request_seconds{kind="solve",quantile="0.5"}`,
		`af_request_seconds{kind="solvemax",quantile="0.99"}`,
		`af_request_seconds{kind="pmaxest",quantile="0.999"}`,
		`af_request_seconds{kind="topk",quantile="0.5"}`,
		`af_requests_total{kind="solve",result="miss"}`,
		`af_stage_seconds{stage="acquire",quantile="0.5"}`,
		`af_stage_seconds{stage="pool_grow",quantile="0.5"}`,
		`af_stage_seconds{stage="solve",quantile="0.5"}`,
		`af_stage_seconds{stage="measure",quantile="0.5"}`,
		`af_stage_seconds{stage="rank_round",quantile="0.5"}`,
		"af_sessions_live", "af_sessions_created_total", "af_bytes_held",
		"af_spill_loads_total", `af_spill_load_errors_total{cause="checksum"}`,
		"af_deltas_applied_total", "af_pools_repaired_total",
		"af_pmax_draws_reused_total", "af_coalesced_total", "af_graph_epochs",
	} {
		if !strings.Contains(exp, series) {
			t.Errorf("exposition is missing %s", series)
		}
	}

	// The mirrors track the ledger: created sessions moved off zero and
	// the exposition agrees with Stats().
	st := sv.Stats()
	if st.SessionsCreated == 0 {
		t.Fatal("workload created no sessions")
	}
	var createdSample float64
	for _, s := range o.Registry.Snapshot() {
		if s.Name == "af_sessions_created_total" {
			createdSample = s.Value
		}
	}
	if createdSample != float64(st.SessionsCreated) {
		t.Errorf("af_sessions_created_total = %v, Stats says %d", createdSample, st.SessionsCreated)
	}

	slowest := o.Tracer.Slowest()
	if len(slowest) == 0 {
		t.Fatal("tracer retained no traces")
	}
	haveSpans := false
	for _, s := range slowest {
		if len(s.Spans) > 0 {
			haveSpans = true
		}
	}
	if !haveSpans {
		t.Error("no retained trace carries spans")
	}

	var sz strings.Builder
	sv.WriteStatusz(&sz)
	for _, want := range []string{"sessions:", "kind solve", "stage ", "slow[0]"} {
		if !strings.Contains(sz.String(), want) {
			t.Errorf("statusz is missing %q:\n%s", want, sz.String())
		}
	}
}

// TestTracedColdSolveRecordsFoldAndSolve: a cold Solve folds its pool
// into a set-cover family and runs the greedy; both stages land on the
// request's trace next to acquire, pmax and pool_grow.
func TestTracedColdSolveRecordsFoldAndSolve(t *testing.T) {
	g := testGraph(40, 60)
	pk := validPairs(g, 1)[0]
	o := obs.New()
	sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1, Obs: o})
	if _, err := sv.Solve(context.Background(), pk.s, pk.t, solveCfg); err != nil {
		t.Fatal(err)
	}
	slowest := o.Tracer.Slowest()
	if len(slowest) != 1 || slowest[0].Kind != "solve" {
		t.Fatalf("retained traces %+v, want the one solve", slowest)
	}
	stages := map[string]int{}
	for _, sp := range slowest[0].Spans {
		stages[sp.Stage]++
	}
	for _, st := range []string{"acquire", "pmax", "pool_grow", "family_fold", "solve"} {
		if stages[st] == 0 {
			t.Errorf("cold solve trace has no %s span: %+v", st, slowest[0].Spans)
		}
	}
}
