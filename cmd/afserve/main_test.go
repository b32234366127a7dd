package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// diamond is a small graph with several 0→5 routes (and spurs), so the
// (0,5), (0,3), (0,4) pairs all have positive p_max.
const diamond = "0 1\n0 2\n1 3\n1 4\n2 3\n2 4\n3 5\n4 5\n1 6\n2 7\n"

func graphFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte(diamond), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const queries = `{"id":1,"op":"pmax","s":0,"t":5,"trials":4000}
{"id":2,"op":"solve","s":0,"t":5,"alpha":0.3,"eps":0.1,"n":50,"realizations":4000}
{"id":3,"op":"acceptance","s":0,"t":5,"invited":[3,4,5],"trials":4000}
{"id":4,"op":"solvemax","s":0,"t":5,"budget":2,"realizations":4000}
{"id":5,"op":"pmax","s":0,"t":3,"trials":4000}
{"id":6,"op":"pmaxest","s":0,"t":4,"eps":0.2,"n":50,"trials":100000}
{"id":7,"op":"stats"}
{"id":8,"op":"solve","s":0,"t":1}
{"id":9,"op":"bogus","s":0,"t":5}
`

type resp struct {
	ID     int64           `json:"id"`
	Op     string          `json:"op"`
	OK     bool            `json:"ok"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

func runServe(t *testing.T, args []string, input string) []resp {
	t.Helper()
	var sb strings.Builder
	if err := run(args, strings.NewReader(input), &sb); err != nil {
		t.Fatal(err)
	}
	var out []resp
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		var r resp
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad response line %q: %v", line, err)
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func TestServeQueries(t *testing.T) {
	path := graphFile(t)
	got := runServe(t, []string{"-file", path, "-seed", "7"}, queries)
	if len(got) != 9 {
		t.Fatalf("got %d responses, want 9", len(got))
	}
	for _, r := range got[:7] {
		if !r.OK {
			t.Errorf("id %d (%s): error %q", r.ID, r.Op, r.Error)
		}
	}
	if got[7].OK || got[7].Error == "" {
		t.Errorf("adjacent pair: %+v", got[7])
	}
	if got[8].OK || !strings.Contains(got[8].Error, "unknown op") {
		t.Errorf("bogus op: %+v", got[8])
	}
	var pm struct {
		Pmax float64 `json:"pmax"`
	}
	if err := json.Unmarshal(got[0].Result, &pm); err != nil {
		t.Fatal(err)
	}
	if pm.Pmax <= 0 || pm.Pmax > 1 {
		t.Errorf("pmax = %v", pm.Pmax)
	}
	var sol struct {
		Invited []int32 `json:"Invited"`
	}
	if err := json.Unmarshal(got[1].Result, &sol); err != nil {
		t.Fatal(err)
	}
	if len(sol.Invited) == 0 {
		t.Errorf("solve returned empty invitation set: %s", got[1].Result)
	}
	var est struct {
		Pmax      float64 `json:"pmax"`
		Draws     int64   `json:"draws"`
		Truncated bool    `json:"truncated"`
	}
	if err := json.Unmarshal(got[5].Result, &est); err != nil {
		t.Fatal(err)
	}
	if est.Pmax <= 0 || est.Pmax > 1 || est.Draws <= 0 {
		t.Errorf("pmaxest = %+v", est)
	}

	// Determinism across runs, budgets and concurrency: same seed, same
	// answers for every query — eviction and out-of-order answering are
	// latency events, not correctness events. (stats output is excluded:
	// hit/miss and byte ledgers legitimately differ.)
	for _, extra := range [][]string{
		{"-maxbytes", "16384"},
		{"-j", "4"},
		{"-maxbytes", "16384", "-j", "4", "-shards", "2", "-workers", "2"},
	} {
		again := runServe(t, append([]string{"-file", path, "-seed", "7"}, extra...), queries)
		if len(again) != len(got) {
			t.Fatalf("%v: got %d responses, want %d", extra, len(again), len(got))
		}
		for i := range got {
			if got[i].Op == "stats" {
				continue
			}
			if got[i].Op == "pmaxest" {
				// The estimate, its stopping point and the truncation flag
				// are pure functions of the seed; reused/sampled legitimately
				// vary with concurrency and eviction order.
				var a struct {
					Pmax      float64 `json:"pmax"`
					Draws     int64   `json:"draws"`
					Truncated bool    `json:"truncated"`
				}
				if err := json.Unmarshal(again[i].Result, &a); err != nil {
					t.Fatal(err)
				}
				if a.Pmax != est.Pmax || a.Draws != est.Draws || a.Truncated != est.Truncated {
					t.Errorf("%v: pmaxest diverged: %+v, want %+v", extra, a, est)
				}
				continue
			}
			if string(again[i].Result) != string(got[i].Result) || again[i].OK != got[i].OK {
				t.Errorf("%v: id %d diverged:\n got %s\nwant %s", extra, again[i].ID, again[i].Result, got[i].Result)
			}
		}
	}
}

// TestServeSpillWarmRestart: a run with -spill-dir flushes its pools on
// shutdown (stdin EOF), and a restarted server with the same seed and
// -warm answers identically — its spill ledger showing the pools came
// from disk rather than resampling.
func TestServeSpillWarmRestart(t *testing.T) {
	path := graphFile(t)
	dir := filepath.Join(t.TempDir(), "spill")
	first := runServe(t, []string{"-file", path, "-seed", "7", "-spill-dir", dir}, queries)
	files, err := filepath.Glob(filepath.Join(dir, "spill-*.afseg"))
	if err != nil || len(files) == 0 {
		t.Fatalf("shutdown flush wrote no spill segment (err %v)", err)
	}

	second := runServe(t, []string{"-file", path, "-seed", "7", "-spill-dir", dir, "-warm"}, queries)
	if len(second) != len(first) {
		t.Fatalf("got %d responses, want %d", len(second), len(first))
	}
	for i := range first {
		if first[i].Op == "stats" {
			continue
		}
		if first[i].Op == "pmaxest" {
			// The estimate itself must be byte-identical; the warm run
			// answers it from the restored draw ledger, which is exactly
			// what the reused/sampled accounting is supposed to show.
			var cold, warm struct {
				Pmax            float64 `json:"pmax"`
				Draws           int64   `json:"draws"`
				Reused, Sampled int64
				Truncated       bool
			}
			if err := json.Unmarshal(first[i].Result, &cold); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(second[i].Result, &warm); err != nil {
				t.Fatal(err)
			}
			if warm.Pmax != cold.Pmax || warm.Draws != cold.Draws || warm.Truncated != cold.Truncated {
				t.Errorf("pmaxest diverged after warm restart: %+v, want %+v", warm, cold)
			}
			if cold.Reused != 0 || warm.Reused != warm.Draws || warm.Sampled != 0 {
				t.Errorf("pmaxest ledger: cold %+v, warm %+v — warm run should reuse every draw", cold, warm)
			}
			continue
		}
		if string(second[i].Result) != string(first[i].Result) || second[i].OK != first[i].OK {
			t.Errorf("id %d diverged after warm restart:\n got %s\nwant %s", second[i].ID, second[i].Result, first[i].Result)
		}
	}
	// The second run's stats response must show disk-warm pools.
	var st struct {
		SpillLoads      int64
		SpillDrawsSaved int64
	}
	for _, r := range second {
		if r.Op == "stats" {
			if err := json.Unmarshal(r.Result, &st); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st.SpillLoads == 0 || st.SpillDrawsSaved == 0 {
		t.Errorf("warm restart did not load from disk: %+v", st)
	}

	// -warm without -spill-dir is a configuration error.
	if err := run([]string{"-file", path, "-warm"}, strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Error("-warm without -spill-dir accepted")
	}
}

func TestServeErrors(t *testing.T) {
	if err := run([]string{}, strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Error("missing graph source accepted")
	}
	if err := run([]string{"-file", "/nonexistent"}, strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Error("missing file accepted")
	}
	// Malformed request lines are answered, not fatal.
	path := graphFile(t)
	got := runServe(t, []string{"-file", path}, "not json\n")
	if len(got) != 1 || got[0].OK {
		t.Errorf("malformed line: %+v", got)
	}
}

func TestServeDataset(t *testing.T) {
	got := runServe(t, []string{"-dataset", "Wiki", "-scale", "0.02"}, `{"id":1,"op":"stats"}`+"\n")
	if len(got) != 1 || !got[0].OK {
		t.Fatalf("stats on generated dataset: %+v", got)
	}
}

// TestServeDelta: the "delta" op mutates the served graph in place, and
// every answer after it matches a server started cold on the mutated
// graph — migration by repair is invisible to clients. A delta that
// makes a queried pair adjacent dissolves it.
func TestServeDelta(t *testing.T) {
	path := graphFile(t)
	const deltaQueries = `{"id":1,"op":"pmax","s":0,"t":5,"trials":4000}
{"id":2,"op":"pmaxest","s":0,"t":4,"eps":0.2,"n":50,"trials":100000}
{"id":3,"op":"delta","add":[[6,7],[5,7]]}
{"id":4,"op":"pmax","s":0,"t":5,"trials":4000}
{"id":5,"op":"solve","s":0,"t":5,"alpha":0.3,"eps":0.1,"n":50,"realizations":4000}
{"id":6,"op":"pmaxest","s":0,"t":4,"eps":0.2,"n":50,"trials":100000}
{"id":7,"op":"pmax","s":0,"t":3,"trials":4000}
{"id":8,"op":"delta","add":[[0,3]]}
{"id":9,"op":"solve","s":0,"t":3}
{"id":10,"op":"stats"}
`
	got := runServe(t, []string{"-file", path, "-seed", "7"}, deltaQueries)
	if len(got) != 10 {
		t.Fatalf("got %d responses, want 10", len(got))
	}
	for _, r := range got[:8] {
		if !r.OK {
			t.Fatalf("id %d (%s): error %q", r.ID, r.Op, r.Error)
		}
	}
	var sum struct {
		NumEdges      int64
		PairsMigrated int
		PairsDropped  int
	}
	if err := json.Unmarshal(got[2].Result, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.NumEdges != 12 || sum.PairsMigrated != 2 {
		t.Errorf("delta summary: %+v, want 12 edges and 2 pairs migrated", sum)
	}
	// Post-delta answers must match a server started cold on the mutated
	// graph — clients can't tell repair from a rebuild.
	mutated := filepath.Join(t.TempDir(), "g2.txt")
	if err := os.WriteFile(mutated, []byte(diamond+"6 7\n5 7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cold := runServe(t, []string{"-file", mutated, "-seed", "7"}, `{"id":4,"op":"pmax","s":0,"t":5,"trials":4000}
{"id":5,"op":"solve","s":0,"t":5,"alpha":0.3,"eps":0.1,"n":50,"realizations":4000}
{"id":6,"op":"pmaxest","s":0,"t":4,"eps":0.2,"n":50,"trials":100000}
`)
	for i, want := range cold {
		r := got[3+i]
		if r.Op == "pmaxest" {
			// reused/sampled legitimately differ (the warm server reuses
			// pre-delta draws from undamaged chunks); the estimate may not.
			var a, b struct {
				Pmax  float64 `json:"pmax"`
				Draws int64   `json:"draws"`
			}
			if err := json.Unmarshal(r.Result, &a); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(want.Result, &b); err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("id %d diverged from cold server: %+v, want %+v", r.ID, a, b)
			}
			continue
		}
		if string(r.Result) != string(want.Result) {
			t.Errorf("id %d diverged from cold server:\n got %s\nwant %s", r.ID, r.Result, want.Result)
		}
	}
	// The second delta made the live (0,3) pair adjacent: it is dissolved,
	// and subsequent queries for it are rejected.
	if got[8].OK || got[8].Error == "" {
		t.Errorf("dissolved pair still answers: %+v", got[8])
	}
	var st struct {
		DeltasApplied int64
		PairsDropped  int64
	}
	if err := json.Unmarshal(got[9].Result, &st); err != nil {
		t.Fatal(err)
	}
	if st.DeltasApplied != 2 || st.PairsDropped == 0 {
		t.Errorf("stats after deltas: %+v", st)
	}
}

// TestServeSolveMaxSweep: a "budgets" list answers the whole sweep in one
// response, and each entry matches the corresponding single-budget query.
func TestServeSolveMaxSweep(t *testing.T) {
	path := graphFile(t)
	const sweepQueries = `{"id":1,"op":"solvemax","s":0,"t":5,"budgets":[1,2,3],"realizations":4000}
{"id":2,"op":"solvemax","s":0,"t":5,"budget":1,"realizations":4000}
{"id":3,"op":"solvemax","s":0,"t":5,"budget":2,"realizations":4000}
{"id":4,"op":"solvemax","s":0,"t":5,"budget":3,"realizations":4000}
`
	got := runServe(t, []string{"-file", path, "-seed", "7"}, sweepQueries)
	if len(got) != 4 {
		t.Fatalf("got %d responses, want 4", len(got))
	}
	for _, r := range got {
		if !r.OK {
			t.Fatalf("id %d: error %q", r.ID, r.Error)
		}
	}
	var sweep []json.RawMessage
	if err := json.Unmarshal(got[0].Result, &sweep); err != nil {
		t.Fatalf("sweep result not an array: %v", err)
	}
	if len(sweep) != 3 {
		t.Fatalf("sweep has %d entries, want 3", len(sweep))
	}
	for i, want := range got[1:] {
		if string(sweep[i]) != string(want.Result) {
			t.Errorf("budget %d: sweep entry %s != single response %s", i+1, sweep[i], want.Result)
		}
	}
}

// TestServeTopK: the "topk" op answers a batched ranking request, its
// winners come ranked best-first, and the answer is deterministic across
// concurrency and byte-budget settings like every other query.
func TestServeTopK(t *testing.T) {
	path := graphFile(t)
	const topkQueries = `{"id":1,"op":"topk","s":0,"targets":[3,4,5,6,7],"k":2,"budget":2,"realizations":2048}
{"id":2,"op":"topk","s":0,"targets":[3,4,5,6,7],"k":2,"budget":2,"realizations":2048,"maxdraws":10240}
{"id":3,"op":"topk","s":0,"k":2,"budget":2}
`
	got := runServe(t, []string{"-file", path, "-seed", "7"}, topkQueries)
	if len(got) != 3 {
		t.Fatalf("got %d responses, want 3", len(got))
	}
	type topk struct {
		Winners []struct {
			Target int32
			Score  float64
		}
		Candidates []struct{ Target int32 }
		DrawsSpent int64
	}
	var full topk
	if !got[0].OK {
		t.Fatalf("topk: error %q", got[0].Error)
	}
	if err := json.Unmarshal(got[0].Result, &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Winners) != 2 || len(full.Candidates) != 5 {
		t.Fatalf("topk shape: %d winners, %d candidates", len(full.Winners), len(full.Candidates))
	}
	if full.Winners[0].Score < full.Winners[1].Score {
		t.Errorf("winners not ranked best-first: %+v", full.Winners)
	}
	// The scheduled run answers under a tighter draw bill.
	var sched topk
	if !got[1].OK {
		t.Fatalf("scheduled topk: error %q", got[1].Error)
	}
	if err := json.Unmarshal(got[1].Result, &sched); err != nil {
		t.Fatal(err)
	}
	if sched.DrawsSpent >= full.DrawsSpent {
		t.Errorf("scheduled run spent %d draws, full run %d", sched.DrawsSpent, full.DrawsSpent)
	}
	// Missing targets is a client error, not a crash.
	if got[2].OK || got[2].Error == "" {
		t.Errorf("topk without targets: %+v", got[2])
	}
	// Determinism: concurrency and eviction change latency, not answers.
	for _, extra := range [][]string{
		{"-j", "4"},
		{"-maxbytes", "16384", "-workers", "2"},
	} {
		again := runServe(t, append([]string{"-file", path, "-seed", "7"}, extra...), topkQueries)
		for i := range got[:2] {
			var a, b topk
			if err := json.Unmarshal(got[i].Result, &a); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(again[i].Result, &b); err != nil {
				t.Fatal(err)
			}
			// DrawsSpent legitimately varies with eviction; winner
			// identity and scores do not.
			a.DrawsSpent, b.DrawsSpent = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%v: id %d diverged:\n got %+v\nwant %+v", extra, got[i].ID, b, a)
			}
		}
	}
}

// TestServeMetrics: -metrics-addr enables the observability layer
// without changing any answer, and the stats op then carries the
// registry snapshot — still unmarshaling flat as plain ServerStats.
func TestServeMetrics(t *testing.T) {
	path := graphFile(t)
	plain := runServe(t, []string{"-file", path, "-seed", "7"}, queries)
	instr := runServe(t, []string{"-file", path, "-seed", "7",
		"-metrics-addr", "127.0.0.1:0", "-slow-query", "1ns"}, queries)
	if len(instr) != len(plain) {
		t.Fatalf("got %d responses, want %d", len(instr), len(plain))
	}
	for i := range plain {
		if plain[i].Op == "stats" {
			continue
		}
		if string(instr[i].Result) != string(plain[i].Result) || instr[i].OK != plain[i].OK {
			t.Errorf("id %d diverged under metrics:\n got %s\nwant %s",
				instr[i].ID, instr[i].Result, plain[i].Result)
		}
	}

	var stats struct {
		SessionsCreated int64 `json:"SessionsCreated"`
		Metrics         []struct {
			Name   string  `json:"name"`
			Labels string  `json:"labels"`
			Value  float64 `json:"value"`
		} `json:"metrics"`
	}
	for _, r := range instr {
		if r.Op != "stats" {
			continue
		}
		if err := json.Unmarshal(r.Result, &stats); err != nil {
			t.Fatal(err)
		}
	}
	if stats.SessionsCreated == 0 {
		t.Error("stats lost its flat ServerStats fields")
	}
	found := false
	for _, s := range stats.Metrics {
		if s.Name == "af_sessions_created_total" {
			found = true
			if s.Value != float64(stats.SessionsCreated) {
				t.Errorf("af_sessions_created_total = %v, ledger says %d", s.Value, stats.SessionsCreated)
			}
		}
	}
	if !found {
		t.Errorf("stats carries no af_sessions_created_total sample (%d samples)", len(stats.Metrics))
	}

	// Without metrics the stats payload has no metrics key at all.
	for _, r := range plain {
		if r.Op == "stats" && strings.Contains(string(r.Result), `"metrics"`) {
			t.Errorf("plain stats grew a metrics field: %s", r.Result)
		}
	}
}
