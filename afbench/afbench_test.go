package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

// afserveBin is built once from the repository's cmd/afserve.
var afserveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "afbench-test-")
	if err != nil {
		panic(err)
	}
	afserveBin = filepath.Join(dir, "afserve")
	cmd := exec.Command("go", "build", "-o", afserveBin, "repro/cmd/afserve")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tinyScale runs the workloads on a small graph for the duration of a test.
func tinyScale(t *testing.T) {
	old := graphScale
	graphScale = 0.05
	t.Cleanup(func() { graphScale = old })
}

func TestTraceDeterministic(t *testing.T) {
	g, err := loadGraph()
	if err != nil {
		t.Fatal(err)
	}
	pp := newPairPicker(g)
	for _, w := range workloads {
		a, b := makeTrace(w, g, 7, 300), makeTrace(w, g, 7, 300)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two traces for seed 7 differ", w.Name)
		}
		c := makeTrace(w, g, 8, 300)
		if reflect.DeepEqual(a.Measured, c.Measured) {
			t.Errorf("%s: seeds 7 and 8 gave the same requests", w.Name)
		}
		if !reflect.DeepEqual(a.Pairs, c.Pairs) {
			t.Errorf("%s: the pair universe depends on the seed", w.Name)
		}
		for _, p := range a.Pairs {
			if !pp.valid(p[0], p[1]) {
				t.Errorf("%s: pair %v is equal, adjacent or unreachable", w.Name, p)
			}
		}
		for _, r := range a.Measured {
			if r.Req.Op == "delta" {
				e := r.Req.Add[0]
				if g.HasEdge(e[0], e[1]) {
					t.Errorf("%s: delta adds existing edge %v", w.Name, e)
				}
			}
		}
	}
	// hot-mix holds its op mix exactly in every block of ten.
	w, _ := workloadByName("hot-mix")
	tr := makeTrace(w, g, 7, 300)
	ops := map[string]int{}
	for _, r := range tr.Measured {
		ops[r.Req.Op]++
	}
	if want := map[string]int{"solvemax": 120, "acceptance": 90, "pmax": 60, "solve": 30}; !reflect.DeepEqual(ops, want) {
		t.Errorf("hot-mix op mix %v, want %v", ops, want)
	}
}

// stackReplies answers a trace's warm-up and measured requests through an
// in-process stack configured like afserve, returning the measured replies.
func stackReplies(t *testing.T, w workload, tr *trace) [][]byte {
	t.Helper()
	g, err := loadGraph()
	if err != nil {
		t.Fatal(err)
	}
	st, err := newStack(g, w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	c := dispatchCaller{st.d}
	for _, r := range tr.Warm {
		c.call(r.Line)
	}
	var out [][]byte
	for _, r := range tr.Measured {
		b, err := c.call(r.Line)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func TestGateRejectsAlteredReply(t *testing.T) {
	tinyScale(t)
	g, err := loadGraph()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hot-mix", "rank-delta"} {
		w, _ := workloadByName(name)
		tr := makeTrace(w, g, 5, 120)
		replies := stackReplies(t, w, tr)
		checked := map[int][]byte{}
		last := -1
		for _, i := range gateIndexes(tr) {
			checked[i] = replies[i]
			last = i
		}
		if err := checkReplies(g, tr, checked); err != nil {
			t.Fatalf("%s: gate rejected correct replies: %v", name, err)
		}
		if name == "rank-delta" && tr.Measured[last].Epoch == 0 {
			t.Fatalf("rank-delta: no checked reply is past a delta")
		}
		// Alter one number inside the result of the last checked reply.
		var r reply
		if err := json.Unmarshal(replies[last], &r); err != nil {
			t.Fatal(err)
		}
		k := bytes.IndexAny(r.Result, "123456789")
		if k < 0 {
			t.Fatalf("%s: no digit to alter in %s", name, r.Result)
		}
		altered := bytes.Replace(replies[last], r.Result, append(append(append([]byte{}, r.Result[:k]...), '0'), r.Result[k+1:]...), 1)
		checked[last] = altered
		if err := checkReplies(g, tr, checked); err == nil {
			t.Errorf("%s: gate accepted an altered reply: %s", name, altered)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func checkNames(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok || g.Unit != m.Unit {
			t.Errorf("%s: metric %s printed as %+v (present=%v), want unit %s", what, m.Name, g, ok, m.Unit)
		}
	}
}

// TestSmoke runs every workload end to end against a real afserve at a
// tiny scale, then the traced pass, and checks the output against
// BENCHMARK.json.
func TestSmoke(t *testing.T) {
	tinyScale(t)
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	g, err := loadGraph()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			tr := makeTrace(w, g, 3, 100)
			dir := t.TempDir()
			e2e, err := endToEnd(afserveBin, dir, w, tr)
			if err != nil {
				t.Fatal(err)
			}
			if e2e.failed != 0 || e2e.stats.Rejected != 0 {
				t.Errorf("%d failed, %d rejected", e2e.failed, e2e.stats.Rejected)
			}
			if err := checkReplies(g, tr, e2e.checked); err != nil {
				t.Error(err)
			}
			checkNames(t, "end-to-end", e2e.metrics, spec.EndToEnd)
			lr, err := layers(g, w, tr, e2e, dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(lr.failures) > 0 {
				t.Errorf("traced pass failures: %v", lr.failures)
			}
			checkNames(t, "per-layer", lr.metrics, spec.PerLayer)
			if w.Name == "cold-churn" && lr.metrics["bench.counts_repeat"].Value != 1 {
				t.Errorf("cold-churn counts did not repeat")
			}
			if w.Name == "hot-mix" && lr.metrics["server.hit_frac"].Value != 1 {
				t.Errorf("hot-mix hit_frac %v, want 1", lr.metrics["server.hit_frac"].Value)
			}
		})
	}
}
