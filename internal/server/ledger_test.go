package server

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/weights"
)

// TestLedgerTableComplete: every Stats field is filled by exactly one
// ledger row, every counter slot belongs to exactly one row, and a
// distinct value written to each slot shows up in Stats, in the metric
// snapshot and on /statusz.
func TestLedgerTableComplete(t *testing.T) {
	// Every leaf of Stats (kind tallies descend into KindStats) is
	// filled by exactly one row.
	fills := map[string]int{}
	for _, r := range ledgerRows {
		if r.field != "" {
			fills[r.field]++
		}
	}
	for field := range statsLeaves(reflect.ValueOf(Stats{}), "") {
		if n := fills[field]; n != 1 {
			t.Errorf("Stats.%s is filled by %d rows, want 1", field, n)
		}
	}

	// Every slot is read by exactly one row.
	slots := map[counter]int{}
	for _, r := range ledgerRows {
		if r.read == nil {
			slots[r.slot]++
		}
	}
	for c := counter(0); c < numCounters; c++ {
		if slots[c] != 1 {
			t.Errorf("counter slot %d is read by %d rows, want 1", c, slots[c])
		}
	}

	g := testGraph(40, 60)
	o := obs.New()
	sv := New(g, weights.NewDegree(g), Config{Seed: 7, Obs: o})
	for c := counter(0); c < numCounters; c++ {
		sv.ledger[c].Add(int64(1000 + 7*c))
	}
	st := statsLeaves(reflect.ValueOf(sv.Stats()), "")
	samples := map[string]float64{}
	for _, s := range o.Registry.Snapshot() {
		series := strings.TrimPrefix(s.Name, "af_")
		if s.Labels != "" {
			series += "{" + s.Labels + "}"
		}
		samples[series] = s.Value
	}
	var sz strings.Builder
	sv.WriteStatusz(&sz)
	statusz := sz.String()

	for _, r := range ledgerRows {
		want := r.value(sv)
		if r.read == nil && want != int64(1000+7*r.slot) {
			t.Errorf("row %q/%q reads %d from its slot, want %d", r.field, r.name, want, 1000+7*r.slot)
		}
		if got, ok := st[r.field]; r.field != "" && (!ok || got != want) {
			t.Errorf("Stats.%s = %d (present %v), want %d", r.field, got, ok, want)
		}
		if r.name == "" {
			continue
		}
		if got, ok := samples[r.series()]; !ok || got != float64(want) {
			t.Errorf("metric %s = %v (registered %v), want %d", r.series(), got, ok, want)
		}
		if r.group != "" && !strings.Contains(statusz, fmt.Sprintf(" %s=%d", r.series(), want)) {
			t.Errorf("statusz does not report %s=%d:\n%s", r.series(), want, statusz)
		}
	}
	for k := KindSolve; k < numKinds; k++ {
		hits, misses := sv.kindCounts(k)
		if line := fmt.Sprintf("kind %-9s hits=%d misses=%d", k, hits, misses); !strings.Contains(statusz, line) {
			t.Errorf("statusz is missing %q:\n%s", line, statusz)
		}
	}
	// SpillLoadErrors is the sum of its cause rows.
	var causes int64
	for c := ctrSpillLoadErrChecksum; c <= ctrSpillLoadErrOther; c++ {
		causes += int64(1000 + 7*c)
	}
	if got := sv.Stats().SpillLoadErrors; got != causes {
		t.Errorf("SpillLoadErrors = %d, want the cause sum %d", got, causes)
	}
}

// statsLeaves flattens a Stats value to its integer leaves, keyed by
// dotted field path ("Solve.Hits").
func statsLeaves(v reflect.Value, prefix string) map[string]int64 {
	out := map[string]int64{}
	for i := 0; i < v.NumField(); i++ {
		name := prefix + v.Type().Field(i).Name
		if f := v.Field(i); f.Kind() == reflect.Struct {
			for k, x := range statsLeaves(f, name+".") {
				out[k] = x
			}
		} else {
			out[name] = f.Int()
		}
	}
	return out
}
