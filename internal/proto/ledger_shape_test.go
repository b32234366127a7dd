package proto

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/weights"
)

var updateLedgerShape = flag.Bool("update-ledger-shape", false, "rewrite testdata/ledger_shape.golden")

// ledgerShapeWorkload touches every query kind, the refine path and a
// delta, so every ledger series has been written at least once.
var ledgerShapeWorkload = []string{
	`{"id":1,"op":"solve","s":0,"t":5,"realizations":2000}`,
	`{"id":2,"op":"solvemax","s":0,"t":5,"budget":2,"realizations":2000}`,
	`{"id":3,"op":"solvemax","s":0,"t":5,"budgets":[1,2],"realizations":2000}`,
	`{"id":4,"op":"acceptance","s":0,"t":5,"invited":[3,5],"trials":2000}`,
	`{"id":5,"op":"pmax","s":0,"t":5,"trials":2000}`,
	`{"id":6,"op":"pmaxest","s":0,"t":5,"trials":4096}`,
	`{"id":7,"op":"topk","s":0,"targets":[3,4,5],"k":2,"budget":2,"realizations":2000,"maxdraws":4000}`,
	`{"id":8,"op":"topkrefine","s":0,"targets":[3,4,5],"k":2,"budget":2,"realizations":2000,"extradraws":4000}`,
	`{"id":9,"op":"delta","add":[[1,2]]}`,
	`{"id":10,"op":"solvemax","s":0,"t":5,"budget":2,"realizations":2000}`,
}

// TestLedgerShape pins the serving ledger's outward shape: the /metrics
// series list (TYPE lines and series identities in exposition order,
// values dropped) and the key order of the stats reply's JSON, nested
// kind objects included — once for a fresh server and once after a
// fixed small workload. Scrapers and the afbench client (statsReply)
// parse these names, so they are a contract: a change here must be a
// declared one. Regenerate with -update-ledger-shape.
func TestLedgerShape(t *testing.T) {
	g, err := gen.ReadEdgeList(strings.NewReader(diamond))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	d := NewDispatcher(server.New(g, weights.NewDegree(g), server.Config{Seed: 3, Workers: 1, Obs: o}))
	ctx := context.Background()

	var b strings.Builder
	section := func(name string) {
		fmt.Fprintf(&b, "== %s: /metrics\n", name)
		var exp bytes.Buffer
		if err := o.Registry.WritePrometheus(&exp); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSuffix(exp.String(), "\n"), "\n") {
			switch {
			case strings.HasPrefix(line, "# HELP "):
			case strings.HasPrefix(line, "# TYPE "):
				b.WriteString(line + "\n")
			default:
				b.WriteString(line[:strings.LastIndexByte(line, ' ')] + "\n")
			}
		}
		fmt.Fprintf(&b, "== %s: stats keys\n", name)
		resp := d.DispatchLine(ctx, []byte(`{"op":"stats"}`))
		if !resp.OK {
			t.Fatalf("stats: %+v", resp)
		}
		raw, err := json.Marshal(resp.Result)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range jsonKeyPaths(t, raw) {
			b.WriteString(k + "\n")
		}
	}
	section("fresh")
	for _, line := range ledgerShapeWorkload {
		if resp := d.DispatchLine(ctx, []byte(line)); !resp.OK {
			t.Fatalf("%s: %s", line, resp.Error)
		}
	}
	section("workload")

	const golden = "testdata/ledger_shape.golden"
	if *updateLedgerShape {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("ledger shape drifted from %s\ngot:\n%s", golden, got)
	}
}

// jsonKeyPaths lists every object key of the JSON value in b in
// document order, dotted by nesting; arrays are skipped.
func jsonKeyPaths(t *testing.T, b []byte) []string {
	dec := json.NewDecoder(bytes.NewReader(b))
	var keys []string
	var walk func(prefix string)
	walk = func(prefix string) {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		switch tok {
		case json.Delim('{'):
			for dec.More() {
				k, err := dec.Token()
				if err != nil {
					t.Fatal(err)
				}
				keys = append(keys, prefix+k.(string))
				walk(prefix + k.(string) + ".")
			}
			dec.Token()
		case json.Delim('['):
			for dec.More() {
				var skip json.RawMessage
				if err := dec.Decode(&skip); err != nil {
					t.Fatal(err)
				}
			}
			dec.Token()
		}
	}
	walk("")
	return keys
}
