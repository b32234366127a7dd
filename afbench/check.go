package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/graph"
	"repro/internal/proto"
	"repro/internal/server"
	"repro/internal/weights"
)

// gateSamples is how many measured replies the correctness gate checks.
const gateSamples = 24

// gateIndexes picks the measured requests whose replies are checked:
// evenly spaced, skipping deltas (a delta's summary depends on which
// pairs happen to be live, so it has no reference answer).
func gateIndexes(tr *trace) []int {
	var out []int
	step := max(1, len(tr.Measured)/gateSamples)
	for i := step / 2; i < len(tr.Measured) && len(out) < gateSamples; i += step {
		j := i
		for j < len(tr.Measured) && tr.Measured[j].Req.Op == "delta" {
			j++
		}
		if j < len(tr.Measured) {
			out = append(out, j)
		}
	}
	return out
}

// referenceServer is a clean in-process server: same graph and seed as
// afserve, no byte budget, no spill, no admission limit, one worker.
func referenceServer(g *graph.Graph) *proto.Dispatcher {
	return proto.NewDispatcher(server.New(g, weights.NewDegree(g), server.Config{Seed: serverSeed, Workers: 1}))
}

// checkReplies is the answer-correctness gate: each checked reply's
// result must be byte-equal to the reference server's at the same graph
// epoch. The reference replays the trace's deltas up to that epoch.
func checkReplies(g *graph.Graph, tr *trace, replies map[int][]byte) error {
	ctx := context.Background()
	for i, got := range replies {
		r := tr.Measured[i]
		ref := referenceServer(g)
		for e := 0; e < r.Epoch; e++ {
			resp := ref.Dispatch(ctx, proto.Request{Op: "delta", Add: [][2]graph.Node{{tr.Deltas[e].U, tr.Deltas[e].V}}})
			if !resp.OK {
				return fmt.Errorf("reference delta %d: %s", e, resp.Error)
			}
		}
		want, err := json.Marshal(ref.Dispatch(ctx, r.Req))
		if err != nil {
			return err
		}
		if err := sameResult(r.Req.Op, got, want); err != nil {
			return fmt.Errorf("request %d (%s): %w", r.Req.ID, r.Line, err)
		}
	}
	return nil
}

// sameResult compares two reply lines' ok flags and result bytes. A
// topk's DrawsSpent is the pool growth the run caused, which depends on
// what the cache held, so it is left out of the comparison.
func sameResult(op string, got, want []byte) error {
	var a, b reply
	if err := json.Unmarshal(got, &a); err != nil {
		return fmt.Errorf("undecodable reply %q: %v", got, err)
	}
	if err := json.Unmarshal(want, &b); err != nil {
		return err
	}
	if !a.OK || !b.OK {
		return fmt.Errorf("ok=%v (%s), reference ok=%v (%s)", a.OK, a.Error, b.OK, b.Error)
	}
	ra, rb := []byte(a.Result), []byte(b.Result)
	if op == "topk" {
		ra, rb = withoutField(ra, "DrawsSpent"), withoutField(rb, "DrawsSpent")
	}
	if !bytes.Equal(ra, rb) {
		return fmt.Errorf("result differs from reference:\n got %.300s\nwant %.300s", ra, rb)
	}
	return nil
}

func withoutField(obj []byte, field string) []byte {
	var m map[string]json.RawMessage
	if json.Unmarshal(obj, &m) != nil {
		return obj
	}
	delete(m, field)
	out, _ := json.Marshal(m)
	return out
}
