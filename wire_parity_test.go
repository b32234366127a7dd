package activefriending

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/proto"
	"repro/internal/server"
	"repro/internal/weights"
)

// TestFacadeMatchesProtocol: the public facade and the protocol
// dispatcher, each over its own server with the same graph and seed,
// answer the same query sequence with the same values — the facade's
// result marshals to exactly the bytes of the protocol reply's result.
// Zero-valued parameters (solve's α/ε/N, topk's budget) exercise the
// shared defaults; the delta and the final stats check that both paths
// carry the same state forward.
func TestFacadeMatchesProtocol(t *testing.T) {
	g := diamondChain()
	ctx := context.Background()
	sv := NewServer(g, ServerConfig{Seed: 9})
	d := proto.NewDispatcher(server.New(g, weights.NewDegree(g), server.Config{Seed: 9}))
	targets := []Node{5, 8, 9, 3}
	steps := []struct {
		req    proto.Request
		facade func() (any, error)
	}{
		{proto.Request{Op: "solve", S: 0, T: 5},
			func() (any, error) { return sv.Solve(ctx, 0, 5, Options{}) }},
		{proto.Request{Op: "solvemax", S: 0, T: 5, Budget: 2, Realizations: 2000},
			func() (any, error) { return sv.SolveMax(ctx, 0, 5, 2, 2000) }},
		{proto.Request{Op: "solvemax", S: 0, T: 3, Budgets: []int{1, 2, 3}, Realizations: 2000},
			func() (any, error) { return sv.SolveMaxBudgets(ctx, 0, 3, []int{1, 2, 3}, 2000) }},
		{proto.Request{Op: "topk", S: 0, Targets: targets, K: 2, Realizations: 2000},
			func() (any, error) { return sv.TopK(ctx, 0, targets, 2, TopKOptions{Realizations: 2000}) }},
		{proto.Request{Op: "delta", Add: [][2]Node{{6, 7}}},
			func() (any, error) { return sv.ApplyDelta(ctx, &Delta{Add: []Edge{{U: 6, V: 7}}}) }},
		{proto.Request{Op: "solvemax", S: 0, T: 5, Budget: 2, Realizations: 2000},
			func() (any, error) { return sv.SolveMax(ctx, 0, 5, 2, 2000) }},
		{proto.Request{Op: "stats"},
			func() (any, error) { return sv.Stats(), nil }},
	}
	for i, st := range steps {
		want, err := st.facade()
		if err != nil {
			t.Fatalf("step %d (%s): facade: %v", i, st.req.Op, err)
		}
		resp := d.Dispatch(ctx, st.req)
		if !resp.OK {
			t.Fatalf("step %d (%s): dispatch: %s", i, st.req.Op, resp.Error)
		}
		wb, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		var reply struct{ Result json.RawMessage }
		if err := json.Unmarshal(rb, &reply); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, reply.Result) {
			t.Errorf("step %d (%s): facade and protocol diverged\nfacade   %s\nprotocol %s", i, st.req.Op, wb, reply.Result)
		}
	}
}
