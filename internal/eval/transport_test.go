package eval

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestTransportParity(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(t, g, samplePairsForTest(t, g, 3))
	res, err := TransportParity(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 requests per pair + one topk + one stats.
	if want := 3*3 + 2; res.Queries != want {
		t.Errorf("Queries = %d, want %d", res.Queries, want)
	}
	if !res.Identical || res.Mismatches != 0 {
		m := res.FirstMismatch
		t.Errorf("transports diverged on %d of %d lines; first at request %s\n direct: %s\n pipe:   %s\n http:   %s",
			res.Mismatches, res.Queries, m.Request, m.Direct, m.Pipe, m.HTTP)
	}
	if res.FirstMismatch != (TransportMismatch{}) {
		t.Errorf("FirstMismatch = %+v, want empty when the streams match", res.FirstMismatch)
	}
	if res.Direct <= 0 || res.Pipe <= 0 || res.HTTP <= 0 {
		t.Errorf("missing timings: %+v", res)
	}

	if _, err := TransportParity(context.Background(), Config{Graph: g, Weights: cfg.Weights}); !errors.Is(err, ErrNoPairs) {
		t.Errorf("no pairs: err = %v", err)
	}
}

// TestRenderTransportMismatch: the render shows the first mismatching
// request and its three replies only when the streams diverged.
func TestRenderTransportMismatch(t *testing.T) {
	render := func(res *TransportParityResult) string {
		var sb strings.Builder
		if err := RenderTransport("Wiki", res).WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if out := render(&TransportParityResult{Queries: 11, Identical: true}); strings.Contains(out, "first mismatch") {
		t.Errorf("identical run renders mismatch columns:\n%s", out)
	}
	out := render(&TransportParityResult{Queries: 11, Mismatches: 1, FirstMismatch: TransportMismatch{
		Request: `{"id":4,"op":"pmax"}`, Direct: `{"id":4,"pmax":0.5}`, Pipe: `{"id":4,"pmax":0.5}`, HTTP: `{"id":4,"pmax":0.25}`,
	}})
	for _, want := range []string{"first mismatch", `{"id":4,"op":"pmax"}`, `{"id":4,"pmax":0.5}`, `{"id":4,"pmax":0.25}`} {
		if !strings.Contains(out, want) {
			t.Errorf("mismatch render lacks %q:\n%s", want, out)
		}
	}
}
