package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/proto"
	"repro/internal/proto/httpapi"
	"repro/internal/server"
)

// TransportParityResult summarizes the transport-parity experiment: the
// same query workload answered three ways — direct Dispatcher calls,
// the pipe's line protocol, and a live HTTP endpoint — with per-path
// wall-clock time and a byte-identity verdict over the reply streams.
type TransportParityResult struct {
	Queries int
	// Direct, Pipe and HTTP are the wall-clock times of the three runs
	// over the identical workload; the gaps are pure protocol overhead
	// (JSON decode for Pipe, plus loopback HTTP for HTTP).
	Direct time.Duration
	Pipe   time.Duration
	HTTP   time.Duration
	// Identical reports that all three reply streams were byte-identical
	// line for line; Mismatches counts the lines that were not, and
	// FirstMismatch holds the first of them (zero when none).
	Identical     bool
	Mismatches    int
	FirstMismatch TransportMismatch
}

// TransportMismatch is one request line whose three replies differ.
type TransportMismatch struct {
	Request, Direct, Pipe, HTTP string
}

// TransportParity proves answer-invariance across transports end to
// end: a mixed workload (pmax, solvemax, acceptance estimate, pmax
// refinement, one top-k batch, a final stats ledger) is built once as
// request lines, then served by three fresh servers with the same seed
// — one queried through the Dispatcher directly, one through
// DispatchLine (the pipe path), one through a live HTTP listener
// speaking NDJSON. Every answer is a pure function of (seed, s, t), so
// the three reply streams must match byte for byte; any divergence is
// a transport bug, not noise. cfg.Server is ignored: the experiment
// owns all three server lifetimes.
func TransportParity(ctx context.Context, cfg Config) (*TransportParityResult, error) {
	c := cfg.withDefaults()
	if len(c.Pairs) == 0 {
		return nil, fmt.Errorf("%w: no pairs", ErrNoPairs)
	}

	var reqs []proto.Request
	id := int64(0)
	add := func(r proto.Request) {
		id++
		r.ID = id
		reqs = append(reqs, r)
	}
	for _, p := range c.Pairs {
		add(proto.Request{Op: "pmax", S: p.S, T: p.T, Trials: c.MaxPmaxDraws})
		add(proto.Request{Op: "solvemax", S: p.S, T: p.T, Budget: 3, Realizations: c.MaxRealizations})
		add(proto.Request{Op: "pmaxest", S: p.S, T: p.T, Eps: 0.25, N: 50, Trials: c.MaxPmaxDraws})
	}
	// One batched ranking: the first pair's source ranks every target.
	targets := make([]graph.Node, 0, len(c.Pairs))
	for _, p := range c.Pairs {
		targets = append(targets, p.T)
	}
	add(proto.Request{Op: "topk", S: c.Pairs[0].S, Targets: targets, K: 2, Budget: 3, Realizations: 4096})
	// The stats ledger is part of the contract: three servers that saw
	// the identical sequence must agree on every counter.
	add(proto.Request{Op: "stats"})

	var lines [][]byte
	for _, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		lines = append(lines, b)
	}

	newServer := func() *server.Server {
		return server.New(c.Graph, c.Weights, server.Config{
			Seed: c.Seed, Workers: c.Workers, Obs: c.Obs,
		})
	}
	encodeAll := func(dispatch func(i int) proto.Response) ([]string, error) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := range reqs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := enc.Encode(dispatch(i)); err != nil {
				return nil, err
			}
		}
		return strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n"), nil
	}

	res := &TransportParityResult{Queries: len(reqs)}

	dDirect := proto.NewDispatcher(newServer())
	start := time.Now()
	direct, err := encodeAll(func(i int) proto.Response { return dDirect.Dispatch(ctx, reqs[i]) })
	if err != nil {
		return nil, err
	}
	res.Direct = time.Since(start)

	dPipe := proto.NewDispatcher(newServer())
	start = time.Now()
	pipe, err := encodeAll(func(i int) proto.Response { return dPipe.DispatchLine(ctx, lines[i]) })
	if err != nil {
		return nil, err
	}
	res.Pipe = time.Since(start)

	ts := httptest.NewServer(httpapi.New(proto.NewDispatcher(newServer())))
	defer ts.Close()
	body := append(bytes.Join(lines, []byte("\n")), '\n')
	start = time.Now()
	resp, err := http.Post(ts.URL, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	replies, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.HTTP = time.Since(start)
	if rerr != nil {
		return nil, rerr
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("transport parity: HTTP batch status %d", resp.StatusCode)
	}
	httpLines := strings.Split(strings.TrimSuffix(string(replies), "\n"), "\n")

	if len(pipe) != len(direct) || len(httpLines) != len(direct) {
		return nil, fmt.Errorf("transport parity: reply counts diverged: direct %d, pipe %d, http %d",
			len(direct), len(pipe), len(httpLines))
	}
	for i := range direct {
		if pipe[i] != direct[i] || httpLines[i] != direct[i] {
			if res.Mismatches == 0 {
				res.FirstMismatch = TransportMismatch{Request: string(lines[i]), Direct: direct[i], Pipe: pipe[i], HTTP: httpLines[i]}
			}
			res.Mismatches++
		}
	}
	res.Identical = res.Mismatches == 0
	return res, nil
}
