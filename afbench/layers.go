package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ltm"
	"repro/internal/maxaf"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/proto/httpapi"
	"repro/internal/server"
	"repro/internal/setcover"
	"repro/internal/weights"
)

// The traced pass replays the workload's trace through an in-process copy
// of the afserve stack and times the calls into each layer's public entry
// points from here; the program itself records nothing. A layer's self
// time is the difference between adjacent entry points on the same
// (cached) request: HTTP round trip → proto.Dispatcher.DispatchLine →
// server.Server method → session calls through Server.Pair handles.

const (
	hitProbePairs  = 16 // pairs timed at every layer boundary
	hitProbeReps   = 5  // repetitions per (pair, op, layer); median kept
	coldProbePairs = 8  // pairs whose cold path is timed layer by layer
	pmaxEps0       = 0.1
	pmaxN          = 1e5
	pmaxMaxDraws   = 2000000
)

// stack is an in-process afserve: the same server configuration, the
// protocol dispatcher, and the HTTP handler on a loopback listener.
type stack struct {
	sv   *server.Server
	d    *proto.Dispatcher
	http *httptest.Server
}

func newStack(g *graph.Graph, w workload, workDir string) (*stack, error) {
	cfg := server.Config{MaxPoolBytes: w.Budget, Seed: serverSeed, Workers: w.Workers, MaxInflight: w.Jobs, MaxQueue: 16}
	if w.Spill {
		dir, err := os.MkdirTemp(workDir, "spill-")
		if err != nil {
			return nil, err
		}
		cfg.SpillDir = dir
	}
	if w.HTTP {
		cfg.Obs = obs.New() // afserve enables metrics with its HTTP listener
	}
	st := &stack{sv: server.New(g, weights.NewDegree(g), cfg)}
	st.d = proto.NewDispatcher(st.sv)
	mux := http.NewServeMux()
	mux.Handle("/v1/query", httpapi.New(st.d))
	st.http = httptest.NewServer(mux)
	return st, nil
}

func (st *stack) close() { st.http.Close() }

// dispatchCaller is the pipe transport without the pipe: decode,
// dispatch, encode, as afserve's stdin loop does.
type dispatchCaller struct{ d *proto.Dispatcher }

func (c dispatchCaller) call(line []byte) ([]byte, error) {
	b, err := json.Marshal(c.d.DispatchLine(context.Background(), line))
	return append(b, '\n'), err
}

func (st *stack) callers(w workload) []caller {
	out := make([]caller, w.Clients)
	for i := range out {
		if w.HTTP {
			out[i] = newHTTPCaller(st.http.Listener.Addr().String())
		} else {
			out[i] = dispatchCaller{st.d}
		}
	}
	return out
}

func (st *stack) stats() statsReply {
	b, _ := json.Marshal(st.d.Dispatch(context.Background(), proto.Request{Op: "stats"}))
	var r struct{ Result statsReply }
	json.Unmarshal(b, &r)
	return r.Result
}

type layerResult struct {
	metrics  map[string]metric
	failures []string
}

// layers runs the traced pass and returns the per-layer metrics.
func layers(g *graph.Graph, w workload, tr *trace, e2e *e2eResult, workDir string) (*layerResult, error) {
	lr := &layerResult{metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { lr.metrics[name] = metric{v, unit} }

	var gens []float64
	for i := 0; i < 3; i++ {
		_, d, err := timeGraph()
		if err != nil {
			return nil, err
		}
		gens = append(gens, d.Seconds())
	}
	put("gen.graph_s", "s", median(gens))

	// Primary replay: same transport, clients and trace as the untraced
	// run, plus a draw-ledger probe after every single-pair request.
	st, err := newStack(g, w, workDir)
	if err != nil {
		return nil, err
	}
	defer st.close()
	ledger := newDrawLedger(st.sv)
	probe := func(reqs []request) func(int) {
		return func(i int) {
			if r := reqs[i].Req; r.Op != "topk" && r.Op != "delta" {
				ledger.observe(r.S, r.T)
			}
		}
	}
	cs := st.callers(w)
	warm, _ := replay(cs, tr.Warm, probe(tr.Warm))
	for j, x := range warm {
		if !x.ok {
			return nil, fmt.Errorf("traced warm-up request %s failed: %s", tr.Warm[j].Line, x.reply)
		}
	}
	ledger.sampled = 0
	st0 := st.stats()
	samples, wall := replay(cs, tr.Measured, probe(tr.Measured))
	closeCallers(cs)
	counts := st.stats().sub(st0)
	n := float64(len(tr.Measured))
	put("bench.trace_overhead_frac", "fraction", wall.Seconds()/e2e.wall.Seconds()-1)

	drawsSampled := ledger.sampled
	for i, s := range samples {
		if tr.Measured[i].Req.Op == "topk" {
			var r struct{ Result proto.TopKResult }
			json.Unmarshal(s.reply, &r)
			drawsSampled += r.Result.DrawsSpent
		}
	}
	drawsSampled += counts.RepairDrawsResampled
	hits, misses := counts.hitsMisses()
	put("server.hit_frac", "fraction", float64(hits)/float64(max(hits+misses, 1)))
	put("server.evictions_per_req", "count", float64(counts.SessionsEvicted)/n)
	put("server.spill_loads_per_req", "count", float64(counts.SpillLoads)/n)
	put("server.coalesced_frac", "fraction", float64(counts.Coalesced)/n)
	put("server.rejected", "count", float64(counts.Rejected))
	put("engine.draws_sampled_per_req", "draws", float64(drawsSampled)/n)
	// Exact counts, as integers.
	put("server.hits", "count", float64(hits))
	put("server.misses", "count", float64(misses))
	put("server.evictions", "count", float64(counts.SessionsEvicted))
	put("server.spills", "count", float64(counts.Spills))
	put("server.spill_loads", "count", float64(counts.SpillLoads))
	put("engine.draws_sampled", "draws", float64(drawsSampled))
	put("engine.repair_draws_resampled", "draws", float64(counts.RepairDrawsResampled))
	put("server.pmax_draws_reused", "draws", float64(counts.PmaxDrawsReused))

	if counts.Rejected != 0 {
		lr.failures = append(lr.failures, fmt.Sprintf("traced pass: %d requests rejected", counts.Rejected))
	}
	// Exact-count gate: the in-process replay must count exactly what
	// afserve counted for the same trace. A difference is a steadiness
	// failure, not a wrong answer: the counts cannot back a count-based
	// claim on this workload. With two clients, coalescing and hit order
	// depend on timing, so hot-mix is not expected to repeat.
	repeat := 1.0
	if counts != e2e.stats {
		repeat = 0
		fmt.Fprintf(os.Stderr, "afbench: exact-count gate: counts did not repeat: afserve counted %+v, the in-process replay %+v\n", e2e.stats, counts)
	}
	put("bench.counts_repeat", "bool", repeat)
	if w.Name == "hot-mix" && (misses != 0 || drawsSampled != 0) {
		lr.failures = append(lr.failures, fmt.Sprintf("hot-mix measured phase missed %d times and sampled %d draws", misses, drawsSampled))
	}

	if err := rankReplay(g, w, tr, workDir, put); err != nil {
		return nil, err
	}
	if err := hitProbes(st, w, tr, put); err != nil {
		return nil, err
	}
	if err := coldProbes(g, w, tr, put); err != nil {
		return nil, err
	}
	return lr, nil
}

// drawLedger totals the draws the server's pair engines sample, read
// through Pair handles right after each request (the pair is then the
// most recently used, so the probe moves nothing in the LRU order). A
// pair first seen, or evicted and recreated, has a fresh engine whose
// ledger started at zero; spill restores charge nothing to it.
type drawLedger struct {
	sv      *server.Server
	mu      sync.Mutex
	last    map[[2]graph.Node]ledgerMark
	sampled int64
}

type ledgerMark struct {
	eng   *engine.Engine
	draws int64
}

func newDrawLedger(sv *server.Server) *drawLedger {
	return &drawLedger{sv: sv, last: map[[2]graph.Node]ledgerMark{}}
}

func (l *drawLedger) observe(s, t graph.Node) {
	l.mu.Lock()
	defer l.mu.Unlock()
	h, err := l.sv.Pair(s, t)
	if err != nil {
		return
	}
	eng := h.Core().Engine()
	d := eng.Draws()
	h.Done()
	k := [2]graph.Node{s, t}
	prev, ok := l.last[k]
	if ok && prev.eng == eng {
		l.sampled += d - prev.draws
	} else {
		l.sampled += d
	}
	l.last[k] = ledgerMark{eng, d}
}

// rankReplay replays a graph-writing trace's topk and delta requests
// straight into server.Server on a fresh stack, timing the rank scheduler
// and the delta path; graph.Delta.Apply is timed on its own. Traces
// without deltas report zeros.
func rankReplay(g *graph.Graph, w workload, tr *trace, workDir string, put func(string, string, float64)) error {
	var topk, delta, apply time.Duration
	var nTopk, nDelta, rounds, migrated int
	var planned, exhaustive, saved, resampled int64
	if len(tr.Deltas) > 0 {
		st, err := newStack(g, w, workDir)
		if err != nil {
			return err
		}
		defer st.close()
		ctx := context.Background()
		for _, r := range tr.Measured {
			q := r.Req
			switch q.Op {
			case "topk":
				t0 := time.Now()
				res, err := st.sv.TopK(ctx, server.TopKQuery{S: q.S, Targets: q.Targets, K: q.K, Budget: q.Budget, Realizations: q.Realizations, MaxDraws: q.MaxDraws})
				topk += time.Since(t0)
				if err != nil {
					return fmt.Errorf("rank replay: %v", err)
				}
				nTopk++
				rounds += res.Rounds
				planned += res.PlannedDraws
				exhaustive += res.ExhaustiveDraws
			case "delta":
				gd := &graph.Delta{Add: []graph.Edge{{U: q.Add[0][0], V: q.Add[0][1]}}}
				t0 := time.Now()
				if _, _, err := gd.Apply(st.sv.Graph()); err != nil {
					return err
				}
				apply += time.Since(t0)
				t0 = time.Now()
				res, err := st.sv.ApplyDelta(ctx, gd, nil)
				delta += time.Since(t0)
				if err != nil {
					return fmt.Errorf("rank replay: %v", err)
				}
				nDelta++
				migrated += res.PairsMigrated
				saved += res.Repair.DrawsSaved
				resampled += res.Repair.DrawsResampled
			}
		}
	}
	ms := func(d time.Duration, n int) float64 {
		return float64(d) / float64(time.Millisecond) / float64(max(n, 1))
	}
	put("rank.topk_ms", "ms", ms(topk, nTopk))
	put("rank.rounds", "count", float64(rounds)/float64(max(nTopk, 1)))
	put("rank.draws_frac", "fraction", float64(planned)/float64(max(exhaustive, 1)))
	put("server.delta_ms", "ms", ms(delta, nDelta))
	put("graph.delta_us", "us", 1000*ms(apply, nDelta))
	put("engine.repair_saved_frac", "fraction", float64(saved)/float64(max(saved+resampled, 1)))
	put("engine.repair_ms_per_pair", "ms", ms(delta, migrated))
	return nil
}

// solveConfig mirrors the protocol's defaults for a solve request.
func solveConfig(r proto.Request) core.Config {
	cfg := core.Config{Alpha: r.Alpha, Eps: r.Eps, N: r.N, MaxRealizations: 200000, MaxPmaxDraws: 2000000, OverrideL: r.Realizations}
	if cfg.Eps == 0 {
		cfg.Eps = 0.01
	}
	if cfg.N == 0 {
		cfg.N = 100000
	}
	return cfg
}

// probeOps are the cached single-pair queries timed at every layer: the
// hot-mix op variants.
func probeOps(w workload, s, t graph.Node) []proto.Request {
	return []proto.Request{
		{Op: "solvemax", S: s, T: t, Budgets: sweepBudgets, Realizations: w.L},
		{Op: "acceptance", S: s, T: t, Invited: []graph.Node{t}, Trials: w.L},
		{Op: "pmax", S: s, T: t, Trials: w.L},
		{Op: "solve", S: s, T: t, Alpha: 0.2, Eps: solveEps, Realizations: w.L},
	}
}

// hitProbes times cached requests at the four layer entry points, plus
// the solver, coverage and RAF calls below the session layer.
func hitProbes(st *stack, w workload, tr *trace, put func(string, string, float64)) error {
	ctx := context.Background()
	hc := newHTTPCaller(st.http.Listener.Addr().String())
	defer hc.close()
	var httpUs, lineUs, serverUs, sessUs, replyBytes []float64
	var scUs, maxafUs, covUs, rafMs []float64
	for _, p := range tr.Pairs[:min(hitProbePairs, len(tr.Pairs))] {
		ops := probeOps(w, p[0], p[1])
		lines := make([][]byte, len(ops))
		for i, q := range ops {
			lines[i], _ = json.Marshal(q)
			if r := st.d.DispatchLine(ctx, lines[i]); !r.OK {
				return fmt.Errorf("probe %s: %s", lines[i], r.Error)
			}
		}
		for i, q := range ops {
			var tHTTP, tLine, tServer, tSess []float64
			for rep := 0; rep < hitProbeReps; rep++ {
				t0 := time.Now()
				b, err := hc.call(lines[i])
				tHTTP = append(tHTTP, us(time.Since(t0)))
				if err != nil {
					return err
				}
				if rep == 0 {
					replyBytes = append(replyBytes, float64(len(b)))
				}
				t0 = time.Now()
				st.d.DispatchLine(ctx, lines[i])
				tLine = append(tLine, us(time.Since(t0)))
				t0 = time.Now()
				if err := callServer(ctx, st.sv, q); err != nil {
					return err
				}
				tServer = append(tServer, us(time.Since(t0)))
				h, err := st.sv.Pair(q.S, q.T)
				if err != nil {
					return err
				}
				lt, err := callSession(ctx, h, q)
				h.Done()
				if err != nil {
					return err
				}
				tSess = append(tSess, lt.total)
				if lt.maxaf > 0 {
					maxafUs = append(maxafUs, lt.maxaf)
				}
				if lt.coverage > 0 {
					covUs = append(covUs, lt.coverage)
				}
				if lt.raf > 0 {
					rafMs = append(rafMs, lt.raf/1000)
				}
				scUs = append(scUs, lt.setcover...)
			}
			httpUs = append(httpUs, median(tHTTP))
			lineUs = append(lineUs, median(tLine))
			serverUs = append(serverUs, median(tServer))
			sessUs = append(sessUs, median(tSess))
		}
	}
	put("httpapi.overhead_us", "us", mean(httpUs)-mean(lineUs))
	put("proto.dispatch_us", "us", mean(lineUs)-mean(serverUs))
	put("proto.reply_bytes", "bytes", mean(replyBytes))
	put("server.overhead_us", "us", mean(serverUs)-mean(sessUs))
	put("setcover.solve_us", "us", median(scUs))
	put("maxaf.solve_us", "us", median(maxafUs))
	put("engine.coverage_us", "us", median(covUs))
	put("core.raf_ms", "ms", median(rafMs))
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// callServer issues q straight to the server method the dispatcher uses.
func callServer(ctx context.Context, sv *server.Server, q proto.Request) error {
	var err error
	switch q.Op {
	case "solvemax":
		_, _, err = sv.SolveMaxBudgets(ctx, q.S, q.T, q.Budgets, q.Realizations)
	case "acceptance":
		_, err = sv.EstimateF(ctx, q.S, q.T, nodeSet(sv.Graph(), q.Invited), q.Trials)
	case "pmax":
		_, err = sv.Pmax(ctx, q.S, q.T, q.Trials)
	case "solve":
		_, err = sv.Solve(ctx, q.S, q.T, solveConfig(q))
	default:
		err = fmt.Errorf("no server call for op %q", q.Op)
	}
	return err
}

func nodeSet(g *graph.Graph, nodes []graph.Node) *graph.NodeSet {
	set := graph.NewNodeSet(g.NumNodes())
	for _, v := range nodes {
		set.Add(v)
	}
	return set
}

// sessionTimes are one request's session-level timings in µs.
type sessionTimes struct {
	total, maxaf, coverage, raf float64
	setcover                    []float64
}

// callSession answers q through the pair's sessions, as the server
// method does after acquiring the pair, timing each layer call.
func callSession(ctx context.Context, h *server.PairHandle, q proto.Request) (sessionTimes, error) {
	var lt sessionTimes
	t0 := time.Now()
	switch q.Op {
	case "solvemax":
		pool, err := h.Core().Pool(ctx, q.Realizations)
		if err != nil {
			return lt, err
		}
		t1 := time.Now()
		res, err := maxaf.SolveBudgetsFromPool(ctx, h.Instance(), q.Budgets, pool)
		if err != nil {
			return lt, err
		}
		lt.maxaf = us(time.Since(t1))
		sets := make([]*graph.NodeSet, len(res))
		for i, r := range res {
			sets[i] = r.Invited
		}
		t1 = time.Now()
		if _, err := h.Eval().EstimateFMany(ctx, sets, q.Realizations); err != nil {
			return lt, err
		}
		lt.coverage = us(time.Since(t1))
		lt.total = us(time.Since(t0))
		// The greedy alone, against the pool's cached family.
		fam, err := pool.Family()
		if err != nil {
			return lt, err
		}
		solver := setcover.NewSolver(fam)
		for _, b := range q.Budgets {
			t1 = time.Now()
			if _, err := solver.SolveBudget(b); err != nil {
				return lt, err
			}
			lt.setcover = append(lt.setcover, us(time.Since(t1)))
		}
		return lt, nil
	case "acceptance":
		set := nodeSet(h.Instance().Graph(), q.Invited)
		t1 := time.Now()
		_, err := h.Eval().EstimateF(ctx, set, q.Trials)
		lt.coverage = us(time.Since(t1))
		lt.total = us(time.Since(t0))
		return lt, err
	case "pmax":
		_, err := h.Eval().FractionType1(ctx, q.Trials)
		lt.total = us(time.Since(t0))
		return lt, err
	case "solve":
		_, err := h.Core().RAF(ctx, solveConfig(q))
		lt.total = us(time.Since(t0))
		lt.raf = lt.total
		return lt, err
	}
	return lt, fmt.Errorf("no session call for op %q", q.Op)
}

// coldProbes times a pair's cold path on fresh sessions: pool sampling,
// the set-cover fold, V_max, the Algorithm 2 stopping rule, and a spill
// snapshot's write and restore.
func coldProbes(g *graph.Graph, w workload, tr *trace, put func(string, string, float64)) error {
	ctx := context.Background()
	scheme := weights.NewDegree(g)
	var sample, fold, ratio, vmax, pmax, pmaxDraws, write, wbytes, restore []float64
	for i, p := range tr.Pairs[:min(coldProbePairs, len(tr.Pairs))] {
		in, err := ltm.NewInstance(g, scheme, p[0], p[1])
		if err != nil {
			return err
		}
		seed := int64(i + 1)
		cs := core.NewSession(in, seed, w.Workers)
		t0 := time.Now()
		pool, err := cs.Pool(ctx, w.L)
		if err != nil {
			return err
		}
		sample = append(sample, us(time.Since(t0))/(float64(w.L)/1000))
		t0 = time.Now()
		fam, err := pool.Family()
		if err != nil {
			return err
		}
		fold = append(fold, us(time.Since(t0))/1000)
		ratio = append(ratio, float64(fam.NumFolded())/float64(max(fam.NumSets(), 1)))
		t0 = time.Now()
		if _, err := cs.Vmax(); err != nil {
			return err
		}
		vmax = append(vmax, us(time.Since(t0))/1000)
		t0 = time.Now()
		pr, err := cs.EstimatePmax(ctx, pmaxEps0, pmaxN, pmaxMaxDraws)
		if err != nil {
			return err
		}
		pmax = append(pmax, us(time.Since(t0))/1000)
		pmaxDraws = append(pmaxDraws, float64(pr.Draws))
		var buf bytes.Buffer
		t0 = time.Now()
		if err := cs.Snapshot(&buf); err != nil {
			return err
		}
		write = append(write, us(time.Since(t0))/1000)
		wbytes = append(wbytes, float64(buf.Len()))
		cs2 := core.NewSession(in, seed, w.Workers)
		t0 = time.Now()
		if err := cs2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			return err
		}
		restore = append(restore, us(time.Since(t0))/1000)
	}
	put("engine.sample_us_per_kdraw", "us", median(sample))
	put("setcover.fold_ms", "ms", median(fold))
	put("setcover.fold_ratio", "fraction", mean(ratio))
	put("core.vmax_ms", "ms", median(vmax))
	put("engine.pmax_ms", "ms", median(pmax))
	put("engine.pmax_draws", "draws", mean(pmaxDraws))
	put("snapshot.write_ms", "ms", median(write))
	put("snapshot.write_bytes", "bytes", mean(wbytes))
	put("snapshot.restore_ms", "ms", median(restore))
	return nil
}
