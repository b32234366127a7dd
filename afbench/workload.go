package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/proto"
)

// Every workload serves the Wiki analog at scale 1.0 (7,115 nodes,
// ~104k edges). The graph, the server's sampling seed and each
// workload's pair universe (its (s,t) pairs, their popularity ranks and
// candidate lists) are fixed; the benchmark seed draws the request
// sequence from that universe: which pair and op each request names,
// their order, and the rank-delta edges. A seed-drawn universe of a few
// hundred pairs would make the metrics vary by which pairs a seed
// happened to draw (per-pair costs spread over an order of magnitude),
// hiding a change to the program behind that spread.
const (
	dataset      = "Wiki"
	serverSeed   = 1
	universeSeed = 1
)

// graphScale is the dataset scale; tests shrink it.
var graphScale = 1.0

// workload is one traffic mix against afserve. The loop is closed: each
// of Clients sends its next request only after the previous reply.
type workload struct {
	Name    string
	HTTP    bool    // POST /v1/query; otherwise the stdin/stdout pipe
	Clients int     // concurrent closed-loop clients, one connection each
	Jobs    int     // afserve -j
	Workers int     // afserve -workers
	Budget  int64   // afserve -maxbytes (0 = unlimited)
	Spill   bool    // afserve -spill-dir
	Rate    int     // measured requests per second of --seconds
	SLO     float64 // latency limit in ms for slo_frac, ~2-3x the measured p99
	L       int64   // pool size of every pair query
	Budgets []int   // solvemax budget sweep
	Alphas  []float64
}

var workloads = []workload{
	{
		// Every request hits: protocol, server hot path, set-cover solver
		// and coverage index; no sampling.
		Name: "hot-mix", HTTP: true, Clients: 2, Jobs: 2, Workers: 1,
		Rate: 8000, SLO: 3, L: 4000,
		Budgets: sweepBudgets, Alphas: []float64{0.1, 0.2, 0.3},
	},
	{
		// Nearly every request misses: it restores from spill, evicts,
		// and (solve) recomputes V_max; the protocol's share is
		// negligible. The budget is ~1/10 of the 256-pair working set
		// (~78 MB).
		Name: "cold-churn", Clients: 1, Jobs: 1, Workers: 2,
		Budget: 7_800_000, Spill: true,
		Rate: 160, SLO: 100, L: 2000,
		Budgets: []int{4}, Alphas: []float64{0.2},
	},
	{
		// The only graph writer: rank scheduler, repair, graph deltas.
		// The budget is ~9/10 of the 128-pair working set (~27 MB): most
		// topk candidates stay cached, so ranking rather than sampling
		// sets their latency, and every delta repairs ~110 live pairs.
		Name: "rank-delta", HTTP: true, Clients: 1, Jobs: 1, Workers: 2,
		Budget: 24_000_000,
		Rate:   150, SLO: 1000, L: 2000,
		Budgets: []int{4},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sweepBudgets is the solvemax budget sweep of hot-mix and of the
// traced pass's hit probes.
var sweepBudgets = []int{1, 2, 4, 8}

// Trace shape constants.
const (
	hotPairs       = 64
	churnPairs     = 256
	rankSources    = 16
	rankCandidates = 8
	rankK          = 2
	deltaEvery     = 50 // every deltaEvery-th rank-delta request is a delta
	zipfS          = 1.1
	solveEps       = 0.05 // RAF accuracy slack ε of solve requests
)

// request is one generated query: the wire line afserve receives, its
// decoded form for replays below the protocol, and the index of the
// graph epoch it is answered at.
type request struct {
	Req   proto.Request
	Line  []byte
	Epoch int
}

// trace is a workload's whole input: the warm-up requests (not
// measured), the measured requests, and every delta's edge in order.
type trace struct {
	Pairs    [][2]graph.Node
	Warm     []request
	Measured []request
	Deltas   []graph.Edge
}

// loadGraph builds the served graph exactly as afserve -dataset does.
func loadGraph() (*graph.Graph, error) {
	d, err := gen.DatasetByName(dataset)
	if err != nil {
		return nil, err
	}
	return d.Generate(graphScale, serverSeed)
}

// timeGraph returns the graph and how long one generation took.
func timeGraph() (*graph.Graph, time.Duration, error) {
	t0 := time.Now()
	g, err := loadGraph()
	return g, time.Since(t0), err
}

func traceRNG(name string, seed int64) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64()>>1)))
}

// pairPicker draws (s,t) pairs the problem is defined on: s ≠ t, not
// adjacent, and t reachable from s.
type pairPicker struct {
	g    *graph.Graph
	comp []int32
}

func newPairPicker(g *graph.Graph) *pairPicker {
	comp, _ := g.ConnectedComponents()
	return &pairPicker{g: g, comp: comp}
}

func (p *pairPicker) valid(s, t graph.Node) bool {
	return s != t && !p.g.HasEdge(s, t) && p.comp[s] == p.comp[t]
}

// distinct draws n distinct valid pairs.
func (p *pairPicker) distinct(rng *rand.Rand, n int) [][2]graph.Node {
	seen := map[[2]graph.Node]bool{}
	var out [][2]graph.Node
	for len(out) < n {
		k := [2]graph.Node{p.node(rng), p.node(rng)}
		if seen[k] || !p.valid(k[0], k[1]) {
			continue
		}
		seen[k] = true
		out = append(out, k)
	}
	return out
}

func (p *pairPicker) node(rng *rand.Rand) graph.Node {
	return graph.Node(rng.Intn(p.g.NumNodes()))
}

// makeTrace is the trace generator: a pure function of (workload, seed,
// measured request count) and the fixed graph. Pair 0 of hot-mix is the
// most popular.
func makeTrace(w workload, g *graph.Graph, seed int64, n int) *trace {
	urng := traceRNG(w.Name, universeSeed)
	rng := traceRNG(w.Name, seed)
	pp := newPairPicker(g)
	tr := &trace{}
	switch w.Name {
	case "hot-mix":
		tr.Pairs = pp.distinct(urng, hotPairs)
		invited := make([][]graph.Node, len(tr.Pairs))
		for i, p := range tr.Pairs {
			invited[i] = invitedFor(g, urng, p[1])
		}
		// op variants per pair: sweep, acceptance, pmax, solve per α.
		variant := func(i, v int) proto.Request {
			s, t := tr.Pairs[i][0], tr.Pairs[i][1]
			switch {
			case v == 0:
				return proto.Request{Op: "solvemax", S: s, T: t, Budgets: w.Budgets, Realizations: w.L}
			case v == 1:
				return proto.Request{Op: "acceptance", S: s, T: t, Invited: invited[i], Trials: w.L}
			case v == 2:
				return proto.Request{Op: "pmax", S: s, T: t, Trials: w.L}
			default:
				return proto.Request{Op: "solve", S: s, T: t, Alpha: w.Alphas[v-3], Eps: solveEps, Realizations: w.L}
			}
		}
		nv := 3 + len(w.Alphas)
		for i := range tr.Pairs {
			for v := 0; v < nv; v++ {
				tr.Warm = append(tr.Warm, request{Req: variant(i, v)})
			}
		}
		// The op mix holds exactly in every block of ten requests: four
		// sweeps, three acceptance, two pmax, one solve.
		zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(tr.Pairs)-1))
		ops := stratified(rng, []int{0, 0, 0, 0, 1, 1, 1, 2, 2, 3})
		for len(tr.Measured) < n {
			v := ops()
			if v == 3 {
				v += rng.Intn(len(w.Alphas))
			}
			tr.Measured = append(tr.Measured, request{Req: variant(int(zipf.Uint64()), v)})
		}
	case "cold-churn":
		tr.Pairs = pp.distinct(urng, churnPairs)
		// Warm-up samples every pair's pools once (a solvemax each, in
		// random order), so the measured misses restore from spill. With
		// first touches measured instead, half the requests were fast
		// restores and the median sat on the edge between them and the
		// resample-and-spill-write requests, spreading 34% from run to run.
		pairs := stratified(rng, seq(len(tr.Pairs)))
		for range tr.Pairs {
			p := tr.Pairs[pairs()]
			tr.Warm = append(tr.Warm, request{Req: proto.Request{Op: "solvemax", S: p[0], T: p[1], Budget: w.Budgets[0], Realizations: w.L}})
		}
		// Measured pairs come uniformly, as successive random permutations
		// of the universe, so a pair recurs only after the cache has turned
		// over; every fourth request (in random position) is a solve, whose
		// first run on a pair grows its p_max ledger and so rewrites its
		// spill file on eviction.
		solve := stratified(rng, []int{1, 0, 0, 0})
		for len(tr.Measured) < n {
			p := tr.Pairs[pairs()]
			r := proto.Request{Op: "solvemax", S: p[0], T: p[1], Budget: w.Budgets[0], Realizations: w.L}
			if solve() == 1 {
				r = proto.Request{Op: "solve", S: p[0], T: p[1], Alpha: w.Alphas[0], Eps: solveEps, Realizations: w.L}
			}
			tr.Measured = append(tr.Measured, request{Req: r})
		}
	case "rank-delta":
		type list struct {
			s       graph.Node
			targets []graph.Node
		}
		var lists []list
		for len(lists) < rankSources {
			s := pp.node(urng)
			l := list{s: s}
			seen := map[graph.Node]bool{}
			for tries := 0; len(l.targets) < rankCandidates && tries < 1000; tries++ {
				t := pp.node(urng)
				if !seen[t] && pp.valid(s, t) {
					seen[t] = true
					l.targets = append(l.targets, t)
					tr.Pairs = append(tr.Pairs, [2]graph.Node{s, t})
				}
			}
			lists = append(lists, l)
		}
		pairs := map[[2]graph.Node]bool{}
		for _, p := range tr.Pairs {
			pairs[p], pairs[[2]graph.Node{p[1], p[0]}] = true, true
		}
		added := map[[2]graph.Node]bool{}
		epoch := 0
		for i := 1; len(tr.Measured) < n; i++ {
			if i%deltaEvery == 0 {
				// One edge drawn uniformly among node pairs that are not
				// edges yet; pairs under query stay non-adjacent so no
				// candidate dissolves.
				for {
					u, v := pp.node(rng), pp.node(rng)
					k := [2]graph.Node{min(u, v), max(u, v)}
					if u == v || g.HasEdge(u, v) || added[k] || pairs[k] {
						continue
					}
					added[k] = true
					tr.Deltas = append(tr.Deltas, graph.Edge{U: u, V: v})
					tr.Measured = append(tr.Measured, request{Req: proto.Request{Op: "delta", Add: [][2]graph.Node{{u, v}}}, Epoch: epoch})
					epoch++
					break
				}
				continue
			}
			l := lists[rng.Intn(len(lists))]
			tr.Measured = append(tr.Measured, request{Req: proto.Request{
				Op: "topk", S: l.s, Targets: l.targets, K: rankK, Budget: w.Budgets[0],
				Realizations: w.L, MaxDraws: int64(len(l.targets)) * w.L,
			}, Epoch: epoch})
		}
	}
	id := int64(0)
	for _, rs := range [][]request{tr.Warm, tr.Measured} {
		for i := range rs {
			id++
			rs[i].Req.ID = id
			line, err := json.Marshal(rs[i].Req)
			if err != nil {
				panic(err)
			}
			rs[i].Line = line
		}
	}
	return tr
}

// invitedFor is an acceptance query's invitation set: t plus up to three
// of its neighbors.
func invitedFor(g *graph.Graph, rng *rand.Rand, t graph.Node) []graph.Node {
	out := []graph.Node{t}
	nb := g.Neighbors(t)
	for i := 0; i < 3 && i < len(nb); i++ {
		out = append(out, nb[rng.Intn(len(nb))])
	}
	return out
}

// stratified returns a generator that deals out xs in successive random
// permutations, so every len(xs) consecutive draws hold each once.
func stratified(rng *rand.Rand, xs []int) func() int {
	deck := append([]int(nil), xs...)
	i := len(deck)
	return func() int {
		if i == len(deck) {
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
			i = 0
		}
		i++
		return deck[i-1]
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
