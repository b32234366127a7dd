// Benchmarks that regenerate every table and figure of the paper's
// evaluation (Sec. IV), one bench per artifact, plus micro-benchmarks for
// the core machinery (ablations called out in DESIGN.md).
//
// Default sizes are laptop-scale so `go test -bench=.` completes in
// minutes; set AF_SCALE (dataset scale factor multiplier) and AF_PAIRS to
// approach the paper's setup, e.g.:
//
//	AF_SCALE=10 AF_PAIRS=50 go test -bench=Fig3 -benchtime=1x -timeout=0
package activefriending_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ltm"
	"repro/internal/maxaf"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/realization"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/setcover"
	"repro/internal/snapshot"
	"repro/internal/weights"
)

// benchScales are the per-dataset default scales (fractions of published
// node counts), chosen so every dataset contributes while the whole suite
// stays fast. AF_SCALE multiplies them (capped at 1).
var benchScales = map[string]float64{
	"Wiki":    0.05,
	"HepTh":   0.02,
	"HepPh":   0.015,
	"Youtube": 0.004,
}

func envFloat(name string, def float64) float64 {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return def
}

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}

type benchSetup struct {
	g     *graph.Graph
	w     weights.Scheme
	pairs []eval.Pair
	cfg   eval.Config
}

var (
	setupMu    sync.Mutex
	setupCache = map[string]*benchSetup{}
)

// setupDataset builds (once per process) the graph and screened pairs for
// a dataset bench.
func setupDataset(b *testing.B, name string) *benchSetup {
	b.Helper()
	setupMu.Lock()
	defer setupMu.Unlock()
	if s, ok := setupCache[name]; ok {
		return s
	}
	scale := benchScales[name] * envFloat("AF_SCALE", 1)
	if scale > 1 {
		scale = 1
	}
	d, err := gen.DatasetByName(name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := d.Generate(scale, 1)
	if err != nil {
		b.Fatal(err)
	}
	w := weights.NewDegree(g)
	pairs, err := eval.SamplePairs(context.Background(), g, w, eval.PairConfig{
		Count:         envInt("AF_PAIRS", 3),
		MinPmax:       0.01,
		PreferDistant: true,
		ScreenTrials:  2000,
		Seed:          1,
	})
	if err != nil {
		b.Fatalf("dataset %s: %v", name, err)
	}
	s := &benchSetup{
		g: g, w: w, pairs: pairs,
		cfg: eval.Config{
			Graph: g, Weights: w, Pairs: pairs,
			Alpha: 0.1, Eps: 0.01, N: 100000,
			MaxRealizations: 20000, MaxPmaxDraws: 300000,
			EvalTrials: 5000, Seed: 1,
		},
	}
	setupCache[name] = s
	return s
}

// --- Table I ---------------------------------------------------------------

func BenchmarkTable1_DatasetStats(b *testing.B) {
	scaleMul := envFloat("AF_SCALE", 1)
	for i := 0; i < b.N; i++ {
		for _, d := range gen.Datasets() {
			scale := benchScales[d.Name] * scaleMul
			if scale > 1 {
				scale = 1
			}
			g, err := d.Generate(scale, 1)
			if err != nil {
				b.Fatal(err)
			}
			st := gen.Summarize(g)
			if st.Nodes == 0 {
				b.Fatal("empty dataset")
			}
			if i == 0 {
				b.Logf("Table I %s: nodes=%d edges=%d edges/node=%.2f (paper: %d/%d/%.2f)",
					d.Name, st.Nodes, st.Edges, st.EdgesPerNode,
					d.PaperNodes, d.PaperEdges, d.PaperAvgDegree)
			}
		}
	}
}

// --- Fig. 3 (basic experiment, one bench per dataset) ----------------------

func benchFig3(b *testing.B, dataset string) {
	s := setupDataset(b, dataset)
	alphas := []float64{0.05, 0.2, 0.35}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := eval.BasicExperiment(context.Background(), s.cfg, alphas)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("Fig3 %s alpha=%.2f: pmax=%.4f RAF=%.4f HD=%.4f SP=%.4f |I|=%.1f",
					dataset, r.Alpha, r.Pmax, r.RAF, r.HD, r.SP, r.AvgSize)
			}
		}
	}
}

func BenchmarkFig3_Wiki(b *testing.B)    { benchFig3(b, "Wiki") }
func BenchmarkFig3_HepTh(b *testing.B)   { benchFig3(b, "HepTh") }
func BenchmarkFig3_HepPh(b *testing.B)   { benchFig3(b, "HepPh") }
func BenchmarkFig3_Youtube(b *testing.B) { benchFig3(b, "Youtube") }

// --- Fig. 4 (grow HD to match RAF) and Fig. 5 (grow SP) --------------------

func benchGrowth(b *testing.B, dataset string, ranker baselines.Ranker) {
	s := setupDataset(b, dataset)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.CompareGrowth(context.Background(), s.cfg, ranker)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, bin := range res.Bins {
				if bin.Count > 0 {
					b.Logf("%s %s: f-ratio≈%.1f → size-ratio %.2f (%d pts)",
						dataset, ranker.Name(), bin.XCenter, bin.SizeRatio, bin.Count)
				}
			}
		}
	}
}

func BenchmarkFig4_Wiki(b *testing.B)    { benchGrowth(b, "Wiki", baselines.HighDegree{}) }
func BenchmarkFig4_HepTh(b *testing.B)   { benchGrowth(b, "HepTh", baselines.HighDegree{}) }
func BenchmarkFig4_HepPh(b *testing.B)   { benchGrowth(b, "HepPh", baselines.HighDegree{}) }
func BenchmarkFig4_Youtube(b *testing.B) { benchGrowth(b, "Youtube", baselines.HighDegree{}) }

func BenchmarkFig5_Wiki(b *testing.B)    { benchGrowth(b, "Wiki", baselines.ShortestPath{}) }
func BenchmarkFig5_HepTh(b *testing.B)   { benchGrowth(b, "HepTh", baselines.ShortestPath{}) }
func BenchmarkFig5_HepPh(b *testing.B)   { benchGrowth(b, "HepPh", baselines.ShortestPath{}) }
func BenchmarkFig5_Youtube(b *testing.B) { benchGrowth(b, "Youtube", baselines.ShortestPath{}) }

// --- Table II (Vmax comparison) --------------------------------------------

func benchTable2(b *testing.B, dataset string) {
	s := setupDataset(b, dataset)
	cfg := s.cfg
	cfg.Alpha = 0.1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := eval.VmaxExperiment(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("Table II %s: |Vmax|=%.1f |I_RAF|=%.1f ratio=%.2f",
				dataset, row.AvgVmax, row.AvgRAF, row.AvgRatio)
		}
	}
}

func BenchmarkTable2_Wiki(b *testing.B)    { benchTable2(b, "Wiki") }
func BenchmarkTable2_HepTh(b *testing.B)   { benchTable2(b, "HepTh") }
func BenchmarkTable2_HepPh(b *testing.B)   { benchTable2(b, "HepPh") }
func BenchmarkTable2_Youtube(b *testing.B) { benchTable2(b, "Youtube") }

// --- Fig. 6 (realization sweep) --------------------------------------------

func BenchmarkFig6_RealizationSweep(b *testing.B) {
	s := setupDataset(b, "Wiki")
	grid := []int64{500, 2000, 8000, 32000, 128000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := eval.RealizationSweep(context.Background(), s.cfg, grid)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range pts {
				b.Logf("Fig6 Wiki: l=%d → f=%.4f |I|=%d", p.L, p.F, p.Size)
			}
		}
	}
}

// --- Ablation / machinery micro-benchmarks ---------------------------------

func benchInstance(b *testing.B) *ltm.Instance {
	b.Helper()
	s := setupDataset(b, "Wiki")
	p := s.pairs[0]
	in, err := ltm.NewInstance(s.g, s.w, p.S, p.T)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkSampleTG measures the reverse sampler (Remark 3): the unit cost
// of every estimator in the library.
func BenchmarkSampleTG(b *testing.B) {
	in := benchInstance(b)
	sp := realization.NewSampler(in)
	st := rng.NewStream(1)
	b.ResetTimer()
	type1 := 0
	for i := 0; i < b.N; i++ {
		if sp.SampleTG(&st).Outcome == realization.Type1 {
			type1++
		}
	}
	if b.N > 1000 {
		b.ReportMetric(float64(type1)/float64(b.N), "type1-frac")
	}
}

// BenchmarkForwardSimulate measures one draw of Process 1 — the estimator
// RAF avoids (compare with BenchmarkSampleTG for the Remark 3 speedup).
func BenchmarkForwardSimulate(b *testing.B) {
	in := benchInstance(b)
	all := graph.NewNodeSet(in.Graph().NumNodes())
	all.Fill()
	st := rng.NewStream(1)
	sc := ltm.NewSimScratch(in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.SimulateOnce(all, &st, sc, nil)
	}
}

// BenchmarkVmax measures the exact V_max computation (Lemma 7): one
// masked Hopcroft–Tarjan DFS over the instance graph. bench_instance is
// the shared bench pair (Wiki at scale 0.05, 356 nodes); wiki_scale1
// cycles through 64 random pairs of the full Wiki analog (7,115 nodes),
// the graph afbench serves, and reports one call per op.
func BenchmarkVmax(b *testing.B) {
	run := func(b *testing.B, ins []*ltm.Instance) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Vmax(ins[i%len(ins)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("bench_instance", func(b *testing.B) {
		run(b, []*ltm.Instance{benchInstance(b)})
	})
	b.Run("wiki_scale1", func(b *testing.B) {
		g := wikiScale1(b)
		w := weights.NewDegree(g)
		r := rand.New(rand.NewSource(1))
		var ins []*ltm.Instance
		for len(ins) < 64 {
			in, err := ltm.NewInstance(g, w, graph.Node(r.Intn(g.NumNodes())), graph.Node(r.Intn(g.NumNodes())))
			if err == nil {
				ins = append(ins, in)
			}
		}
		run(b, ins)
	})
}

// wikiScale1 generates the full Wiki analog (7,115 nodes), the graph
// afbench serves.
func wikiScale1(b *testing.B) *graph.Graph {
	b.Helper()
	d, err := gen.DatasetByName("Wiki")
	if err != nil {
		b.Fatal(err)
	}
	g, err := d.Generate(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkSetcoverGreedy measures the MSC greedy on a realization-shaped
// instance (many short duplicate-heavy sets).
func BenchmarkSetcoverGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	distinct := make([][]int32, 200)
	for i := range distinct {
		sz := 1 + rng.Intn(6)
		s := make([]int32, sz)
		for j := range s {
			s[j] = int32(rng.Intn(1000))
		}
		distinct[i] = s
	}
	inst := &setcover.Instance{UniverseSize: 1000}
	for i := 0; i < 50000; i++ {
		inst.Sets = append(inst.Sets, distinct[rng.Intn(len(distinct))])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := setcover.Greedy(inst, 30000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRAFSolve measures one full Algorithm 4 run end to end.
func BenchmarkRAFSolve(b *testing.B) {
	s := setupDataset(b, "Wiki")
	p := s.pairs[0]
	in, err := ltm.NewInstance(s.g, s.w, p.S, p.T)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{
		Alpha: 0.1, Eps: 0.01, N: 100000, Seed: 1,
		MaxRealizations: 20000, MaxPmaxDraws: 300000,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewSession(in, cfg.Seed, cfg.Workers).RAF(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSamplePool measures parallel pool generation (Alg. 3 line 2)
// through the engine: chunked, worker-count-independent, CSR-pooled,
// with every draw's touch list recorded. touch_B/draw is what those
// lists cost a session to hold: their bytes and offsets per draw, read
// from the session's TOUCH section.
func BenchmarkSamplePool(b *testing.B) {
	in := benchInstance(b)
	eng := engine.New(in)
	touch := touchBytesPerDraw(b, eng, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SamplePool(context.Background(), 20000, 0, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(touch, "touch_B/draw")
}

// touchBytesPerDraw samples an l-draw session on eng and returns the
// bytes its touch lists and their offsets hold per draw.
func touchBytesPerDraw(b *testing.B, eng *engine.Engine, l int64) float64 {
	b.Helper()
	sess := eng.NewSession(1, 0)
	if _, err := sess.Pool(context.Background(), l); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	_, n, err := snapshot.DecodeNext(buf.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	ts, _, err := snapshot.DecodeTouchNext(buf.Bytes()[n:])
	if err != nil {
		b.Fatal(err)
	}
	var held int
	for _, c := range ts.Chunks {
		held += len(c.Data) + 4*len(c.Offsets)
	}
	return float64(held) / float64(l)
}

// BenchmarkSamplePoolSparse is BenchmarkSamplePool on the Youtube analog
// at scale 0.1 (~113K nodes, a 1,773-word touch bitmap): each touch
// group's seal scans the bitmap, so its cost grows with the graph, not
// with what the group touched, even for a 100-draw pool. The session
// sub-bench reports the bytes a 2000-draw session holds, touch lists
// included (B_held).
func BenchmarkSamplePoolSparse(b *testing.B) {
	d, err := gen.DatasetByName("Youtube")
	if err != nil {
		b.Fatal(err)
	}
	g, err := d.Generate(0.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	w := weights.NewDegree(g)
	pairs, err := eval.SamplePairs(context.Background(), g, w, eval.PairConfig{
		Count: 1, MinPmax: 0.001, PreferDistant: true, ScreenTrials: 2000, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	in, err := ltm.NewInstance(g, w, pairs[0].S, pairs[0].T)
	if err != nil {
		b.Fatal(err)
	}
	for _, l := range []int64{100, 20000} {
		b.Run(fmt.Sprintf("pool-%d", l), func(b *testing.B) {
			eng := engine.New(in)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.SamplePool(context.Background(), l, 1, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("session-2000", func(b *testing.B) {
		var held int64
		for i := 0; i < b.N; i++ {
			s := engine.New(in).NewSession(int64(i), 1)
			if _, err := s.Pool(context.Background(), 2000); err != nil {
				b.Fatal(err)
			}
			held = s.MemBytes()
		}
		b.ReportMetric(float64(held), "B_held")
	})
}

// benchCoveragePool builds one pool and an invitation set unioning the
// first nPaths paths — nPaths small mimics measuring a solver's output
// set; nPaths = NumType1/2 is a large set that passes most paths' length
// test.
func benchCoveragePool(b *testing.B, nPaths func(type1 int) int) (*engine.Pool, *graph.NodeSet) {
	b.Helper()
	in := benchInstance(b)
	pool, err := engine.New(in).SamplePool(context.Background(), 20000, 0, 7)
	if err != nil {
		b.Fatal(err)
	}
	invited := graph.NewNodeSet(in.Graph().NumNodes())
	for i := 0; i < nPaths(pool.NumType1()); i++ {
		for _, v := range pool.Path(i) {
			invited.Add(v)
		}
	}
	return pool, invited
}

func small(type1 int) int { return min(10, type1) }
func half(type1 int) int  { return type1 / 2 }

// BenchmarkCoverageScan* measure the O(|pool|·pathlen) linear coverage
// scan — the pre-engine behaviour of every coverage query.
func BenchmarkCoverageScanSmallSet(b *testing.B) {
	pool, invited := benchCoveragePool(b, small)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.CoverageCount(invited)
	}
}

func BenchmarkCoverageScanHalfPool(b *testing.B) {
	pool, invited := benchCoveragePool(b, half)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.CoverageCount(invited)
	}
}

// BenchmarkCoverageSweep is hot-mix's densest measurement shape: one
// Wiki scale-1 pair whose 4,000-draw evaluation pool holds at least
// 2,000 type-1 paths (every one through t). One op measures a budget
// sweep's four solutions (budgets 1, 2, 4, 8, so at most 8 nodes each)
// in one EstimateFMany and an acceptance set (t and three neighbors)
// in one EstimateF, as a solvemax sweep and an acceptance query do.
func BenchmarkCoverageSweep(b *testing.B) {
	ctx := context.Background()
	g := wikiScale1(b)
	w := weights.NewDegree(g)
	r := rand.New(rand.NewSource(1))
	var in *ltm.Instance
	var eval *engine.Pool
	for eval == nil || eval.NumType1() < 2000 {
		var err error
		if in, err = ltm.NewInstance(g, w, graph.Node(r.Intn(g.NumNodes())), graph.Node(r.Intn(g.NumNodes()))); err != nil {
			continue
		}
		if eval, err = engine.New(in).NewEvalSession(7, 0).Pool(ctx, 4000); err != nil {
			b.Fatal(err)
		}
	}
	solve, err := engine.New(in).NewSession(7, 0).Pool(ctx, 4000)
	if err != nil {
		b.Fatal(err)
	}
	results, err := maxaf.SolveBudgetsFromPool(ctx, in, []int{1, 2, 4, 8}, solve)
	if err != nil {
		b.Fatal(err)
	}
	sweep := make([]*graph.NodeSet, len(results))
	for i, res := range results {
		sweep[i] = res.Invited
	}
	t := in.T()
	accept := graph.NewNodeSetOf(g.NumNodes(), t)
	for _, v := range g.Neighbors(t)[:min(3, len(g.Neighbors(t)))] {
		accept.Add(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coverageSink = eval.EstimateFMany(sweep)[0] + eval.EstimateF(accept)
	}
	b.ReportMetric(float64(eval.NumType1()), "paths")
}

// coverageSink keeps BenchmarkCoverageSweep's measurements live.
var coverageSink float64

// BenchmarkSessionAlphaSweep measures a 3-α sweep through one Session —
// the pool is sampled once and reused (compare BenchmarkAlphaSweepCold).
func BenchmarkSessionAlphaSweep(b *testing.B) {
	s := setupDataset(b, "Wiki")
	p := s.pairs[0]
	in, err := ltm.NewInstance(s.g, s.w, p.S, p.T)
	if err != nil {
		b.Fatal(err)
	}
	alphas := []float64{0.05, 0.15, 0.3}
	cfg := core.Config{
		Eps: 0.01, N: 100000, OverrideL: 20000, MaxPmaxDraws: 300000,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := core.NewSession(in, int64(i+1), 0)
		for _, alpha := range alphas {
			cfg.Alpha = alpha
			if _, err := sess.RAF(context.Background(), cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAlphaSweepCold runs the same sweep with a fresh pool per α —
// the pre-Session behaviour.
func BenchmarkAlphaSweepCold(b *testing.B) {
	s := setupDataset(b, "Wiki")
	p := s.pairs[0]
	in, err := ltm.NewInstance(s.g, s.w, p.S, p.T)
	if err != nil {
		b.Fatal(err)
	}
	alphas := []float64{0.05, 0.15, 0.3}
	cfg := core.Config{
		Eps: 0.01, N: 100000, OverrideL: 20000, MaxPmaxDraws: 300000,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, alpha := range alphas {
			cfg.Alpha = alpha
			cfg.Seed = int64(i + 1)
			if _, err := core.NewSession(in, cfg.Seed, cfg.Workers).RAF(context.Background(), cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGenerateWiki measures dataset synthesis.
func BenchmarkGenerateWiki(b *testing.B) {
	d, err := gen.DatasetByName("Wiki")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := d.Generate(0.1, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaxAFSolve measures the budgeted (maximum active friending)
// extension end to end.
func BenchmarkMaxAFSolve(b *testing.B) {
	in := benchInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool, err := engine.New(in).SamplePool(context.Background(), 20000, 0, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := maxaf.SolveFromPool(context.Background(), in, 20, pool); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveMaxBudgetSweep is a warm pair's budget sweep: budgets
// {1, 2, 4, 8} through maxaf.SolveBudgetsFromPool against one 4,000-draw
// pool whose set-cover family is already folded.
func BenchmarkSolveMaxBudgetSweep(b *testing.B) {
	in := benchInstance(b)
	ctx := context.Background()
	pool, err := engine.New(in).SamplePool(ctx, 4000, 0, 7)
	if err != nil {
		b.Fatal(err)
	}
	if pool.NumType1() == 0 {
		b.Fatal("no type-1 realizations")
	}
	if _, err := pool.Family(); err != nil {
		b.Fatal(err)
	}
	budgets := []int{1, 2, 4, 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := maxaf.SolveBudgetsFromPool(ctx, in, budgets, pool); err != nil {
			b.Fatal(err)
		}
	}
}

// --- PR 3: amortized solve-path benchmarks ---------------------------------

// benchSolvePool samples one 20k-draw pool for the repeated-solve
// benchmarks (cached per process via setupDataset).
func benchSolvePool(b *testing.B) *engine.Pool {
	b.Helper()
	in := benchInstance(b)
	pool, err := engine.New(in).SamplePool(context.Background(), 20000, 0, 7)
	if err != nil {
		b.Fatal(err)
	}
	if pool.NumType1() == 0 {
		b.Skip("no type-1 realizations")
	}
	return pool
}

// sweepDemands is a 10-demand β-sweep grid against one pool: the workload
// of α/β sweeps and repeated server solves on a cached pair.
func sweepDemands(pool *engine.Pool) []int {
	t1 := pool.NumType1()
	demands := make([]int, 0, 10)
	for i := 1; i <= 10; i++ {
		d := t1 * i / 11
		if d < 1 {
			d = 1
		}
		demands = append(demands, d)
	}
	return demands
}

// BenchmarkRepeatedSolves measures the amortized path: the pool's family
// is folded once (cached) and one Solver's scratch is reused across the
// whole 10-demand sweep — each iteration is 10 solves, rebuild-free.
func BenchmarkRepeatedSolves(b *testing.B) {
	pool := benchSolvePool(b)
	demands := sweepDemands(pool)
	fam, err := pool.Family()
	if err != nil {
		b.Fatal(err)
	}
	solver := setcover.NewSolver(fam)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range demands {
			if _, err := solver.Solve(d); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRepeatedSolvesRebuild is the pre-split behaviour: every solve
// of the same sweep re-folds the family, re-hashes every path and
// rebuilds the element index from scratch (one-shot setcover.Greedy).
func BenchmarkRepeatedSolvesRebuild(b *testing.B) {
	pool := benchSolvePool(b)
	demands := sweepDemands(pool)
	inst := pool.SetcoverInstance()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range demands {
			if _, err := setcover.Greedy(inst, d); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFamilyFold measures the set-cover fold a cold pair pays
// after a spill restore: setcover.NewFamily over a 2,000-draw solve pool
// of one Wiki scale-1 pair (the afbench graph and pool size), restored
// from its snapshot bytes. One op is one fold and index build: of every
// path (full, what RAF's demand solve needs) or of the paths of at most
// 4 nodes (budget4, what a SolveMax at budget 4 needs).
func BenchmarkFamilyFold(b *testing.B) {
	g := wikiScale1(b)
	w := weights.NewDegree(g)
	r := rand.New(rand.NewSource(1))
	var pool *engine.Pool
	for pool == nil || pool.NumType1() < 500 {
		in, err := ltm.NewInstance(g, w, graph.Node(r.Intn(g.NumNodes())), graph.Node(r.Intn(g.NumNodes())))
		if err != nil {
			continue
		}
		sess := engine.New(in).NewSession(7, 0)
		if _, err := sess.Pool(context.Background(), 2000); err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sess.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
		restored, err := engine.OpenSession(engine.New(in), &buf, 0)
		if err != nil {
			b.Fatal(err)
		}
		if pool, err = restored.Pool(context.Background(), 2000); err != nil {
			b.Fatal(err)
		}
	}
	inst := pool.SetcoverInstance()
	for _, bc := range []struct {
		name    string
		maxSize int
	}{{"full", setcover.Unbounded}, {"budget4", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var fam *setcover.Family
			for i := 0; i < b.N; i++ {
				var err error
				if fam, err = setcover.NewFamily(inst, bc.maxSize); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pool.NumType1()), "paths")
			b.ReportMetric(float64(fam.NumFolded()), "folded")
		})
	}
}

// --- PR 4: pool persistence benchmarks ---------------------------------------

// benchSnapshotBytes samples a 20k-draw session pool once and serializes
// it — the unit of work of the server's spill tier.
func benchSnapshotBytes(b *testing.B) (*ltm.Instance, []byte) {
	b.Helper()
	in := benchInstance(b)
	sess := engine.New(in).NewSession(7, 0)
	if _, err := sess.Pool(context.Background(), 20000); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	return in, buf.Bytes()
}

// BenchmarkSnapshotSave measures serializing a 20k-draw pool (the
// eviction-time spill cost, minus disk).
func BenchmarkSnapshotSave(b *testing.B) {
	in := benchInstance(b)
	sess := engine.New(in).NewSession(7, 0)
	if _, err := sess.Pool(context.Background(), 20000); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(sess.SnapshotSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.Snapshot(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoad measures the copying read path: bytes →
// validated session pool with regrow tables.
func BenchmarkSnapshotLoad(b *testing.B) {
	in, data := benchSnapshotBytes(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.OpenSession(engine.New(in), bytes.NewReader(data), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpillReload measures re-admitting an evicted 20k-draw pool
// from its snapshot, ready to answer queries; BenchmarkSpillResample is
// the draw-by-draw rebuild it replaces. The acceptance bar for the spill
// tier is reload ≥ 10× faster than resample.
func BenchmarkSpillReload(b *testing.B) {
	in, data := benchSnapshotBytes(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := engine.OpenSession(engine.New(in), bytes.NewReader(data), 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Pool(context.Background(), 20000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpillResample(b *testing.B) {
	in, _ := benchSnapshotBytes(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := engine.New(in).NewSession(7, 0)
		if _, err := sess.Pool(context.Background(), 20000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPmaxSequentialVsChunked compares the paper's Algorithm 2 as a
// one-at-a-time stopping rule (mc.StoppingRule over a single stream)
// against the engine's chunked estimator at the same accuracy. The
// chunked path samples in parallel chunks and finds the stopping point by
// prefix scan; "chunked/1worker" isolates the single-thread overhead: the
// doubling growth ladder oversamples past the stopping point by at most
// 2× (≈1.5× on average) — the price of worker-parallel sampling, a
// worker-count-independent result, and a resumable ledger (the surplus
// draws are retained and pre-pay future refinements, see
// BenchmarkPmaxRefine). With W workers the wall clock is ≈ oversample/W
// of sequential, so the chunked path wins from 2 workers up.
func BenchmarkPmaxSequentialVsChunked(b *testing.B) {
	in := benchInstance(b)
	ctx := context.Background()
	const eps, bigN = 0.05, 100000.0
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := realization.NewSampler(in)
			st := rng.DerivedStream(7, 0x506D6178, 0)
			if _, _, _, err := mc.StoppingRule(ctx, eps, bigN, 0, func() bool {
				return sp.SampleTG(&st).Outcome == realization.Type1
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for name, workers := range map[string]int{"chunked/1worker": 1, "chunked": 0} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.New(in).NewPmaxEstimator(7, workers).Estimate(ctx, eps, bigN, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPmaxRefine measures the resumable-estimator win: refining a
// coarse ε₀ = 0.1 estimate to ε₀ = 0.05 against a retained ledger
// ("refine") versus estimating at ε₀ = 0.05 from scratch ("cold"). The
// refine path reuses every coarse draw — its marginal cost is only the
// ledger extension beyond the coarse stopping region (the coarse pass
// pre-pays ~Υ(0.1)/Υ(0.05) ≈ a quarter of the tight estimate's bill).
func BenchmarkPmaxRefine(b *testing.B) {
	in := benchInstance(b)
	ctx := context.Background()
	const bigN = 100000.0
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.New(in).NewPmaxEstimator(7, 0).Estimate(ctx, 0.05, bigN, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("refine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			pe := engine.New(in).NewPmaxEstimator(7, 0)
			if _, err := pe.Estimate(ctx, 0.1, bigN, 0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := pe.Estimate(ctx, 0.05, bigN, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- PR 7: dynamic-graph repair benchmarks -----------------------------------

// benchDeltaSetup builds a sparse instance with a warm 20k-draw session
// and two one-edge deltas. The first adds an edge between the two
// lowest-degree non-adjacent nodes; on a sparse graph such endpoints are
// consulted by no touch group at all, so repair adopts everything. The
// second adds an edge at the least-used node on the pool's paths, so
// repair must re-draw the groups that walked through it and adopt the
// rest — the regime per-touch-group repair is for.
func benchDeltaSetup(b *testing.B) (sess *engine.Session, in *ltm.Instance, offPath, onPath graph.Edge) {
	b.Helper()
	g, err := gen.ErdosRenyi(3000, 4500, rand.New(rand.NewSource(17)))
	if err != nil {
		b.Fatal(err)
	}
	w := weights.NewDegree(g)
	pairs, err := eval.SamplePairs(context.Background(), g, w, eval.PairConfig{
		Count: 1, MinPmax: 0.01, ScreenTrials: 2000, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	s, t := pairs[0].S, pairs[0].T
	in, err = ltm.NewInstance(g, w, s, t)
	if err != nil {
		b.Fatal(err)
	}
	sess = engine.New(in).NewSession(7, 0)
	pool, err := sess.Pool(context.Background(), 20000)
	if err != nil {
		b.Fatal(err)
	}
	var u, v graph.Node = -1, -1
	for cand := graph.Node(0); cand < graph.Node(g.NumNodes()); cand++ {
		if g.Degree(cand) == 0 || cand == s || cand == t {
			continue
		}
		switch {
		case u < 0 || g.Degree(cand) < g.Degree(u):
			if u >= 0 && !g.HasEdge(u, cand) {
				v = u
			}
			u = cand
		case (v < 0 || g.Degree(cand) < g.Degree(v)) && !g.HasEdge(u, cand):
			v = cand
		}
	}
	if v < 0 {
		b.Fatal("no sparse node pair found")
	}
	uses := make([]int, g.NumNodes())
	for i := 0; i < pool.NumType1(); i++ {
		for _, x := range pool.Path(i) {
			uses[x]++
		}
	}
	p := graph.Node(-1)
	for x, n := range uses {
		if n > 0 && graph.Node(x) != t && (p < 0 || n < uses[p]) {
			p = graph.Node(x)
		}
	}
	q := v
	if p < 0 || p == q || g.HasEdge(p, q) || (p == s && q == t) {
		b.Fatal("no on-path delta endpoint found")
	}
	return sess, in, graph.Edge{U: u, V: v}, graph.Edge{U: p, V: q}
}

// benchApplyEdge returns the instance after adding the edges, with the
// delta's dirty nodes.
func benchApplyEdge(b *testing.B, in *ltm.Instance, e ...graph.Edge) (*ltm.Instance, []graph.Node) {
	b.Helper()
	g2, dirty, err := (&graph.Delta{Add: e}).Apply(in.Graph())
	if err != nil {
		b.Fatal(err)
	}
	in2, err := ltm.NewInstance(g2, weights.NewDegree(g2), in.S(), in.T())
	if err != nil {
		b.Fatal(err)
	}
	return in2, dirty
}

// BenchmarkDeltaRepairVsResample times repairing the 20k-draw pool
// across each delta against discarding and resampling it. draws/op is
// the re-draw bill, saved_frac the share of draws adopted and
// redrawn_frac the share re-drawn; every repair must beat
// discard-and-resample. repair-1edge and repair-2edge cycle through 8
// deltas of uniformly random non-edges each — a pair's damage after one
// graph delta and after two — and report the mean redrawn_frac.
func BenchmarkDeltaRepairVsResample(b *testing.B) {
	ctx := context.Background()
	sess, in, offPath, onPath := benchDeltaSetup(b)
	const l = 20000
	r := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 2} {
		type delta struct {
			in    *ltm.Instance
			dirty []graph.Node
		}
		deltas := make([]delta, 8)
		for j := range deltas {
			var edges []graph.Edge
			for len(edges) < k {
				g, n := in.Graph(), in.Graph().NumNodes()
				e := graph.Edge{U: graph.Node(r.Intn(n)), V: graph.Node(r.Intn(n))}
				if e.U != e.V && !g.HasEdge(e.U, e.V) && !(e.U == in.S() && e.V == in.T()) && !(e.U == in.T() && e.V == in.S()) {
					edges = append(edges, e)
				}
			}
			deltas[j].in, deltas[j].dirty = benchApplyEdge(b, in, edges...)
		}
		b.Run(fmt.Sprintf("repair-%dedge", k), func(b *testing.B) {
			b.ReportAllocs()
			var redrawn int64
			for i := 0; i < b.N; i++ {
				d := deltas[i%len(deltas)]
				_, rst, err := sess.RepairTo(ctx, engine.New(d.in), d.dirty)
				if err != nil {
					b.Fatal(err)
				}
				redrawn += rst.DrawsResampled
			}
			b.ReportMetric(float64(redrawn)/float64(b.N)/l, "redrawn_frac")
		})
	}
	for _, c := range []struct {
		name string
		edge graph.Edge
	}{{"repair", offPath}, {"repair-onpath", onPath}} {
		in2, dirty := benchApplyEdge(b, in, c.edge)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var st engine.RepairStats
			for i := 0; i < b.N; i++ {
				repaired, rst, err := sess.RepairTo(ctx, engine.New(in2), dirty)
				if err != nil {
					b.Fatal(err)
				}
				if rst.DrawsSaved <= 0 || rst.DrawsResampled >= l {
					b.Fatalf("delta did not beat discard: %+v", rst)
				}
				if _, err := repaired.Pool(ctx, l); err != nil {
					b.Fatal(err)
				}
				st = rst
			}
			if c.edge == onPath && st.DrawsResampled == 0 {
				b.Fatalf("on-path delta re-drew nothing: %+v", st)
			}
			b.ReportMetric(float64(st.DrawsResampled), "draws/op")
			b.ReportMetric(float64(st.DrawsSaved)/l, "saved_frac")
			b.ReportMetric(float64(st.DrawsResampled)/l, "redrawn_frac")
		})
	}
	in2, _ := benchApplyEdge(b, in, onPath)
	b.Run("resample", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.New(in2).NewSession(7, 0).Pool(ctx, l); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(l), "draws/op")
	})
}

// --- PR 8: batched top-k ranking benchmarks --------------------------------

// topkBenchTargets builds a deterministic candidate list for the Wiki
// setup: the first n nodes that are valid friending targets for the
// screened source (not the source itself, not already adjacent).
func topkBenchTargets(b *testing.B, s *benchSetup, n int) (graph.Node, []graph.Node) {
	b.Helper()
	src := s.pairs[0].S
	targets := make([]graph.Node, 0, n)
	for v := 0; v < s.g.NumNodes() && len(targets) < n; v++ {
		node := graph.Node(v)
		if node == src || s.g.HasEdge(src, node) {
			continue
		}
		targets = append(targets, node)
	}
	if len(targets) < n {
		b.Skipf("only %d candidate targets available, want %d", len(targets), n)
	}
	return src, targets
}

// topkBenchEffort is the full per-candidate pool size L; the exhaustive
// draw bill for n candidates is 2·L·n (solve pool + evaluation pool).
const topkBenchEffort = 5000

// benchTopKScheduled measures the batched path: one TopK request under a
// quarter of the exhaustive draw budget, successive halving deciding
// which candidates earn full effort. draws/op is the measured pool
// growth — the acceptance bar is ≥3× fewer draws than the exhaustive
// loop below at n=64, at lower wall-clock.
func benchTopKScheduled(b *testing.B, n int) {
	s := setupDataset(b, "Wiki")
	src, targets := topkBenchTargets(b, s, n)
	q := server.TopKQuery{
		S: src, Targets: targets, K: max(1, n/8), Budget: 10,
		Realizations: topkBenchEffort,
		MaxDraws:     int64(n) * topkBenchEffort / 2, // exhaustive bill / 4
	}
	var draws int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv := server.New(s.g, s.w, server.Config{Seed: 1})
		res, err := sv.TopK(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		draws += res.DrawsSpent
	}
	b.ReportMetric(float64(draws)/float64(b.N), "draws/op")
}

// benchTopKExhaustive is the baseline the scheduler is judged against:
// n independent SolveMax calls on a fresh server, every candidate at
// full effort. draws/op sums the per-pair pool ledgers.
func benchTopKExhaustive(b *testing.B, n int) {
	s := setupDataset(b, "Wiki")
	src, targets := topkBenchTargets(b, s, n)
	var draws int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv := server.New(s.g, s.w, server.Config{Seed: 1})
		for _, t := range targets {
			// Unreachable or dissolved targets cost their sampled pools
			// either way; the scheduled run freezes the same candidates.
			if _, _, err := sv.SolveMax(context.Background(), src, t, 10, topkBenchEffort); err != nil {
				continue
			}
		}
		b.StopTimer()
		for _, t := range targets {
			h, err := sv.Pair(src, t)
			if err != nil {
				continue
			}
			draws += h.Core().Engine().PoolDraws()
			h.Done()
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(draws)/float64(b.N), "draws/op")
}

func BenchmarkTopKScheduled16(b *testing.B)  { benchTopKScheduled(b, 16) }
func BenchmarkTopKScheduled64(b *testing.B)  { benchTopKScheduled(b, 64) }
func BenchmarkTopKExhaustive16(b *testing.B) { benchTopKExhaustive(b, 16) }
func BenchmarkTopKExhaustive64(b *testing.B) { benchTopKExhaustive(b, 64) }

// BenchmarkObsDisabledTraceOps pins the disabled observability path: on
// an untraced context, TraceFrom + StartSpan + End + Finish are
// nil-check no-ops — the price every uninstrumented query pays for the
// hooks being compiled in. Must stay ~1ns and 0 allocs/op.
func BenchmarkObsDisabledTraceOps(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := obs.TraceFrom(ctx)
		sp := tr.StartSpan(obs.StageSolve)
		sp.End()
		tr.Finish()
	}
}

// BenchmarkObsHistogramObserve is one warmed latency observation — the
// dominant per-query recording cost when observability is enabled.
func BenchmarkObsHistogramObserve(b *testing.B) {
	h := obs.NewRegistry().Histogram("af_bench_seconds", "bench fixture")
	h.Observe(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) + 1)
	}
}

// benchObsSolveMax measures the same warm SolveMax query with
// observability off vs on; the Enabled/Disabled delta is the whole
// instrumentation bill on a real query (trace allocation, spans, two
// histogram observations).
func benchObsSolveMax(b *testing.B, o *obs.Obs) {
	s := setupDataset(b, "Wiki")
	p := s.pairs[0]
	sv := server.New(s.g, s.w, server.Config{Seed: 1, Obs: o})
	ctx := context.Background()
	if _, _, err := sv.SolveMax(ctx, p.S, p.T, 10, topkBenchEffort); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sv.SolveMax(ctx, p.S, p.T, 10, topkBenchEffort); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObsDisabledServerSolveMax(b *testing.B) { benchObsSolveMax(b, nil) }
func BenchmarkObsEnabledServerSolveMax(b *testing.B)  { benchObsSolveMax(b, obs.New()) }
