package eval

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/weights"
)

// testGraph builds a modest connected PA graph suitable for fast
// experiment runs.
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbert(300, 4, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testConfig(t *testing.T, g *graph.Graph, pairs []Pair) Config {
	t.Helper()
	return Config{
		Graph:           g,
		Weights:         weights.NewDegree(g),
		Pairs:           pairs,
		Alpha:           0.3,
		Eps:             0.05,
		N:               100,
		MaxRealizations: 4000,
		MaxPmaxDraws:    60000,
		EvalTrials:      4000,
		Seed:            5,
		Workers:         2,
	}
}

func samplePairsForTest(t *testing.T, g *graph.Graph, count int) []Pair {
	t.Helper()
	pairs, err := SamplePairs(context.Background(), g, weights.NewDegree(g), PairConfig{
		Count: count, MinPmax: 0.01, ScreenTrials: 1500, Seed: 3, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

func TestSamplePairs(t *testing.T) {
	g := testGraph(t)
	pairs := samplePairsForTest(t, g, 5)
	if len(pairs) == 0 {
		t.Fatal("no pairs")
	}
	for _, p := range pairs {
		if p.S == p.T || g.HasEdge(p.S, p.T) {
			t.Errorf("invalid pair %+v", p)
		}
		if p.Pmax < 0.01 {
			t.Errorf("pair %+v below threshold", p)
		}
	}
}

func TestSamplePairsDeterministic(t *testing.T) {
	g := testGraph(t)
	a := samplePairsForTest(t, g, 3)
	b := samplePairsForTest(t, g, 3)
	if len(a) != len(b) {
		t.Fatal("counts differ")
	}
	for i := range a {
		if a[i].S != b[i].S || a[i].T != b[i].T {
			t.Fatal("pair sequences differ for equal seeds")
		}
	}
}

func TestSamplePairsErrors(t *testing.T) {
	tiny := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}})
	_, err := SamplePairs(context.Background(), tiny, weights.NewDegree(tiny), PairConfig{Count: 1})
	if !errors.Is(err, ErrNoPairs) {
		t.Errorf("tiny graph err = %v", err)
	}
	// Disconnected graph: every pair fails the threshold.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	b.AddEdge(4, 5)
	dg := b.Build()
	_, err = SamplePairs(context.Background(), dg, weights.NewDegree(dg), PairConfig{
		Count: 1, MaxAttempts: 60, ScreenTrials: 200, Seed: 1,
	})
	if !errors.Is(err, ErrNoPairs) {
		t.Errorf("disconnected err = %v", err)
	}
}

func TestBasicExperiment(t *testing.T) {
	g := testGraph(t)
	pairs := samplePairsForTest(t, g, 4)
	cfg := testConfig(t, g, pairs)
	rows, err := BasicExperiment(context.Background(), cfg, []float64{0.1, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Pairs == 0 {
			t.Fatalf("alpha %v: no pairs used", r.Alpha)
		}
		if r.RAF < 0 || r.RAF > 1 || r.HD < 0 || r.SP < 0 {
			t.Errorf("alpha %v: probabilities out of range: %+v", r.Alpha, r)
		}
		if r.AvgSize <= 0 {
			t.Errorf("alpha %v: AvgSize = %v", r.Alpha, r.AvgSize)
		}
		// The paper's headline shape: RAF close to pmax and at least as
		// good as the baselines at equal size (generous slack for MC).
		if r.RAF+0.05 < r.HD || r.RAF+0.05 < r.SP {
			t.Errorf("alpha %v: RAF=%v below baselines HD=%v SP=%v", r.Alpha, r.RAF, r.HD, r.SP)
		}
	}
}

func TestBasicExperimentNoAlphas(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(t, g, samplePairsForTest(t, g, 1))
	if _, err := BasicExperiment(context.Background(), cfg, nil); err == nil {
		t.Error("empty alpha grid accepted")
	}
}

func TestCompareGrowthHD(t *testing.T) {
	g := testGraph(t)
	pairs := samplePairsForTest(t, g, 3)
	cfg := testConfig(t, g, pairs)
	res, err := CompareGrowth(context.Background(), cfg, baselines.HighDegree{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline != "HD" {
		t.Errorf("baseline = %s", res.Baseline)
	}
	if len(res.Bins) != 5 {
		t.Fatalf("bins = %d, want 5", len(res.Bins))
	}
	total := 0
	for i, b := range res.Bins {
		if math.Abs(b.XCenter-float64(i+1)*0.2) > 1e-9 {
			t.Errorf("bin %d center = %v", i, b.XCenter)
		}
		if b.Count > 0 && b.SizeRatio <= 0 {
			t.Errorf("bin %d: count %d but ratio %v", i, b.Count, b.SizeRatio)
		}
		total += b.Count
	}
	if total == 0 {
		t.Error("no growth points recorded")
	}
	if res.PairsUsed == 0 {
		t.Error("no pairs used")
	}
}

func TestCompareGrowthSP(t *testing.T) {
	g := testGraph(t)
	pairs := samplePairsForTest(t, g, 2)
	cfg := testConfig(t, g, pairs)
	res, err := CompareGrowth(context.Background(), cfg, baselines.ShortestPath{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline != "SP" {
		t.Errorf("baseline = %s", res.Baseline)
	}
}

func TestVmaxExperiment(t *testing.T) {
	g := testGraph(t)
	pairs := samplePairsForTest(t, g, 3)
	cfg := testConfig(t, g, pairs)
	cfg.Alpha = 0.1 // Table II setting
	row, err := VmaxExperiment(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row.PairsUsed == 0 {
		t.Fatal("no pairs used")
	}
	if row.AvgVmax <= 0 || row.AvgRAF <= 0 {
		t.Errorf("averages: %+v", row)
	}
	// Lemma 7 + minimality: |I_RAF| ≤ |V_max| per pair, so the averages
	// and the ratio obey the same ordering.
	if row.AvgRatio < 1 {
		t.Errorf("avg |Vmax|/|I_RAF| = %v < 1", row.AvgRatio)
	}
}

func TestRealizationSweep(t *testing.T) {
	g := testGraph(t)
	pairs := samplePairsForTest(t, g, 1)
	cfg := testConfig(t, g, pairs)
	pts, err := RealizationSweep(context.Background(), cfg, []int64{200, 1000, 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Saturation shape: more realizations should not hurt much.
	if pts[2].F+0.05 < pts[0].F {
		t.Errorf("f decreased substantially along the sweep: %+v", pts)
	}
	for _, p := range pts {
		if p.F < 0 || p.F > 1 {
			t.Errorf("f out of range: %+v", p)
		}
	}
}

func TestRealizationSweepValidation(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(t, g, nil)
	if _, err := RealizationSweep(context.Background(), cfg, []int64{100}); !errors.Is(err, ErrNoPairs) {
		t.Errorf("no pairs err = %v", err)
	}
	cfg2 := testConfig(t, g, samplePairsForTest(t, g, 1))
	if _, err := RealizationSweep(context.Background(), cfg2, nil); err == nil {
		t.Error("empty grid accepted")
	}
}

func TestRenderers(t *testing.T) {
	stats := []gen.Stats{{Nodes: 10, Edges: 20, EdgesPerNode: 2}}
	tb := RenderTable1([]string{"Wiki"}, stats)
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Wiki") {
		t.Error("Table I render missing dataset name")
	}

	fig3 := RenderFig3("Wiki", []Fig3Row{{Alpha: 0.1, Pmax: 0.05, RAF: 0.04, HD: 0.01, SP: 0.02, Pairs: 3}})
	sb.Reset()
	if err := fig3.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Fig. 3") {
		t.Error("Fig. 3 title missing")
	}

	growth := &GrowthResult{Baseline: "SP", Bins: []GrowthBin{{XCenter: 0.2, SizeRatio: 2, Count: 1}}}
	sb.Reset()
	if err := RenderGrowth("HepTh", growth).WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Fig. 5") {
		t.Error("SP growth should render as Fig. 5")
	}
	growth.Baseline = "HD"
	sb.Reset()
	if err := RenderGrowth("HepTh", growth).WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Fig. 4") {
		t.Error("HD growth should render as Fig. 4")
	}

	sb.Reset()
	if err := RenderTable2([]string{"Wiki"}, []*VmaxRow{{AvgVmax: 10, AvgRAF: 4, AvgRatio: 2.5, PairsUsed: 7}}).WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table II") {
		t.Error("Table II title missing")
	}

	sb.Reset()
	if err := RenderFig6("Wiki", []SweepPoint{{L: 100, F: 0.01, Size: 5}}).WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Fig. 6") {
		t.Error("Fig. 6 title missing")
	}
}

func TestExperimentsCancellation(t *testing.T) {
	g := testGraph(t)
	pairs := samplePairsForTest(t, g, 1)
	cfg := testConfig(t, g, pairs)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BasicExperiment(ctx, cfg, []float64{0.1}); !errors.Is(err, context.Canceled) {
		t.Errorf("BasicExperiment err = %v", err)
	}
	if _, err := CompareGrowth(ctx, cfg, baselines.HighDegree{}); !errors.Is(err, context.Canceled) {
		t.Errorf("CompareGrowth err = %v", err)
	}
	if _, err := VmaxExperiment(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("VmaxExperiment err = %v", err)
	}
	if _, err := RealizationSweep(ctx, cfg, []int64{100}); !errors.Is(err, context.Canceled) {
		t.Errorf("RealizationSweep err = %v", err)
	}
}

// TestBasicExperimentThroughServer routes the multi-pair experiment
// through the serving layer: results are produced under an
// eviction-inducing pool budget, identical to the same server config
// without a budget, and the server's ledger shows the traffic.
func TestBasicExperimentThroughServer(t *testing.T) {
	g := testGraph(t)
	pairs := samplePairsForTest(t, g, 4)
	alphas := []float64{0.2, 0.3}

	run := func(maxBytes int64) ([]Fig3Row, *server.Server) {
		cfg := testConfig(t, g, pairs)
		cfg.Server = server.New(g, cfg.Weights, server.Config{
			Seed: cfg.Seed, Workers: cfg.Workers, MaxPoolBytes: maxBytes, Shards: 4,
		})
		rows, err := BasicExperiment(context.Background(), cfg, alphas)
		if err != nil {
			t.Fatal(err)
		}
		return rows, cfg.Server
	}

	free, freeSv := run(0)
	budgeted, sv := run(96 << 10)
	for i := range free {
		if free[i] != budgeted[i] {
			t.Errorf("alpha %v: rows diverged under eviction:\n got %+v\nwant %+v",
				free[i].Alpha, budgeted[i], free[i])
		}
	}
	st := sv.Stats()
	if st.SessionsCreated == 0 {
		t.Error("experiment did not route through the server")
	}
	if st.SessionsEvicted == 0 {
		t.Errorf("no eviction under a 96KiB budget: %+v", st)
	}
	if st.BytesHeld > 96<<10 {
		t.Errorf("BytesHeld = %d exceeds budget", st.BytesHeld)
	}
	if got := freeSv.Stats().SessionsLive; got != len(pairs) {
		t.Errorf("unbudgeted server live sessions = %d, want %d", got, len(pairs))
	}
}

func TestTopKRanking(t *testing.T) {
	g := testGraph(t)
	pairs := samplePairsForTest(t, g, 8)
	cfg := testConfig(t, g, pairs)
	cfg.EvalTrials = 2048
	res, err := TopKRanking(context.Background(), cfg, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Error("exhaustive batch diverged from independent SolveMax queries")
	}
	if res.ScheduledDraws >= res.ExhaustiveDraws {
		t.Errorf("scheduled run spent %d draws, exhaustive %d — no saving",
			res.ScheduledDraws, res.ExhaustiveDraws)
	}
	if res.DrawRatio <= 1 {
		t.Errorf("draw ratio %v, want > 1", res.DrawRatio)
	}
	if res.PrecisionAtK < 0 || res.PrecisionAtK > 1 {
		t.Errorf("precision@k = %v", res.PrecisionAtK)
	}
	if res.Candidates == 0 || res.K != 3 || res.Budget != 3 {
		t.Errorf("report shape: %+v", res)
	}
	if tbl := RenderTopK("test", res); tbl == nil {
		t.Error("nil table")
	}
	// Validation.
	if _, err := TopKRanking(context.Background(), cfg, 0, 3); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := TopKRanking(context.Background(), Config{Graph: g, Weights: cfg.Weights}, 3, 3); !errors.Is(err, ErrNoPairs) {
		t.Errorf("no pairs err = %v", err)
	}
}
