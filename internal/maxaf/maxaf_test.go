package maxaf

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ltm"
	"repro/internal/weights"
)

func line(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.Node(i), graph.Node(i+1))
	}
	return b.Build()
}

func randomConnected(seed int64, n, extra int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.Node(i), graph.Node(rng.Intn(i)))
	}
	for i := 0; i < extra; i++ {
		b.AddEdge(graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n)))
	}
	return b.Build()
}

func mustInstance(t *testing.T, g *graph.Graph, s, tt graph.Node) *ltm.Instance {
	t.Helper()
	in, err := ltm.NewInstance(g, weights.NewDegree(g), s, tt)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// solveMax answers one budgeted query on a fresh pair session.
func solveMax(ctx context.Context, in *ltm.Instance, budget int, realizations, seed int64) (*Result, error) {
	res, _, err := SolveMaxOn(ctx, core.NewSession(in, seed, 0), budget, realizations)
	return res, err
}

func TestSolveLine(t *testing.T) {
	// Line 0-1-2-3: the only useful invitation set is {2,3}; budget 2
	// must find it and budget 1 must cover nothing.
	g := line(4)
	in := mustInstance(t, g, 0, 3)
	ctx := context.Background()
	res, err := solveMax(ctx, in, 2, 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Invited.Members()
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("Invited = %v, want [2 3]", got)
	}
	if res.CoveredFraction < 0.4 || res.CoveredFraction > 0.6 {
		t.Errorf("CoveredFraction = %v, want ~0.5", res.CoveredFraction)
	}
	res1, err := solveMax(ctx, in, 1, 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res1.CoveredFraction != 0 {
		t.Errorf("budget 1 covered %v, want 0 (path needs 2 nodes)", res1.CoveredFraction)
	}
}

func TestSolveValidation(t *testing.T) {
	g := line(4)
	in := mustInstance(t, g, 0, 3)
	if _, err := solveMax(context.Background(), in, 0, 500, 0); err == nil {
		t.Error("budget 0 accepted")
	}
}

func TestSolveUnreachable(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(3, 4)
	g := b.Build()
	in := mustInstance(t, g, 0, 4)
	_, err := solveMax(context.Background(), in, 3, 500, 0)
	if !errors.Is(err, core.ErrTargetUnreachable) {
		t.Errorf("err = %v, want ErrTargetUnreachable", err)
	}
}

// TestSolveBeatsBaselinesAtBudget: on random graphs, the realization-based
// budgeted solution should (weakly) beat HD at the same budget, measured
// by an independent estimator.
func TestSolveBeatsBaselinesAtBudget(t *testing.T) {
	ctx := context.Background()
	checked := 0
	for seed := int64(1); seed <= 10 && checked < 3; seed++ {
		g := randomConnected(seed*31, 40, 50)
		s, tt := graph.Node(0), graph.Node(39)
		if g.HasEdge(s, tt) {
			continue
		}
		in := mustInstance(t, g, s, tt)
		all := graph.NewNodeSet(g.NumNodes())
		all.Fill()
		pmax, err := engine.New(in).EstimateF(ctx, all, 60000, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		if pmax < 0.05 {
			continue
		}
		checked++
		budget := 8
		res, err := solveMax(ctx, in, budget, 30000, seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Invited.Len() > budget {
			t.Fatalf("budget violated: %d > %d", res.Invited.Len(), budget)
		}
		fMax, err := engine.New(in).EstimateF(ctx, res.Invited, 60000, 2, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		hdOrder := baselines.HighDegree{}.Rank(in)
		hdSet := baselines.PrefixSet(g.NumNodes(), hdOrder, budget)
		fHD, err := engine.New(in).EstimateF(ctx, hdSet, 60000, 2, seed+2)
		if err != nil {
			t.Fatal(err)
		}
		if fMax+0.02 < fHD {
			t.Errorf("seed %d: budgeted maxaf %v below HD %v", seed, fMax, fHD)
		}
	}
	if checked == 0 {
		t.Skip("no usable pair")
	}
}

func TestSolveMonotoneInBudget(t *testing.T) {
	g := randomConnected(77, 30, 40)
	s, tt := graph.Node(0), graph.Node(29)
	if g.HasEdge(s, tt) {
		t.Skip("adjacent pair")
	}
	in := mustInstance(t, g, s, tt)
	ctx := context.Background()
	prev := -1.0
	for _, budget := range []int{2, 6, 12, 24} {
		res, err := solveMax(ctx, in, budget, 20000, 5)
		if err != nil {
			if errors.Is(err, core.ErrTargetUnreachable) {
				t.Skip("unreachable pair")
			}
			t.Fatal(err)
		}
		if res.CoveredFraction < prev {
			t.Errorf("coverage decreased at budget %d: %v < %v", budget, res.CoveredFraction, prev)
		}
		prev = res.CoveredFraction
	}
}

// TestSolveBudgetsFromPoolParity: the budget-sweep path (one cached
// family, one reused solver, batched coverage re-measurement) must return
// results identical to calling SolveFromPool per budget.
func TestSolveBudgetsFromPoolParity(t *testing.T) {
	g := randomConnected(4, 40, 60)
	if g.HasEdge(0, 39) {
		t.Skip("adjacent s,t")
	}
	in := mustInstance(t, g, 0, 39)
	pool, err := engine.New(in).SamplePool(context.Background(), 12000, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if pool.NumType1() == 0 {
		t.Skip("no type-1 realizations")
	}
	budgets := []int{1, 2, 3, 5, 8, 13, 21, 40}
	sweep, err := SolveBudgetsFromPool(context.Background(), in, budgets, pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != len(budgets) {
		t.Fatalf("%d results for %d budgets", len(sweep), len(budgets))
	}
	for i, b := range budgets {
		single, err := SolveFromPool(context.Background(), in, b, pool)
		if err != nil {
			t.Fatal(err)
		}
		gotM, wantM := sweep[i].Invited.Members(), single.Invited.Members()
		if len(gotM) != len(wantM) {
			t.Fatalf("budget %d: |sweep|=%d |single|=%d", b, len(gotM), len(wantM))
		}
		for j := range gotM {
			if gotM[j] != wantM[j] {
				t.Fatalf("budget %d: invited sets differ at %d", b, j)
			}
		}
		if sweep[i].CoveredFraction != single.CoveredFraction {
			t.Errorf("budget %d: sweep fraction %v != single %v (batched re-measurement must equal the greedy's tally)",
				b, sweep[i].CoveredFraction, single.CoveredFraction)
		}
		if sweep[i].PoolType1 != single.PoolType1 {
			t.Errorf("budget %d: PoolType1 %d != %d", b, sweep[i].PoolType1, single.PoolType1)
		}
	}
	// Error paths: empty sweep and non-positive budgets.
	if _, err := SolveBudgetsFromPool(context.Background(), in, nil, pool); err == nil {
		t.Error("empty budget list accepted")
	}
	if _, err := SolveBudgetsFromPool(context.Background(), in, []int{3, 0}, pool); err == nil {
		t.Error("zero budget accepted")
	}
}

// TestSweepCoveredMatchesPoolCoverage: the sweep's in-pool fraction is
// the greedy's Covered tally, and re-measuring each chosen set against
// the pool's inverted index in one batched query counts the same draws.
func TestSweepCoveredMatchesPoolCoverage(t *testing.T) {
	in := mustInstance(t, randomConnected(4, 40, 60), 0, 39)
	pool, err := engine.New(in).SamplePool(context.Background(), 12000, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	fam, err := pool.Family()
	if err != nil {
		t.Fatal(err)
	}
	budgets := []int{1, 2, 3, 5, 8, 13, 21, 40}
	sweep, err := SolveBudgetsFromPool(context.Background(), in, budgets, pool)
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]int, len(budgets))
	sets := make([]*graph.NodeSet, len(budgets))
	for i, b := range budgets {
		sol, err := fam.SolveBudget(b)
		if err != nil {
			t.Fatal(err)
		}
		covered[i] = sol.Covered
		sets[i] = graph.NewNodeSetOf(in.Graph().NumNodes(), sol.Union...)
	}
	for i, c := range pool.Index().CoverageCounts(sets) {
		if c != int64(covered[i]) {
			t.Errorf("budget %d: index counts %d covered draws, greedy tallied %d", budgets[i], c, covered[i])
		}
		if want := float64(c) / float64(pool.Total()); sweep[i].CoveredFraction != want {
			t.Errorf("budget %d: sweep fraction %v, pool measures %v", budgets[i], sweep[i].CoveredFraction, want)
		}
	}
}

// TestSolveMaxOnMeasuresOnEvalPool: SolveMaxOn solves on the session's
// pool of exactly l draws — the pool a one-shot SamplePool at the same
// seed returns — and its estimate is the evaluation pool's measurement
// of the chosen set; the budget sweep returns the same answers per
// budget.
func TestSolveMaxOnMeasuresOnEvalPool(t *testing.T) {
	g := randomConnected(4, 40, 60)
	if g.HasEdge(0, 39) {
		t.Skip("adjacent s,t")
	}
	in := mustInstance(t, g, 0, 39)
	ctx := context.Background()
	const l = 6000
	sess := core.NewSession(in, 11, 2)
	pool, err := engine.New(in).SamplePool(ctx, l, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	budgets := []int{2, 5, 9}
	sweep, fs, err := SolveMaxBudgetsOn(ctx, sess, budgets, l)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range budgets {
		res, f, err := SolveMaxOn(ctx, sess, b, l)
		if err != nil {
			t.Fatal(err)
		}
		oneShot, err := SolveFromPool(ctx, in, b, pool)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Invited.ContainsAll(oneShot.Invited) || !oneShot.Invited.ContainsAll(res.Invited) ||
			res.CoveredFraction != oneShot.CoveredFraction {
			t.Errorf("budget %d: session solve %v/%v, one-shot %v/%v", b,
				res.Invited.Members(), res.CoveredFraction, oneShot.Invited.Members(), oneShot.CoveredFraction)
		}
		want, err := sess.Eval().EstimateF(ctx, res.Invited, l)
		if err != nil {
			t.Fatal(err)
		}
		if f != want || fs[i] != want {
			t.Errorf("budget %d: estimate %v (sweep %v), eval pool measures %v", b, f, fs[i], want)
		}
		if !sweep[i].Invited.ContainsAll(res.Invited) || !res.Invited.ContainsAll(sweep[i].Invited) {
			t.Errorf("budget %d: sweep chose %v, single %v", b, sweep[i].Invited.Members(), res.Invited.Members())
		}
	}
	if got := sess.PoolSize(); got != l {
		t.Errorf("solve pool holds %d draws, want %d", got, l)
	}
}

func TestRealizationsDefault(t *testing.T) {
	for _, tc := range []struct{ in, want int64 }{{0, DefaultRealizations}, {-3, DefaultRealizations}, {1, 1}, {7000, 7000}} {
		if got := Realizations(tc.in); got != tc.want {
			t.Errorf("Realizations(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
