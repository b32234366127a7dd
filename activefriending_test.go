package activefriending

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// lineGraph builds 0-1-2-…-(n−1).
func lineGraph(n int) *Graph {
	b := NewGraphBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(Node(i), Node(i+1))
	}
	return b.Build()
}

func TestNewProblemValidation(t *testing.T) {
	g := lineGraph(4)
	if _, err := NewProblem(g, 0, 1); err == nil {
		t.Error("adjacent pair accepted")
	}
	if _, err := NewProblem(g, 2, 2); err == nil {
		t.Error("s == t accepted")
	}
	p, err := NewProblem(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Initiator() != 0 || p.Target() != 3 || p.Graph().NumNodes() != 4 {
		t.Error("accessors broken")
	}
}

func TestSolveLine(t *testing.T) {
	g := lineGraph(4)
	p, err := NewProblem(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve(context.Background(), Options{
		Alpha: 0.5, Eps: 0.1, N: 50, Seed: 1,
		MaxRealizations: 20000, MaxPmaxDraws: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Invited) != 2 || sol.Invited[0] != 2 || sol.Invited[1] != 3 {
		t.Errorf("Invited = %v, want [2 3]", sol.Invited)
	}
	if math.Abs(sol.PStar-0.5) > 0.1 {
		t.Errorf("PStar = %v, want ~0.5", sol.PStar)
	}
	if sol.VmaxSize != 2 || sol.Realizations <= 0 || sol.PoolType1 <= 0 {
		t.Errorf("diagnostics: %+v", sol)
	}
}

func TestSolveDefaultsAndUnreachable(t *testing.T) {
	b := NewGraphBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(3, 4)
	g := b.Build()
	p, err := NewProblem(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Solve(context.Background(), Options{MaxPmaxDraws: 1000})
	if !IsUnreachable(err) {
		t.Errorf("err = %v, want unreachable", err)
	}
	if !errors.Is(err, ErrTargetUnreachable) {
		t.Errorf("errors.Is failed for %v", err)
	}
}

func TestVmaxFacade(t *testing.T) {
	g := lineGraph(5)
	p, err := NewProblem(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := p.Vmax()
	if err != nil {
		t.Fatal(err)
	}
	if len(vm) != 3 || vm[0] != 2 || vm[2] != 4 {
		t.Errorf("Vmax = %v, want [2 3 4]", vm)
	}
}

func TestAcceptanceProbabilityAgreement(t *testing.T) {
	g := lineGraph(4)
	p, err := NewProblem(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	invited := []Node{2, 3}
	rev, err := p.AcceptanceProbability(ctx, invited, 150000, 7)
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := p.AcceptanceProbabilityForward(ctx, invited, 150000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rev-0.5) > 0.01 || math.Abs(fwd-0.5) > 0.01 {
		t.Errorf("estimates rev=%v fwd=%v, want ~0.5", rev, fwd)
	}
	pm, err := p.Pmax(ctx, 150000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pm-0.5) > 0.01 {
		t.Errorf("Pmax = %v, want ~0.5", pm)
	}
}

func TestAcceptanceProbabilityBadNode(t *testing.T) {
	g := lineGraph(4)
	p, err := NewProblem(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AcceptanceProbability(context.Background(), []Node{99}, 100, 1); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestBaselineSets(t *testing.T) {
	g := lineGraph(6)
	p, err := NewProblem(g, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	hd := p.HighDegreeSet(3)
	if len(hd) != 3 {
		t.Errorf("HD set = %v", hd)
	}
	sp := p.ShortestPathSet(4)
	// SP on a line includes exactly the interior path plus t.
	want := map[Node]bool{2: true, 3: true, 4: true, 5: true}
	if len(sp) != 4 {
		t.Fatalf("SP set = %v", sp)
	}
	for _, v := range sp {
		if !want[v] {
			t.Errorf("SP set contains unexpected %v", sp)
		}
	}
}

func TestGenerateDataset(t *testing.T) {
	g, err := GenerateDataset("Wiki", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() < 100 {
		t.Errorf("nodes = %d", g.NumNodes())
	}
	if _, err := GenerateDataset("nope", 0.1, 3); err == nil {
		t.Error("unknown dataset accepted")
	}
	names := DatasetNames()
	if len(names) != 4 || names[0] != "Wiki" {
		t.Errorf("DatasetNames = %v", names)
	}
}

func TestEdgeListRoundTripFacade(t *testing.T) {
	g := lineGraph(5)
	var sb strings.Builder
	if err := SaveEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Errorf("edges = %d, want %d", g2.NumEdges(), g.NumEdges())
	}
}

func TestNewProblemWithWeights(t *testing.T) {
	g := lineGraph(4)
	p, err := NewProblemWithWeights(g, 0, 3, func(u, v Node) float64 { return 0.4 })
	if err != nil {
		t.Fatal(err)
	}
	// With w = 0.4 on every incoming edge: node 2 activates from node 1
	// with prob 0.4, then t with prob 0.4: f({2,3}) = 0.16.
	f, err := p.AcceptanceProbability(context.Background(), []Node{2, 3}, 200000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-0.16) > 0.01 {
		t.Errorf("f = %v, want ~0.16", f)
	}
	if _, err := NewProblemWithWeights(g, 0, 3, func(u, v Node) float64 { return 0.9 }); err == nil {
		t.Error("over-normalized weights accepted")
	}
}

func TestSolveMax(t *testing.T) {
	g := lineGraph(4)
	p, err := NewProblem(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := p.SolveMax(context.Background(), 2, 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Invited) != 2 || sol.Invited[0] != 2 || sol.Invited[1] != 3 {
		t.Errorf("SolveMax invited = %v, want [2 3]", sol.Invited)
	}
	if sol.EstimatedF < 0.4 || sol.EstimatedF > 0.6 {
		t.Errorf("EstimatedF = %v, want ~0.5", sol.EstimatedF)
	}
	if _, err := p.SolveMax(context.Background(), 0, 100, 1); err == nil {
		t.Error("budget 0 accepted")
	}
}

// TestSessionSharedPool exercises the session facade end to end: an
// α-sweep plus SolveMax and estimator calls, all against shared pools.
func TestSessionSharedPool(t *testing.T) {
	g := lineGraph(4)
	p, err := NewProblem(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess := p.NewSession(1, 0)
	opts := Options{
		Eps: 0.1, N: 50, Realizations: 10000, MaxPmaxDraws: 200000,
	}
	for _, alpha := range []float64{0.3, 0.5, 0.7} {
		opts.Alpha = alpha
		sol, err := sess.Solve(ctx, opts)
		if err != nil {
			t.Fatalf("alpha=%v: %v", alpha, err)
		}
		if len(sol.Invited) != 2 || sol.Invited[0] != 2 || sol.Invited[1] != 3 {
			t.Errorf("alpha=%v: Invited = %v, want [2 3]", alpha, sol.Invited)
		}
	}
	st := sess.Stats()
	if st.SolvePoolSize != 10000 {
		t.Errorf("SolvePoolSize = %d, want 10000", st.SolvePoolSize)
	}
	// The whole sweep sampled the solve pool exactly once.
	if st.PoolDraws != 10000 {
		t.Errorf("PoolDraws = %d, want 10000 (pool sampled more than once)", st.PoolDraws)
	}

	// SolveMax shares the same pool: only the growth from 10000 to 12000
	// is sampled.
	msol, err := sess.SolveMax(ctx, 2, 12000)
	if err != nil {
		t.Fatal(err)
	}
	if len(msol.Invited) != 2 || msol.Invited[0] != 2 || msol.Invited[1] != 3 {
		t.Errorf("SolveMax invited = %v, want [2 3]", msol.Invited)
	}
	st = sess.Stats()
	if st.SolvePoolSize != 12000 {
		t.Errorf("after SolveMax: SolvePoolSize = %d, want 12000", st.SolvePoolSize)
	}
	// SolveMax grew the solve pool 10000→12000 and measured EstimatedF on
	// a 12000-draw eval pool; the ledger counts each pooled draw once.
	if st.PoolDraws != st.SolvePoolSize+st.EvalPoolSize {
		t.Errorf("after SolveMax: PoolDraws = %d, want SolvePoolSize+EvalPoolSize = %d (regrow double-counted)",
			st.PoolDraws, st.SolvePoolSize+st.EvalPoolSize)
	}

	// Estimators run against the separate evaluation pool.
	f, err := sess.AcceptanceProbability(ctx, []Node{2, 3}, 50000)
	if err != nil {
		t.Fatal(err)
	}
	pmax, err := sess.Pmax(ctx, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-0.5) > 0.02 || math.Abs(pmax-0.5) > 0.02 {
		t.Errorf("f = %v, pmax = %v, want ~0.5 each", f, pmax)
	}
	st = sess.Stats()
	if st.EvalPoolSize != 50000 {
		t.Errorf("EvalPoolSize = %d, want 50000", st.EvalPoolSize)
	}
	// The documented SessionStats invariant, after the full grow sequence
	// (solve pool 10000→12000, eval pool 12000→50000, partial chunks
	// regrown along the way): PoolDraws == SolvePoolSize + EvalPoolSize.
	if st.PoolDraws != st.SolvePoolSize+st.EvalPoolSize {
		t.Errorf("PoolDraws = %d, want SolvePoolSize+EvalPoolSize = %d",
			st.PoolDraws, st.SolvePoolSize+st.EvalPoolSize)
	}
}

// TestSessionMatchesOneShot: session results agree with one-shot Problem
// calls at the same seed.
func TestSessionMatchesOneShot(t *testing.T) {
	g := lineGraph(4)
	p, err := NewProblem(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := Options{
		Alpha: 0.5, Eps: 0.1, N: 50, Seed: 3, Realizations: 8000,
		MaxPmaxDraws: 200000,
	}
	oneShot, err := p.Solve(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	viaSess, err := p.NewSession(3, 0).Solve(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(oneShot.Invited) != len(viaSess.Invited) {
		t.Fatalf("invited sets differ: %v vs %v", oneShot.Invited, viaSess.Invited)
	}
	for i := range oneShot.Invited {
		if oneShot.Invited[i] != viaSess.Invited[i] {
			t.Fatalf("invited sets differ: %v vs %v", oneShot.Invited, viaSess.Invited)
		}
	}
	if oneShot.PoolType1 != viaSess.PoolType1 || oneShot.Covered != viaSess.Covered {
		t.Errorf("diagnostics differ: %+v vs %+v", oneShot, viaSess)
	}

	// The budgeted variant: the one-shot call samples the same solve pool
	// a session at the same seed holds, so the greedy's answer matches.
	maxOneShot, err := p.SolveMax(ctx, 2, 6000, 3)
	if err != nil {
		t.Fatal(err)
	}
	maxSess, err := p.NewSession(3, 0).SolveMax(ctx, 2, 6000)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(maxOneShot.Invited, maxSess.Invited) || maxOneShot.TrainF != maxSess.TrainF {
		t.Errorf("SolveMax differs: one-shot %v/%v, session %v/%v",
			maxOneShot.Invited, maxOneShot.TrainF, maxSess.Invited, maxSess.TrainF)
	}
}

// diamondChain builds a graph with many s→t routes: 0–{1,2}, {1,2}–{3,4},
// {3,4}–5, plus a few dead-end spurs that give the sampler wrong turns.
func diamondChain() *Graph {
	b := NewGraphBuilder(10)
	for _, e := range [][2]Node{
		{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 5}, {4, 5},
		{1, 6}, {2, 7}, {3, 8}, {4, 9},
	} {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// TestSolveMaxTrainEvalDiverge: TrainF is the covered fraction of the
// very pool the greedy optimized over and is optimistically biased;
// EstimatedF is re-measured on decorrelated draws. On a small pool the
// two must not coincide — previously SolveMax reported the biased
// in-pool number as EstimatedF.
func TestSolveMaxTrainEvalDiverge(t *testing.T) {
	g := diamondChain()
	p, err := NewProblem(g, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess := p.NewSession(3, 0)
	sol, err := sess.SolveMax(ctx, 2, 400)
	if err != nil {
		t.Fatal(err)
	}
	if sol.TrainF == sol.EstimatedF {
		t.Errorf("TrainF = EstimatedF = %v: EstimatedF still measured on the solve pool", sol.TrainF)
	}
	if sol.TrainF <= 0 || sol.EstimatedF <= 0 {
		t.Errorf("degenerate estimates: TrainF = %v, EstimatedF = %v", sol.TrainF, sol.EstimatedF)
	}
	// One-shot path re-measures too (estimator streams are decorrelated
	// from pool streams by namespace).
	oneShot, err := p.SolveMax(ctx, 2, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	if oneShot.TrainF == oneShot.EstimatedF {
		t.Errorf("one-shot TrainF = EstimatedF = %v", oneShot.TrainF)
	}
}

// TestServerFacade: the public Server answers all four query kinds,
// answers are identical with and without an eviction-inducing budget,
// and the stats ledger tracks sessions and bytes.
func TestServerFacade(t *testing.T) {
	g := diamondChain()
	ctx := context.Background()
	pairs := [][2]Node{{0, 5}, {0, 3}, {0, 4}, {6, 5}, {1, 2}}
	opts := Options{Alpha: 0.3, Eps: 0.1, N: 50, Realizations: 3000, MaxPmaxDraws: 100000}

	type answers struct {
		sol  *Solution
		msol *MaxSolution
		f    float64
		pmax float64
	}
	collect := func(sv *Server) []answers {
		var out []answers
		for _, pk := range pairs {
			a := answers{}
			var err error
			a.sol, err = sv.Solve(ctx, pk[0], pk[1], opts)
			if err != nil {
				t.Fatalf("Solve(%v): %v", pk, err)
			}
			a.msol, err = sv.SolveMax(ctx, pk[0], pk[1], 2, 2000)
			if err != nil {
				t.Fatalf("SolveMax(%v): %v", pk, err)
			}
			a.f, err = sv.AcceptanceProbability(ctx, pk[0], pk[1], a.sol.Invited, 2000)
			if err != nil {
				t.Fatalf("AcceptanceProbability(%v): %v", pk, err)
			}
			a.pmax, err = sv.Pmax(ctx, pk[0], pk[1], 2000)
			if err != nil {
				t.Fatalf("Pmax(%v): %v", pk, err)
			}
			if a.f <= 0 || a.pmax <= 0 || a.f > a.pmax+0.05 {
				t.Errorf("pair %v: f = %v, pmax = %v", pk, a.f, a.pmax)
			}
			out = append(out, a)
		}
		return out
	}

	free := NewServer(g, ServerConfig{Seed: 9})
	want := collect(free)
	budgeted := NewServer(g, ServerConfig{Seed: 9, MaxPoolBytes: 24 << 10, Shards: 2, Workers: 2})
	got := collect(budgeted)
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("pair %v: budgeted server diverged:\n got %+v\nwant %+v", pairs[i], got[i], want[i])
		}
	}

	st := budgeted.Stats()
	if st.SessionsEvicted == 0 {
		t.Errorf("no evictions under a 24KiB budget: %+v", st)
	}
	if st.BytesHeld > 24<<10 {
		t.Errorf("BytesHeld = %d exceeds the 24KiB budget", st.BytesHeld)
	}
	if st.Solve.Hits+st.Solve.Misses != int64(len(pairs)) {
		t.Errorf("solve queries = %d, want %d", st.Solve.Hits+st.Solve.Misses, len(pairs))
	}
	if free.Stats().SessionsLive != len(pairs) {
		t.Errorf("unbudgeted live sessions = %d, want %d", free.Stats().SessionsLive, len(pairs))
	}
	// Adjacent pair rejected, wrong node id rejected.
	if _, err := budgeted.Pmax(ctx, 0, 1, 1000); err == nil {
		t.Error("adjacent pair accepted")
	}
	if _, err := budgeted.AcceptanceProbability(ctx, 0, 5, []Node{99}, 1000); err == nil {
		t.Error("out-of-range invited node accepted")
	}

	// Spill tier: a budgeted server that spills to disk, and a warm
	// restart from its flushed state, both answer identically; the
	// ledger shows pools moving through the disk tier instead of being
	// resampled.
	dir := t.TempDir()
	spilling := NewServer(g, ServerConfig{Seed: 9, MaxPoolBytes: 24 << 10, SpillDir: dir})
	if got := collect(spilling); !reflect.DeepEqual(want, got) {
		t.Error("spilling server diverged from the unbudgeted reference")
	}
	if st := spilling.Stats(); st.Spills == 0 || st.SpillLoads == 0 || st.SpillDrawsSaved == 0 {
		t.Errorf("spill tier idle under budget pressure: %+v", st)
	}
	if err := spilling.SpillAll(); err != nil {
		t.Fatal(err)
	}
	warmed := NewServer(g, ServerConfig{Seed: 9, SpillDir: dir})
	if n, err := warmed.Warm(); err != nil || n == 0 {
		t.Fatalf("Warm = %d, %v", n, err)
	}
	if got := collect(warmed); !reflect.DeepEqual(want, got) {
		t.Error("warm-restarted server diverged")
	}
	if st := warmed.Stats(); st.SpillLoads == 0 {
		t.Errorf("warm restart resampled instead of loading: %+v", st)
	}
}

// TestEstimatePmaxFacade drives the Algorithm 2 estimator through the
// Session and Server facades: estimates land near the true p_max,
// refinement to a tighter eps0 reuses the session's ledger, and the
// server's answer is identical to the session's for the pair's derived
// seed-independent parameters.
func TestEstimatePmaxFacade(t *testing.T) {
	g := lineGraph(4) // p_max = 1/2 exactly
	p, err := NewProblem(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess := p.NewSession(1, 0)

	coarse, err := sess.EstimatePmax(ctx, 0.3, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Truncated || math.Abs(coarse.Value-0.5) > 0.3*0.5+0.1 {
		t.Errorf("coarse estimate %+v, want ~0.5 untruncated", coarse)
	}
	if coarse.Reused != 0 {
		t.Errorf("cold estimate reused %d draws", coarse.Reused)
	}
	tight, err := sess.EstimatePmax(ctx, 0.05, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tight.Value-0.5) > 0.05*0.5+0.05 {
		t.Errorf("tight estimate %v, want within ~eps0 of 0.5", tight.Value)
	}
	if tight.Reused == 0 || tight.Draws <= coarse.Draws {
		t.Errorf("refinement did not extend the ledger: %+v after %+v", tight, coarse)
	}
	if st := sess.Stats(); st.PmaxDraws == 0 || st.PmaxDraws < tight.Draws {
		t.Errorf("SessionStats.PmaxDraws = %d, want ≥ %d", st.PmaxDraws, tight.Draws)
	}
	// Repeating the tight request answers purely from the ledger.
	again, err := sess.EstimatePmax(ctx, 0.05, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.Sampled != 0 || again.Value != tight.Value || again.Draws != tight.Draws {
		t.Errorf("repeat estimate resampled: %+v, want %+v with 0 sampled", again, tight)
	}

	// Server facade: deterministic per (seed, s, t), reuse ledgered.
	sv := NewServer(g, ServerConfig{Seed: 1})
	a, err := sv.EstimatePmax(ctx, 0, 3, 0.05, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sv.EstimatePmax(ctx, 0, 3, 0.05, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != b.Value || a.Draws != b.Draws || b.Sampled != 0 {
		t.Errorf("server estimates diverged: %+v vs %+v", a, b)
	}
	if st := sv.Stats(); st.PmaxDrawsReused < b.Draws || st.EstimatePmax.Hits+st.EstimatePmax.Misses != 2 {
		t.Errorf("server pmax ledger: %+v", st)
	}
	// Defaults: zero parameters select eps0 = 0.1, N = 1e5 and the draw
	// cap — on this tiny graph the rule converges well inside the cap.
	def, err := sess.EstimatePmax(ctx, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if def.Truncated || math.Abs(def.Value-0.5) > 0.1 {
		t.Errorf("default estimate %+v, want ~0.5", def)
	}
}

// TestTopKFacade drives the batched ranking API end to end: winners of
// an unlimited-budget batch match independent SolveMax answers, a
// budgeted batch spends fewer draws, refinement resumes warm, and the
// ledger sees the batch.
func TestTopKFacade(t *testing.T) {
	g := diamondChain()
	ctx := context.Background()
	source := Node(0)
	targets := []Node{3, 4, 5, 8, 9}
	opts := TopKOptions{Budget: 2, Realizations: 2048}

	sv := NewServer(g, ServerConfig{Seed: 9})
	top, err := sv.TopK(ctx, source, targets, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Winners) != 2 || len(top.Candidates) != len(targets) || len(top.Ranked) != len(targets) {
		t.Fatalf("shape: %d winners, %d candidates, %d ranked", len(top.Winners), len(top.Candidates), len(top.Ranked))
	}
	ref := NewServer(g, ServerConfig{Seed: 9})
	for i, tgt := range targets {
		msol, err := ref.SolveMax(ctx, source, tgt, 2, 2048)
		if err != nil {
			t.Fatalf("SolveMax(%d): %v", tgt, err)
		}
		c := top.Candidates[i]
		if c.Score != msol.EstimatedF || c.TrainF != msol.TrainF || !reflect.DeepEqual(c.Invited, msol.Invited) {
			t.Fatalf("candidate %d diverged from SolveMax:\n%+v\nvs\n%+v", i, c, msol)
		}
	}
	// Winners are the best-scored candidates.
	for i := 1; i < len(top.Ranked); i++ {
		if top.Candidates[top.Ranked[i-1]].Score < top.Candidates[top.Ranked[i]].Score {
			t.Fatalf("ranking out of order: %v", top.Ranked)
		}
	}
	if st := sv.Stats(); st.TopK.Hits+st.TopK.Misses == 0 {
		t.Errorf("TopK kind unledgered: %+v", st)
	}

	// A budgeted batch on a fresh server spends fewer draws and stays
	// refinable up to the exhaustive answer.
	lean := NewServer(g, ServerConfig{Seed: 9})
	budget := top.ExhaustiveDraws / 4
	sched, err := lean.TopK(ctx, source, targets, 2, TopKOptions{Budget: 2, Realizations: 2048, MaxDraws: budget})
	if err != nil {
		t.Fatal(err)
	}
	if sched.DrawsSpent >= top.DrawsSpent {
		t.Fatalf("budgeted batch spent %d draws, exhaustive spent %d", sched.DrawsSpent, top.DrawsSpent)
	}
	refined, err := lean.TopKRefine(ctx, sched, top.ExhaustiveDraws)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refined.Winners, top.Winners) {
		t.Fatalf("refined winners diverged:\n%+v\nvs\n%+v", refined.Winners, top.Winners)
	}
	if refined.DrawsSpent >= top.DrawsSpent {
		t.Fatalf("refinement resumed nothing: %d vs %d draws", refined.DrawsSpent, top.DrawsSpent)
	}

	// Validation surfaces.
	if _, err := sv.TopK(ctx, source, nil, 2, opts); err == nil {
		t.Error("empty target list accepted")
	}
	if _, err := sv.TopKRefine(ctx, &TopKResult{}, 10); err == nil {
		t.Error("refine of a foreign result accepted")
	}
}
