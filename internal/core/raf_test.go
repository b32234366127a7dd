package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ltm"
)

func TestSolveEquationSystem(t *testing.T) {
	for _, tc := range []struct {
		alpha, eps, c float64
	}{
		{0.1, 0.01, 100},
		{0.3, 0.05, 1000},
		{0.5, 0.1, 7},
		{0.9, 0.3, 10000},
	} {
		p, err := SolveEquationSystem(tc.alpha, tc.eps, tc.c)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if p.Eps0 <= 0 || p.Eps0 >= 1 || p.Eps1 <= 0 || p.Eps1 >= 1 {
			t.Errorf("%+v: eps out of range: %+v", tc, p)
		}
		if math.Abs(p.Eps0-tc.c*p.Eps1) > 1e-9 {
			t.Errorf("%+v: coupling violated: %+v", tc, p)
		}
		if p.Beta <= 0 || p.Beta > tc.alpha {
			t.Errorf("%+v: beta=%v outside (0, alpha]", tc, p.Beta)
		}
		// Eq. 13 must hold with LHS ≥ alpha − eps (up to noise).
		v, _, ok := lhs(tc.alpha, tc.c, p.Eps1)
		if !ok {
			t.Errorf("%+v: solved point infeasible", tc)
		}
		if v < tc.alpha-tc.eps-1e-6 {
			t.Errorf("%+v: LHS %v < target %v", tc, v, tc.alpha-tc.eps)
		}
	}
}

func TestSolveEquationSystemValidation(t *testing.T) {
	cases := []struct{ alpha, eps, c float64 }{
		{0, 0.01, 10},
		{1.2, 0.01, 10},
		{0.1, 0, 10},
		{0.1, 0.1, 10}, // eps >= alpha
		{0.1, 0.01, 0.5},
	}
	for _, tc := range cases {
		if _, err := SolveEquationSystem(tc.alpha, tc.eps, tc.c); !errors.Is(err, ErrBadConfig) {
			t.Errorf("SolveEquationSystem(%v,%v,%v): err = %v, want ErrBadConfig", tc.alpha, tc.eps, tc.c, err)
		}
	}
}

func TestEstimatePmaxLine(t *testing.T) {
	// Line 0-1-2-3: p_max = 1/2 exactly (see realization tests).
	g := line(4)
	in := mustInstance(t, g, 0, 3)
	res, err := NewSession(in, 7, 0).EstimatePmax(context.Background(), 0.05, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimate-0.5) > 0.05 {
		t.Errorf("p*max = %v, want ~0.5", res.Estimate)
	}
	if res.Draws <= 0 {
		t.Error("no draws recorded")
	}
}

func TestEstimatePmaxUnreachable(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(3, 4)
	g := b.Build()
	in := mustInstance(t, g, 0, 4)
	_, err := NewSession(in, 7, 0).EstimatePmax(context.Background(), 0.1, 100, 2000)
	if !errors.Is(err, ErrTargetUnreachable) {
		t.Errorf("err = %v, want ErrTargetUnreachable", err)
	}
}

func TestFrameworkLine(t *testing.T) {
	// Line 0..3: the only type-1 path is [3 2], so the framework must
	// invite exactly {2,3}.
	g := line(4)
	in := mustInstance(t, g, 0, 3)
	invited, pool, sol, err := NewSession(in, 5, 2).Framework(context.Background(), 0.9, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if got := invited.Members(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("invited = %v, want [2 3]", got)
	}
	if pool.NumType1() == 0 || sol.Covered < int(0.9*float64(pool.NumType1())) {
		t.Errorf("coverage %d of %d type-1", sol.Covered, pool.NumType1())
	}
}

func TestFrameworkValidation(t *testing.T) {
	g := line(4)
	in := mustInstance(t, g, 0, 3)
	sess := NewSession(in, 1, 1)
	if _, _, _, err := sess.Framework(context.Background(), 0, 100); !errors.Is(err, ErrBadConfig) {
		t.Errorf("beta=0: err = %v", err)
	}
	if _, _, _, err := sess.Framework(context.Background(), 1.1, 100); !errors.Is(err, ErrBadConfig) {
		t.Errorf("beta>1: err = %v", err)
	}
}

func TestFrameworkUnreachable(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(3, 4)
	g := b.Build()
	in := mustInstance(t, g, 0, 4)
	if _, _, _, err := NewSession(in, 1, 1).Framework(context.Background(), 0.5, 500); !errors.Is(err, ErrTargetUnreachable) {
		t.Errorf("err = %v, want ErrTargetUnreachable", err)
	}
}

// oneShotRAF is a one-shot RAF run: a fresh session under cfg's seed and
// worker count, as the public Problem.Solve runs it.
func oneShotRAF(ctx context.Context, in *ltm.Instance, cfg Config) (*Result, error) {
	return NewSession(in, cfg.Seed, cfg.Workers).RAF(ctx, cfg)
}

func TestRAFConfigValidation(t *testing.T) {
	g := line(4)
	in := mustInstance(t, g, 0, 3)
	ctx := context.Background()
	bad := []Config{
		{Alpha: 0, Eps: 0.01, N: 100},
		{Alpha: 0.5, Eps: 0, N: 100},
		{Alpha: 0.5, Eps: 0.6, N: 100},
		{Alpha: 0.5, Eps: 0.1, N: 2},
		{Alpha: 0.5, Eps: 0.1, N: 100, OverrideL: -1},
	}
	for i, cfg := range bad {
		if _, err := oneShotRAF(ctx, in, cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

func TestRAFAlphaOneReturnsVmax(t *testing.T) {
	// (0, 17) is not adjacent here; an adjacent pair fails mustInstance.
	in := mustInstance(t, randomConnected(1, 18, 22), 0, 17)
	res, err := oneShotRAF(context.Background(), in, Config{Alpha: 1, Eps: 0.5, N: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := Vmax(in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Invited.ContainsAll(vm) || !vm.ContainsAll(res.Invited) {
		t.Errorf("alpha=1 result %v != V_max %v", res.Invited.Members(), vm.Members())
	}
	if res.VmaxSize != vm.Len() {
		t.Errorf("VmaxSize = %d, want %d", res.VmaxSize, vm.Len())
	}
}

// TestRAFEndToEndLine: on the 4-line, RAF must return {2,3} and report a
// sensible diagnostic trail.
func TestRAFEndToEndLine(t *testing.T) {
	g := line(4)
	in := mustInstance(t, g, 0, 3)
	cfg := Config{
		Alpha: 0.5, Eps: 0.1, N: 50,
		Seed: 3, Workers: 2,
		MaxRealizations: 50000, MaxPmaxDraws: 200000,
	}
	res, err := oneShotRAF(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Invited.Members(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("invited = %v, want [2 3]", got)
	}
	if math.Abs(res.PStar-0.5) > 0.1 {
		t.Errorf("PStar = %v, want ~0.5", res.PStar)
	}
	if res.LTheory <= 0 || res.LUsed <= 0 || res.LUsed > 50000 {
		t.Errorf("pool sizing: theory=%v used=%d", res.LTheory, res.LUsed)
	}
	if res.Covered < res.Demand {
		t.Errorf("covered %d < demand %d", res.Covered, res.Demand)
	}
	if res.VmaxSize != 2 {
		t.Errorf("VmaxSize = %d, want 2", res.VmaxSize)
	}
}

// TestRAFMeetsGuarantee: on random small graphs, f(I_RAF) measured by an
// independent estimator must reach (alpha − eps)·p_max.
func TestRAFMeetsGuarantee(t *testing.T) {
	ctx := context.Background()
	checked := 0
	for seed := int64(1); seed <= 12 && checked < 4; seed++ {
		g := randomConnected(seed*13, 24, 30)
		s, tt := graph.Node(0), graph.Node(23)
		if g.HasEdge(s, tt) {
			continue
		}
		in := mustInstance(t, g, s, tt)
		// Measure p_max independently.
		all := graph.NewNodeSet(g.NumNodes())
		all.Fill()
		pmax, err := engine.New(in).EstimateF(ctx, all, 200000, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		if pmax < 0.02 {
			continue // uninteresting pair, mirrors the paper's filter
		}
		checked++
		alpha, eps := 0.3, 0.05
		res, err := oneShotRAF(ctx, in, Config{
			Alpha: alpha, Eps: eps, N: 50, Seed: seed,
			Workers: 4, MaxRealizations: 30000, MaxPmaxDraws: 500000,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fRAF, err := engine.New(in).EstimateF(ctx, res.Invited, 200000, 4, seed+999)
		if err != nil {
			t.Fatal(err)
		}
		// Allow Monte-Carlo slack on top of the guarantee.
		if fRAF < (alpha-eps)*pmax-0.02 {
			t.Errorf("seed %d: f(I_RAF)=%v < (α−ε)p_max=%v (pmax=%v, |I|=%d)",
				seed, fRAF, (alpha-eps)*pmax, pmax, res.Invited.Len())
		}
		// The invitation set must always contain the target.
		if !res.Invited.Contains(tt) {
			t.Errorf("seed %d: target not invited", seed)
		}
		// And be a subset of V_max.
		vm, err := Vmax(in)
		if err != nil {
			t.Fatal(err)
		}
		if !vm.ContainsAll(res.Invited) {
			t.Errorf("seed %d: invited set escapes V_max", seed)
		}
	}
	if checked == 0 {
		t.Fatal("no usable random pair")
	}
}

// TestRAFOverrideL pins the practical regime: the pool size must equal the
// override.
func TestRAFOverrideL(t *testing.T) {
	g := line(5)
	in := mustInstance(t, g, 0, 4)
	res, err := oneShotRAF(context.Background(), in, Config{
		Alpha: 0.4, Eps: 0.1, N: 50, Seed: 2, OverrideL: 7777, MaxPmaxDraws: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LUsed != 7777 {
		t.Errorf("LUsed = %d, want 7777", res.LUsed)
	}
}

// TestRAFDeterministic: identical configs yield identical invitation sets.
func TestRAFDeterministic(t *testing.T) {
	in := mustInstance(t, randomConnected(101, 20, 24), 0, 19)
	cfg := Config{Alpha: 0.3, Eps: 0.05, N: 50, Seed: 77, Workers: 3,
		MaxRealizations: 20000, MaxPmaxDraws: 300000}
	ctx := context.Background()
	r1, err := oneShotRAF(ctx, in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := oneShotRAF(ctx, in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := r1.Invited.Members(), r2.Invited.Members()
	if len(m1) != len(m2) {
		t.Fatalf("sizes differ: %d vs %d", len(m1), len(m2))
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatal("invitation sets differ across identical runs")
		}
	}
}

func TestRAFUnreachableTarget(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(4, 5)
	g := b.Build()
	in := mustInstance(t, g, 0, 5)
	_, err := oneShotRAF(context.Background(), in, Config{
		Alpha: 0.5, Eps: 0.1, N: 50, MaxPmaxDraws: 1000,
	})
	if !errors.Is(err, ErrTargetUnreachable) {
		t.Errorf("err = %v, want ErrTargetUnreachable", err)
	}
	_, err = oneShotRAF(context.Background(), in, Config{Alpha: 1, Eps: 0.5, N: 50})
	if !errors.Is(err, ErrTargetUnreachable) {
		t.Errorf("alpha=1 err = %v, want ErrTargetUnreachable", err)
	}
}

func TestRAFCancellation(t *testing.T) {
	g := line(6)
	in := mustInstance(t, g, 0, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := oneShotRAF(ctx, in, Config{Alpha: 0.5, Eps: 0.1, N: 50})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestRAFDisableVmaxReduction exercises the ablation path: with the
// reduction disabled the union-bound dimension is n, so the theoretical
// pool is larger, but results remain valid.
func TestRAFDisableVmaxReduction(t *testing.T) {
	g := line(4)
	in := mustInstance(t, g, 0, 3)
	ctx := context.Background()
	base := Config{Alpha: 0.5, Eps: 0.1, N: 50, Seed: 4,
		MaxRealizations: 20000, MaxPmaxDraws: 100000}
	with, err := oneShotRAF(ctx, in, base)
	if err != nil {
		t.Fatal(err)
	}
	abl := base
	abl.DisableVmaxReduction = true
	without, err := oneShotRAF(ctx, in, abl)
	if err != nil {
		t.Fatal(err)
	}
	if without.VmaxSize != 0 {
		t.Errorf("ablation should not compute V_max, got size %d", without.VmaxSize)
	}
	if without.LTheory <= with.LTheory {
		t.Errorf("n-dimension l* (%v) should exceed |V_max|-dimension l* (%v)",
			without.LTheory, with.LTheory)
	}
	if got := without.Invited.Members(); len(got) != 2 {
		t.Errorf("ablation invited = %v", got)
	}
}
