package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ltm"
	"repro/internal/realization"
	"repro/internal/rng"
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
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.Node(i), graph.Node(r.Intn(i)))
	}
	for i := 0; i < extra; i++ {
		b.AddEdge(graph.Node(r.Intn(n)), graph.Node(r.Intn(n)))
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

func TestVmaxLine(t *testing.T) {
	// 0-1-2-3-4: s=0, t=4. N_s={1}; V_max = {2,3,4}.
	g := line(5)
	in := mustInstance(t, g, 0, 4)
	vm, err := Vmax(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.Node{2, 3, 4}
	got := vm.Members()
	if len(got) != len(want) {
		t.Fatalf("Vmax = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vmax = %v, want %v", got, want)
		}
	}
}

func TestVmaxExcludesPendant(t *testing.T) {
	// 0-1-2-3(t) plus pendant 4 hanging off 2: 4 is reachable from both
	// sides but on no simple path, so 4 ∉ V_max.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(2, 4)
	g := b.Build()
	in := mustInstance(t, g, 0, 3)
	vm, err := Vmax(in)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Contains(4) {
		t.Error("pendant 4 wrongly in V_max")
	}
	if !vm.Contains(2) || !vm.Contains(3) {
		t.Errorf("V_max = %v, want {2,3}", vm.Members())
	}
	// The approximation keeps the pendant: documents the difference.
	approx := VmaxApprox(in)
	if !approx.Contains(4) {
		t.Error("VmaxApprox should over-count the pendant")
	}
	if !approx.ContainsAll(vm) {
		t.Error("VmaxApprox must be a superset of Vmax")
	}
}

func TestVmaxDisconnected(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(3, 4)
	g := b.Build()
	in := mustInstance(t, g, 0, 4)
	vm, err := Vmax(in)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Len() != 0 {
		t.Errorf("V_max = %v, want empty (unreachable)", vm.Members())
	}
	if VmaxApprox(in).Len() != 0 {
		t.Error("VmaxApprox should also be empty")
	}
}

func TestVmaxTargetAdjacentToNs(t *testing.T) {
	// s=0 - 1 - t=2: t(g) can be just {t}; V_max = {2}.
	g := line(3)
	in := mustInstance(t, g, 0, 2)
	vm, err := Vmax(in)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Len() != 1 || !vm.Contains(2) {
		t.Errorf("V_max = %v, want {2}", vm.Members())
	}
}

func TestVmaxMultiplePaths(t *testing.T) {
	// Diamond: s=0-1, 1-2, 1-3, 2-4, 3-4, t=4. V_max = {2,3,4}.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 4)
	b.AddEdge(3, 4)
	g := b.Build()
	in := mustInstance(t, g, 0, 4)
	vm, err := Vmax(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []graph.Node{2, 3, 4} {
		if !vm.Contains(v) {
			t.Errorf("V_max missing %d", v)
		}
	}
	if vm.Contains(0) || vm.Contains(1) {
		t.Errorf("V_max contains excluded nodes: %v", vm.Members())
	}
}

// TestVmaxContainsAllSampledPaths: every sampled type-1 t(g) must be a
// subset of V_max (that is Lemma 7's forward direction).
func TestVmaxContainsAllSampledPaths(t *testing.T) {
	f := func(seed int64) bool {
		g := randomConnected(seed, 20, 25)
		s, tt := graph.Node(0), graph.Node(19)
		if g.HasEdge(s, tt) {
			return true
		}
		in, err := ltm.NewInstance(g, weights.NewDegree(g), s, tt)
		if err != nil {
			return true
		}
		vm, err := Vmax(in)
		if err != nil {
			return false
		}
		approx := VmaxApprox(in)
		if !approx.ContainsAll(vm) {
			return false
		}
		sp := realization.NewSampler(in)
		st := rng.NewStream(seed)
		for i := 0; i < 400; i++ {
			tg := sp.SampleTG(&st)
			if tg.Outcome != realization.Type1 {
				continue
			}
			for _, v := range tg.Path {
				if !vm.Contains(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestVmaxAchievesPmax validates f(V_max) = p_max (Lemma 7): inviting
// V_max achieves the same acceptance probability as inviting everyone.
func TestVmaxAchievesPmax(t *testing.T) {
	for _, seed := range []int64{41, 42, 43} {
		g := randomConnected(seed, 16, 20)
		s, tt := graph.Node(0), graph.Node(15)
		if g.HasEdge(s, tt) {
			continue
		}
		in := mustInstance(t, g, s, tt)
		vm, err := Vmax(in)
		if err != nil {
			t.Fatal(err)
		}
		all := graph.NewNodeSet(g.NumNodes())
		all.Fill()
		ctx := context.Background()
		const trials = 120000
		fAll, err := engine.New(in).EstimateF(ctx, all, trials, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		fVm, err := engine.New(in).EstimateF(ctx, vm, trials, 4, seed+100)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fAll-fVm) > 0.01 {
			t.Errorf("seed %d: f(V) = %v but f(V_max) = %v", seed, fAll, fVm)
		}
	}
}

// TestVmaxMinimality validates the uniqueness half of Lemma 7: removing
// any node from V_max strictly reduces the acceptance probability, i.e.
// some sampled realization is no longer covered.
func TestVmaxMinimality(t *testing.T) {
	g := randomConnected(77, 14, 12)
	s, tt := graph.Node(0), graph.Node(13)
	if g.HasEdge(s, tt) {
		t.Skip("adjacent pair")
	}
	in := mustInstance(t, g, s, tt)
	vm, err := Vmax(in)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Len() == 0 {
		t.Skip("empty V_max")
	}
	// Sample many paths; every V_max member must appear in some path
	// (witnessing that its removal loses coverage).
	appeared := graph.NewNodeSet(g.NumNodes())
	sp := realization.NewSampler(in)
	st := rng.NewStream(9)
	for i := 0; i < 300000; i++ {
		tg := sp.SampleTG(&st)
		if tg.Outcome != realization.Type1 {
			continue
		}
		for _, v := range tg.Path {
			appeared.Add(v)
		}
	}
	for _, v := range vm.Members() {
		if !appeared.Contains(v) {
			t.Errorf("V_max member %d never appeared in 300k sampled paths", v)
		}
	}
	// And no node outside V_max ∪ {s} ∪ N_s ever appears.
	if !vm.ContainsAll(appeared) {
		t.Error("sampled paths escaped V_max")
	}
}

// vmaxByEnumeration is the brute-force oracle for Vmax: it enumerates
// every simple z–t path in G′ + z, where z is a virtual source adjacent
// to each boundary node, and returns the union of their vertices.
// Exponential; for graphs of a few nodes only.
func vmaxByEnumeration(in *ltm.Instance) *graph.NodeSet {
	g := in.Graph()
	n := g.NumNodes()
	s, tt := in.S(), in.T()
	nsSet := in.InitialFriendSet()
	blocked := func(v graph.Node) bool { return v == s || nsSet.Contains(v) }
	out := graph.NewNodeSet(n)
	visited := make([]bool, n)
	var path []graph.Node
	var walk func(v graph.Node)
	walk = func(v graph.Node) {
		visited[v] = true
		path = append(path, v)
		if v == tt {
			for _, p := range path {
				out.Add(p)
			}
		} else {
			for _, u := range g.Neighbors(v) {
				if !visited[u] && !blocked(u) {
					walk(u)
				}
			}
		}
		path = path[:len(path)-1]
		visited[v] = false
	}
	// z's neighbors: the boundary nodes. The path z, b, … visits z once,
	// so each z–t path is a simple G′ path from one boundary node to t.
	for v := graph.Node(0); v < graph.Node(n); v++ {
		if blocked(v) {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if nsSet.Contains(u) {
				walk(v)
				break
			}
		}
	}
	return out
}

// checkVmaxExact requires Vmax to equal both want and the enumeration
// oracle on the instance (s, tt) of g.
func checkVmaxExact(t *testing.T, g *graph.Graph, s, tt graph.Node, want ...graph.Node) {
	t.Helper()
	in := mustInstance(t, g, s, tt)
	vm, err := Vmax(in)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(vm.Members(), want) {
		t.Errorf("Vmax = %v, want %v", vm.Members(), want)
	}
	if oracle := vmaxByEnumeration(in); !slices.Equal(vm.Members(), oracle.Members()) {
		t.Errorf("Vmax = %v, enumeration = %v", vm.Members(), oracle.Members())
	}
}

func buildGraph(n int, edges ...[2]graph.Node) *graph.Graph {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// TestVmaxAgainstEnumeration compares Vmax with the simple-path oracle on
// random graphs of at most 10 nodes, every valid (s, t) pair.
func TestVmaxAgainstEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(8) // keep tiny: path enumeration is exponential
		b := graph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			b.AddEdge(graph.Node(r.Intn(n)), graph.Node(r.Intn(n)))
		}
		g := b.Build()
		w := weights.NewDegree(g)
		for s := graph.Node(0); s < graph.Node(n); s++ {
			for tt := graph.Node(0); tt < graph.Node(n); tt++ {
				in, err := ltm.NewInstance(g, w, s, tt)
				if err != nil {
					continue // s = t or adjacent
				}
				vm, err := Vmax(in)
				if err != nil {
					return false
				}
				if !slices.Equal(vm.Members(), vmaxByEnumeration(in).Members()) {
					t.Logf("seed %d (s,t)=(%d,%d): Vmax %v, enumeration %v",
						seed, s, tt, vm.Members(), vmaxByEnumeration(in).Members())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVmaxTargetIsBoundary(t *testing.T) {
	// s=0, N_s={1}; t=2 hangs off N_s directly and also via 1-3-4-2. The
	// cycle 2-5-6 off t is on no simple z–t path.
	g := buildGraph(7,
		[2]graph.Node{0, 1}, [2]graph.Node{1, 2}, [2]graph.Node{1, 3},
		[2]graph.Node{3, 4}, [2]graph.Node{4, 2},
		[2]graph.Node{2, 5}, [2]graph.Node{5, 6}, [2]graph.Node{6, 2})
	checkVmaxExact(t, g, 0, 2, 2, 3, 4)
}

func TestVmaxBoundaryReachedThroughNonRootParent(t *testing.T) {
	// s=0, N_s={1}, boundary {2,4}. The DFS enters 2 from z and reaches
	// the boundary node 4 through 3; only 4's back edge to z puts 3 and 4
	// in the block of z–2, on the path to t=5 (z-4-3-2-5).
	g := buildGraph(6,
		[2]graph.Node{0, 1}, [2]graph.Node{1, 2}, [2]graph.Node{1, 4},
		[2]graph.Node{2, 3}, [2]graph.Node{3, 4}, [2]graph.Node{2, 5})
	checkVmaxExact(t, g, 0, 5, 2, 3, 4, 5)
}

func TestVmaxTwoBoundaryComponents(t *testing.T) {
	// s=0, N_s={1,2}: 1 leads to t=4 via 3; 2 leads into the component
	// {5,6}, which never reaches t.
	g := buildGraph(7,
		[2]graph.Node{0, 1}, [2]graph.Node{0, 2},
		[2]graph.Node{1, 3}, [2]graph.Node{3, 4},
		[2]graph.Node{2, 5}, [2]graph.Node{5, 6})
	checkVmaxExact(t, g, 0, 4, 3, 4)
}

func TestVmaxBowtieCutVertex(t *testing.T) {
	// s=0, N_s={1}, boundary {2}. Triangles {2,3,4} and {4,5,6} share the
	// cut vertex 4 on the way to t=6; a third triangle {4,7,8} at the same
	// cut vertex is off the path.
	g := buildGraph(9,
		[2]graph.Node{0, 1}, [2]graph.Node{1, 2},
		[2]graph.Node{2, 3}, [2]graph.Node{3, 4}, [2]graph.Node{4, 2},
		[2]graph.Node{4, 5}, [2]graph.Node{5, 6}, [2]graph.Node{6, 4},
		[2]graph.Node{4, 7}, [2]graph.Node{7, 8}, [2]graph.Node{8, 4})
	checkVmaxExact(t, g, 0, 6, 2, 3, 4, 5, 6)
}

func TestVmaxPendantBranch(t *testing.T) {
	// s=0, N_s={1}; path 1-2-3 to t=3 with a branch 2-4 ending in the
	// cycle 4-5-6: reachable from both sides, on no simple path.
	g := buildGraph(7,
		[2]graph.Node{0, 1}, [2]graph.Node{1, 2}, [2]graph.Node{2, 3},
		[2]graph.Node{2, 4}, [2]graph.Node{4, 5}, [2]graph.Node{5, 6},
		[2]graph.Node{6, 4})
	checkVmaxExact(t, g, 0, 3, 2, 3)
}

func TestVmaxNoBoundary(t *testing.T) {
	// s=0, N_s={1,2} linked only to s and each other: no G′ node borders
	// N_s, so V_max is empty although t=3 has neighbors.
	g := buildGraph(5,
		[2]graph.Node{0, 1}, [2]graph.Node{0, 2}, [2]graph.Node{1, 2},
		[2]graph.Node{3, 4})
	checkVmaxExact(t, g, 0, 3)
}

// TestVmaxAllocs pins Vmax to a handful of O(n) scratch allocations, so
// a rebuild of G′ (or any per-edge allocation) cannot creep back in.
func TestVmaxAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	g := randomConnected(5, 400, 800)
	in := mustInstance(t, g, 0, 399)
	if vm, err := Vmax(in); err != nil || vm.Len() == 0 {
		t.Fatalf("Vmax = %v, %v: want a non-empty set", vm, err)
	}
	const maxAllocs = 8
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := Vmax(in); err != nil {
			t.Fatal(err)
		}
	}); allocs > maxAllocs {
		t.Errorf("Vmax allocates %v per call, want ≤ %d", allocs, maxAllocs)
	}
}
