package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/gen"
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

// vmaxReference is the masked DFS Vmax used before s and N_s shared z's
// discovery time: it tests each arc against N_s and switches on the
// result. Kept as the differential reference for Vmax.
func vmaxReference(in *ltm.Instance) (*graph.NodeSet, error) {
	g := in.Graph()
	n := g.NumNodes()
	s, t := in.S(), in.T()
	nsSet := in.InitialFriendSet()
	if t == s || nsSet.Contains(t) {
		return nil, fmt.Errorf("core: target %d unexpectedly excluded from G'", t)
	}

	// Per-vertex scratch, with z stored at index n: discovery time (-1 =
	// unreached), low-link, DFS parent and block label.
	z := graph.Node(n)
	scratch := make([]int32, 4*(n+1))
	disc, low := scratch[:n+1], scratch[n+1:2*(n+1)]
	parent, block := scratch[2*(n+1):3*(n+1)], scratch[3*(n+1):]
	for i := range disc {
		disc[i] = -1
	}
	disc[z] = 0 // z is the DFS root; low[z] is already 0
	timer, blocks := int32(1), int32(0)
	type frame struct {
		v   graph.Node
		idx int32 // next neighbor index to process
	}
	frames := make([]frame, 0, n)
	stack := make([]graph.Node, 0, n) // reached vertices whose block is still open

	// z's children are the boundary nodes, met through the rows of N_s.
	// Past a boundary node the DFS never meets s: N_s is s's whole row.
	for _, u := range in.InitialFriends() {
		for _, root := range g.Neighbors(u) {
			if root == s || nsSet.Contains(root) || disc[root] >= 0 {
				continue
			}
			disc[root], low[root], parent[root] = timer, timer, z
			timer++
			frames = append(frames, frame{v: root})
			stack = append(stack, root)
			for len(frames) > 0 {
				f := &frames[len(frames)-1]
				v := f.v
				if ns := g.Neighbors(v); int(f.idx) < len(ns) {
					w := ns[f.idx]
					f.idx++
					switch {
					case nsSet.Contains(w):
						// An edge to z, whose discovery time is 0. For a
						// child of z this is its tree edge, and low = 0
						// still closes its block at z.
						low[v] = 0
					case disc[w] < 0:
						disc[w], low[w], parent[w] = timer, timer, v
						timer++
						frames = append(frames, frame{v: w})
						stack = append(stack, w)
					case w != parent[v] && disc[w] < low[v]:
						low[v] = disc[w]
					}
					continue
				}
				// v is finished: fold its low-link into the parent and
				// close the block above v if v's subtree cannot climb past
				// the parent. The child subtrees of z always close one.
				frames = frames[:len(frames)-1]
				p := parent[v]
				if low[v] < low[p] {
					low[p] = low[v]
				}
				if low[v] >= disc[p] {
					for {
						w := stack[len(stack)-1]
						stack = stack[:len(stack)-1]
						block[w] = blocks
						if w == v {
							break
						}
					}
					blocks++
				}
			}
		}
	}

	out := graph.NewNodeSet(n)
	if disc[t] < 0 {
		// t unreachable from the boundary (or no boundary at all): p_max
		// = 0 and V_max is empty.
		return out, nil
	}
	// low is dead after the DFS; reuse it to flag the blocks on the z–t
	// path.
	onPath := low[:n]
	clear(onPath)
	for v := t; v != z; v = parent[v] {
		onPath[block[v]] = 1
	}
	for v := graph.Node(0); v < z; v++ {
		if disc[v] >= 0 && onPath[block[v]] == 1 {
			out.Add(v)
		}
	}
	return out, nil
}

// VmaxApprox returns the reachability-intersection superset of V_max:
// nodes of G′ that are reachable from the boundary and can reach t.
// It over-counts pendant branches; the tests use it to document that gap.
func VmaxApprox(in *ltm.Instance) *graph.NodeSet {
	g := in.Graph()
	n := g.NumNodes()
	s, t := in.S(), in.T()
	nsSet := in.InitialFriendSet()
	blocked := func(v graph.Node) bool {
		return v == s || nsSet.Contains(v)
	}
	// Boundary: G′ nodes adjacent to N_s.
	var boundary []graph.Node
	for v := 0; v < n; v++ {
		if blocked(graph.Node(v)) {
			continue
		}
		for _, u := range g.Neighbors(graph.Node(v)) {
			if nsSet.Contains(u) {
				boundary = append(boundary, graph.Node(v))
				break
			}
		}
	}
	fromBoundary := g.Reachable(boundary, blocked)
	toT := g.Reachable([]graph.Node{t}, blocked)
	out := graph.NewNodeSet(n)
	if !fromBoundary[t] {
		return out
	}
	for v := 0; v < n; v++ {
		if fromBoundary[v] && toT[v] && !blocked(graph.Node(v)) {
			out.Add(graph.Node(v))
		}
	}
	return out
}

// checkVmaxMatchesReference requires Vmax to return the reference's set
// and error on in, and returns Vmax's set (empty on a matching error).
func checkVmaxMatchesReference(t *testing.T, in *ltm.Instance) *graph.NodeSet {
	t.Helper()
	got, err := Vmax(in)
	want, wantErr := vmaxReference(in)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("(s,t)=(%d,%d): Vmax error %v, reference %v", in.S(), in.T(), err, wantErr)
	}
	if err != nil {
		return graph.NewNodeSet(in.Graph().NumNodes())
	}
	if !slices.Equal(got.Members(), want.Members()) {
		t.Fatalf("(s,t)=(%d,%d): Vmax %v, reference %v", in.S(), in.T(), got.Members(), want.Members())
	}
	return got
}

// TestVmaxMatchesReferenceWiki compares Vmax with the reference on random
// pairs of the full-size Wiki analog, the graph the serving benchmark uses.
func TestVmaxMatchesReferenceWiki(t *testing.T) {
	ds, err := gen.DatasetByName("Wiki")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ds.Generate(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := weights.NewDegree(g)
	r := rand.New(rand.NewSource(18))
	n := g.NumNodes()
	pairs, nonEmpty := 0, 0
	for pairs < 64 {
		in, err := ltm.NewInstance(g, w, graph.Node(r.Intn(n)), graph.Node(r.Intn(n)))
		if err != nil {
			continue // s = t or adjacent
		}
		pairs++
		if checkVmaxMatchesReference(t, in).Len() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Error("every sampled pair had an empty V_max")
	}
}

// structuredGraph returns a seeded random graph around s = 0 with the
// shapes the DFS treats specially. Each N_s member borders a random core
// (the boundary nodes) and is a cut vertex with a private component
// behind it; boundary nodes carry pendant paths and cycles; a separate
// component is unreachable from the boundary. It returns the graph and
// the members of N_s.
func structuredGraph(seed int64) (*graph.Graph, []graph.Node) {
	r := rand.New(rand.NewSource(seed))
	k := 1 + r.Intn(4)     // |N_s|
	core := 4 + r.Intn(12) // nodes reachable from the boundary
	private := 2 + r.Intn(4)
	pendant := 1 + r.Intn(4)
	isolated := 2 + r.Intn(3)
	n := 1 + k + core + k*private + pendant*2 + isolated
	b := graph.NewBuilder(n)
	next := graph.Node(1)
	take := func(c int) graph.Node { v := next; next += graph.Node(c); return v }
	ns := take(k)
	coreAt := take(core)
	for i := 0; i < k; i++ {
		b.AddEdge(0, ns+graph.Node(i))
	}
	for i := 1; i < core; i++ {
		b.AddEdge(coreAt+graph.Node(i), coreAt+graph.Node(r.Intn(i)))
	}
	for i := 0; i < core/2; i++ {
		b.AddEdge(coreAt+graph.Node(r.Intn(core)), coreAt+graph.Node(r.Intn(core)))
	}
	var boundary []graph.Node
	for i := 0; i < k; i++ {
		u := ns + graph.Node(i)
		for j := 0; j < 1+r.Intn(3); j++ {
			v := coreAt + graph.Node(r.Intn(core))
			b.AddEdge(u, v)
			boundary = append(boundary, v)
		}
		// The private component: a path with a chord, reached only
		// through u.
		at := take(private)
		b.AddEdge(u, at)
		for j := 1; j < private; j++ {
			b.AddEdge(at+graph.Node(j), at+graph.Node(j-1))
		}
		b.AddEdge(at, at+graph.Node(private-1))
	}
	for i := 0; i < pendant; i++ {
		// A pendant path of two nodes off a boundary node, closed into a
		// cycle half the time.
		at, v := take(2), boundary[r.Intn(len(boundary))]
		b.AddEdge(v, at)
		b.AddEdge(at, at+1)
		if r.Intn(2) == 0 {
			b.AddEdge(at+1, v)
		}
	}
	at := take(isolated)
	for j := 1; j < isolated; j++ {
		b.AddEdge(at+graph.Node(j), at+graph.Node(r.Intn(j)))
	}
	members := make([]graph.Node, k)
	for i := range members {
		members[i] = ns + graph.Node(i)
	}
	return b.Build(), members
}

// TestVmaxMatchesReferenceStructured compares Vmax with the reference on
// every target of seeded structured graphs: targets behind an N_s cut
// vertex, on the boundary, on pendant branches and in the unreachable
// component, for s = 0 and for one random initiator.
func TestVmaxMatchesReferenceStructured(t *testing.T) {
	var boundaryTargets, unreachable, cutVertices int
	for seed := int64(0); seed < 200; seed++ {
		g, ns := structuredGraph(seed)
		w := weights.NewDegree(g)
		n := g.NumNodes()
		for _, s := range []graph.Node{0, graph.Node(rand.New(rand.NewSource(seed)).Intn(n))} {
			for tt := graph.Node(0); tt < graph.Node(n); tt++ {
				in, err := ltm.NewInstance(g, w, s, tt)
				if err != nil {
					continue
				}
				vm := checkVmaxMatchesReference(t, in)
				if s != 0 {
					continue
				}
				for _, u := range ns {
					if g.HasEdge(u, tt) {
						boundaryTargets++
						break
					}
				}
				if vm.Len() == 0 {
					unreachable++
				}
			}
		}
		cutVertices += len(ns)
	}
	if boundaryTargets == 0 || unreachable == 0 || cutVertices == 0 {
		t.Errorf("shapes not exercised: %d boundary targets, %d unreachable targets, %d cut vertices",
			boundaryTargets, unreachable, cutVertices)
	}
}
