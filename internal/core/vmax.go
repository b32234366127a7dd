package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ltm"
)

// Vmax computes the exact V_max of Lemma 7: the unique minimum invitation
// set achieving p_max. A node u belongs to V_max iff some simple path from
// a member of N_s to t passes through u with every path node outside
// {s} ∪ N_s — equivalently, iff u appears in t(g) for some type-1
// realization g.
//
// Plain reachability intersection over-counts (a pendant branch can reach
// both sides yet lie on no simple path), so the computation is exact: on
// G′ = G − ({s} ∪ N_s) plus a virtual source z adjacent to every boundary
// node (a G′ node with a neighbor in N_s), V_max is the vertex set of the
// blocks on the z–t path of the block-cut tree. One iterative
// Hopcroft–Tarjan DFS over g's CSR rows, masked by {s} ∪ N_s and rooted
// at z, finds them without building G′ or the tree: it labels every
// reached vertex with the block holding its tree edge to its parent, and
// the blocks on the z–t path are exactly the labels along the DFS tree
// path from t up to z. The cost is O(V+E) with a few O(n) scratch slices.
func Vmax(in *ltm.Instance) (*graph.NodeSet, error) {
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
// It over-counts pendant branches; it exists for documentation, tests and
// as a cheaper upper bound.
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
