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
// Hopcroft–Tarjan DFS over g's CSR rows, rooted at z, finds them without
// building G′ or the tree: it labels every reached vertex with the block
// holding its tree edge to its parent, and the blocks on the z–t path are
// exactly the labels along the DFS tree path from t up to z. s and N_s
// share z's discovery time 0, so the DFS never enters them and an edge
// into N_s is an ordinary back edge to z. The cost is O(V+E) with a few
// O(n) scratch slices.
func Vmax(in *ltm.Instance) (*graph.NodeSet, error) {
	g := in.Graph()
	n := g.NumNodes()
	s, t := in.S(), in.T()
	if t == s || in.InitialFriendSet().Contains(t) {
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
	// z is the DFS root (low[z] is already 0). Past a boundary node the
	// DFS never meets s: N_s is s's whole row.
	disc[z], disc[s] = 0, 0
	friends := in.InitialFriends()
	for _, u := range friends {
		disc[u] = 0
	}
	timer, blocks := int32(1), int32(0)
	type frame struct {
		v   graph.Node
		idx int32 // next neighbor index to process
	}
	frames := make([]frame, 0, n)
	stack := make([]graph.Node, 0, n) // reached vertices whose block is still open

	// z's children are the boundary nodes, met through the rows of N_s.
	for _, u := range friends {
		for _, root := range g.Neighbors(u) {
			if disc[root] >= 0 {
				continue
			}
			disc[root], low[root], parent[root] = timer, timer, z
			timer++
			frames = append(frames, frame{v: root})
			stack = append(stack, root)
			for len(frames) > 0 {
				top := len(frames) - 1
				v := frames[top].v
				lowV := low[v]
				ns := g.Neighbors(v)
				i := int(frames[top].idx)
				for ; i < len(ns); i++ {
					d := disc[ns[i]]
					if d < 0 {
						break
					}
					// A back edge, or the tree edge to v's parent (for a
					// child of z, any edge into N_s): low ≤ disc[parent]
					// leaves the block test below unchanged, so the parent
					// needs no check.
					if d < lowV {
						lowV = d
					}
				}
				low[v] = lowV
				if i < len(ns) {
					w := ns[i]
					frames[top].idx = int32(i + 1)
					disc[w], low[w], parent[w] = timer, timer, v
					timer++
					frames = append(frames, frame{v: w})
					stack = append(stack, w)
					continue
				}
				// v is finished: fold its low-link into the parent and
				// close the block above v if v's subtree cannot climb past
				// the parent. The child subtrees of z always close one.
				frames = frames[:top]
				p := parent[v]
				if lowV < low[p] {
					low[p] = lowV
				}
				if lowV >= disc[p] {
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
	// Reached G′ vertices are exactly those with discovery time > 0.
	for v := graph.Node(0); v < z; v++ {
		if disc[v] > 0 && onPath[block[v]] == 1 {
			out.Add(v)
		}
	}
	return out, nil
}
