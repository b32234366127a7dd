package graph

// Subgraph returns the induced subgraph on keep (nodes where keep[v] is
// true), along with the mapping from new node ids to original ids.
// Nodes are renumbered densely in ascending original order.
func (g *Graph) Subgraph(keep []bool) (*Graph, []Node) {
	if len(keep) != g.NumNodes() {
		panic("graph: Subgraph mask length mismatch")
	}
	remap := make([]Node, g.NumNodes())
	orig := make([]Node, 0)
	var next Node
	for v := range keep {
		if keep[v] {
			remap[v] = next
			orig = append(orig, Node(v))
			next++
		} else {
			remap[v] = -1
		}
	}
	b := NewBuilder(int(next))
	for _, v := range orig {
		for _, u := range g.Neighbors(v) {
			if u > v && keep[u] {
				b.AddEdge(remap[v], remap[u])
			}
		}
	}
	return b.Build(), orig
}
