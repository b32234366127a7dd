// Package graph provides the compact undirected-graph substrate used by the
// active-friending library: a CSR (compressed sparse row) adjacency
// representation, an incremental builder, traversals, connected
// components, and successive disjoint shortest-path extraction.
//
// Graphs are simple (no self-loops, no parallel edges) and undirected;
// influence weights are directional but derived from the structure by the
// weights package, so the graph itself stores only adjacency.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Node identifies a vertex. Nodes are dense integers in [0, NumNodes).
type Node = int32

// ErrNodeOutOfRange reports a node identifier outside [0, NumNodes).
var ErrNodeOutOfRange = errors.New("graph: node out of range")

// Graph is an immutable undirected simple graph in CSR form.
//
// The zero value is an empty graph with no nodes. Construct non-trivial
// graphs with a Builder or FromEdges.
type Graph struct {
	// offsets has length n+1; the neighbors of node v are
	// adj[offsets[v]:offsets[v+1]], sorted ascending.
	offsets []int32
	adj     []Node
	m       int64 // number of undirected edges
}

// NumNodes returns the number of vertices.
func (g *Graph) NumNodes() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int64 { return g.m }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v Node) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v Node) []Node {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Graph) HasEdge(u, v Node) bool {
	if u == v {
		return false
	}
	// Search the shorter list.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// ValidNode reports whether v is a valid node identifier for g.
func (g *Graph) ValidNode(v Node) bool {
	return v >= 0 && int(v) < g.NumNodes()
}

// CheckNode returns ErrNodeOutOfRange (wrapped with v) unless v is valid.
func (g *Graph) CheckNode(v Node) error {
	if !g.ValidNode(v) {
		return fmt.Errorf("%w: %d (graph has %d nodes)", ErrNodeOutOfRange, v, g.NumNodes())
	}
	return nil
}

// AvgDegree returns 2m/n, the average degree.
func (g *Graph) AvgDegree() float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(n)
}

// MaxDegree returns the maximum degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(Node(v)); d > max {
			max = d
		}
	}
	return max
}

// Edge is an undirected edge; U < V is not required on input but is
// canonicalized by the builder.
type Edge struct {
	U, V Node
}

// Builder accumulates edges and produces an immutable Graph.
// The zero value is ready to use; call Grow to pre-size.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a builder for a graph with n nodes (0..n-1).
// More nodes may be added implicitly by AddEdge with larger endpoints.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// Grow reserves capacity for m additional edges.
func (b *Builder) Grow(m int) {
	if cap(b.edges)-len(b.edges) < m {
		next := make([]Edge, len(b.edges), len(b.edges)+m)
		copy(next, b.edges)
		b.edges = next
	}
}

// EnsureNode guarantees that v is a valid node in the built graph.
func (b *Builder) EnsureNode(v Node) {
	if int(v) >= b.n {
		b.n = int(v) + 1
	}
}

// AddEdge records the undirected edge (u, v). Self-loops are ignored;
// duplicate edges are de-duplicated at Build time.
func (b *Builder) AddEdge(u, v Node) {
	if u == v || u < 0 || v < 0 {
		return
	}
	b.EnsureNode(u)
	b.EnsureNode(v)
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, Edge{U: u, V: v})
}

// NumPendingEdges returns the number of (possibly duplicate) edges recorded.
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// Build produces the immutable CSR graph and leaves the builder reusable
// (its recorded edges are retained).
func (b *Builder) Build() *Graph {
	// Sort and deduplicate.
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].U != b.edges[j].U {
			return b.edges[i].U < b.edges[j].U
		}
		return b.edges[i].V < b.edges[j].V
	})
	uniq := b.edges[:0]
	var last Edge = Edge{U: -1, V: -1}
	for _, e := range b.edges {
		if e != last {
			uniq = append(uniq, e)
			last = e
		}
	}
	b.edges = uniq

	n := b.n
	deg := make([]int32, n+1)
	for _, e := range b.edges {
		deg[e.U+1]++
		deg[e.V+1]++
	}
	offsets := make([]int32, n+1)
	for i := 1; i <= n; i++ {
		offsets[i] = offsets[i-1] + deg[i]
	}
	adj := make([]Node, offsets[n])
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for _, e := range b.edges {
		adj[cursor[e.U]] = e.V
		cursor[e.U]++
		adj[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	g := &Graph{offsets: offsets, adj: adj, m: int64(len(b.edges))}
	// Each adjacency list is already sorted because edges were processed in
	// (U,V) order for the U side; the V side needs sorting.
	for v := 0; v < n; v++ {
		ns := adj[offsets[v]:offsets[v+1]]
		if !sort.SliceIsSorted(ns, func(i, j int) bool { return ns[i] < ns[j] }) {
			sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		}
	}
	return g
}

// FromEdges builds a graph with n nodes from the given edge list.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	b.Grow(len(edges))
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// Edges returns all undirected edges with U < V, in sorted order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for v := 0; v < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(Node(v)) {
			if Node(v) < u {
				out = append(out, Edge{U: Node(v), V: u})
			}
		}
	}
	return out
}
