package graph

import "math/bits"

// NodeSet is a fixed-universe bitset over the nodes of a graph. It is the
// representation used for invitation sets and friend sets, where membership
// tests dominate. The zero value is unusable; allocate with NewNodeSet.
type NodeSet struct {
	words []uint64
	n     int
}

// NewNodeSet returns an empty set over a universe of n nodes.
func NewNodeSet(n int) *NodeSet {
	return &NodeSet{words: make([]uint64, (n+63)/64), n: n}
}

// NewNodeSetOf returns a set over n nodes containing the given members.
func NewNodeSetOf(n int, members ...Node) *NodeSet {
	s := NewNodeSet(n)
	for _, v := range members {
		s.Add(v)
	}
	return s
}

// Universe returns the universe size the set was created with.
func (s *NodeSet) Universe() int { return s.n }

// Add inserts v.
func (s *NodeSet) Add(v Node) { s.words[v>>6] |= 1 << (uint(v) & 63) }

// Remove deletes v.
func (s *NodeSet) Remove(v Node) { s.words[v>>6] &^= 1 << (uint(v) & 63) }

// Contains reports membership of v.
func (s *NodeSet) Contains(v Node) bool {
	return s.words[v>>6]&(1<<(uint(v)&63)) != 0
}

// Len returns the number of members.
func (s *NodeSet) Len() int {
	total := 0
	for _, w := range s.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Clear removes all members, keeping the universe.
func (s *NodeSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy.
func (s *NodeSet) Clone() *NodeSet {
	out := &NodeSet{words: make([]uint64, len(s.words)), n: s.n}
	copy(out.words, s.words)
	return out
}

// AddAll inserts every member of other (same universe required).
func (s *NodeSet) AddAll(other *NodeSet) {
	for i, w := range other.words {
		s.words[i] |= w
	}
}

// ContainsAll reports whether every member of other is in s.
func (s *NodeSet) ContainsAll(other *NodeSet) bool {
	for i, w := range other.words {
		if w&^s.words[i] != 0 {
			return false
		}
	}
	return true
}

// Range calls fn for every member in ascending order without allocating,
// stopping early if fn returns false.
func (s *NodeSet) Range(fn func(Node) bool) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(Node(i*64 + b)) {
				return
			}
			w &= w - 1
		}
	}
}

// Members returns the members in ascending order.
func (s *NodeSet) Members() []Node {
	out := make([]Node, 0, s.Len())
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, Node(i*64+b))
			w &= w - 1
		}
	}
	return out
}

// Fill inserts every node in [0, universe).
func (s *NodeSet) Fill() {
	for v := 0; v < s.n; v++ {
		s.Add(Node(v))
	}
}

// Words returns the set's bitmap: member v is bit v%64 of word v/64.
// The slice aliases the set and must not be modified.
func (s *NodeSet) Words() []uint64 { return s.words }
