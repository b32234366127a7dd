package engine

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/realization"
	"repro/internal/snapshot"
)

// GroupSize is the number of draws per touch group: the touch-recording
// kernels (pool chunks and p_max ledger chunks) split each chunk into
// groupsPerChunk groups and record, per group, the sorted union of the
// nodes its draws touched (touchList). A group is the unit of delta
// repair: a delta re-draws exactly the groups whose lists name a dirty
// node. It is a storage constant, not a stream unit — draw i of chunk c
// reads its own stream (seed, ns, c·ChunkSize + i) — so it fixes the
// touch bytes and the repair bill, never a sampled path. Eight draws per
// group keep the lists at ~23 B per draw on the Wiki analog while a
// one-edge delta re-draws ~5% of a pool's draws.
const GroupSize = 8

// groupsPerChunk is the number of groups in a full chunk.
const groupsPerChunk = ChunkSize / GroupSize

// groupSet is a set of a chunk's groups, bit g for group g.
type groupSet [groupsPerChunk / 64]uint64

func (s *groupSet) add(g int64)      { s[g>>6] |= 1 << (g & 63) }
func (s *groupSet) has(g int64) bool { return s[g>>6]>>(g&63)&1 != 0 }

// empty reports whether s holds no group.
func (s *groupSet) empty() bool { return *s == groupSet{} }

// groupsFrom returns the groups first and onward of a chunk of n draws
// (the last one possibly partial).
func groupsFrom(first, n int64) groupSet {
	var s groupSet
	for g := first; g*GroupSize < n; g++ {
		s.add(g)
	}
	return s
}

// draws returns how many of a chunk's n draws lie in the groups of s.
func (s *groupSet) draws(n int64) int64 {
	var d int64
	for _, word := range s {
		d += int64(bits.OnesCount64(word)) * GroupSize
	}
	if last := (n - 1) / GroupSize; s.has(last) {
		d -= (last+1)*GroupSize - n
	}
	return d
}

// touchList is a chunk's delta-repair damage-test input: for each of its
// groups, the sorted union of the nodes its draws touched (see
// realization.Sampler.RecordTouches), encoded as a snapshot touch list —
// group g's list is Data[Offsets[g]:Offsets[g+1]]. It is the TOUCH
// section's chunk form, so a session serializes it without a copy. A
// list names node ids only, so a delta that adds nodes leaves it valid
// as it is. A nil Offsets means unknown (a chunk restored without a
// touch section, or a restored p_max ledger), which repair treats as
// every group damaged — always correct, just slower.
type touchList snapshot.TouchChunk

// known reports whether the chunk carries touch information.
func (t touchList) known() bool { return t.Offsets != nil }

// memBytes returns the bytes t holds.
func (t touchList) memBytes() int64 { return int64(cap(t.Offsets))*4 + int64(cap(t.Data)) }

// list returns group g's encoded list.
func (t touchList) list(g int64) []byte { return t.Data[t.Offsets[g]:t.Offsets[g+1]] }

// damaged returns the groups of an n-draw chunk whose lists name a node
// of dirty (ascending) — every group when t is unknown, and every group
// whose list is malformed where the test read it. universe bounds the
// nodes a well-formed list can name.
func (t touchList) damaged(dirty []graph.Node, n, universe int64) groupSet {
	if !t.known() {
		return groupsFrom(0, n)
	}
	var s groupSet
	for g := int64(0); g*GroupSize < n; g++ {
		if meets, ok := snapshot.TouchListMeets(t.list(g), dirty, universe); meets || !ok {
			s.add(g)
		}
	}
	return s
}

// touchRecord is the record a chunk's groups are drawn into: the
// sampler's touch log plus the scratch a bitmap scan writes the sorted
// nodes to.
type touchRecord struct {
	realization.TouchLog
	// sorted receives a scan's nodes. A scan writes at most two slots
	// past the nodes it finds, so it needs the node count plus two: the
	// list's length when the record keeps one, else a slot per bit.
	sorted []graph.Node
}

// scanMaxWords is the largest bitmap, in words, that a group's seal
// always scans (about 65K nodes). Scanning costs a few instructions per
// word; sorting a group's list costs about 2·t·log₂(t) word tests for t
// distinct nodes, ~2,700 at the ~170 an 8-draw group touches on the Wiki
// analog. Up to this size a scan is cheaper for any group worth sorting,
// so the record keeps no first-touch list and recording is one OR per
// touch; beyond it the record keeps the list and each seal picks
// (sortCheaper).
const scanMaxWords = 1024

// touchRecords recycles the touch records chunks are drawn into, one per
// chunk being drawn at a time; a pooled record's bitmap is all zero and
// its node list empty.
var touchRecords = sync.Pool{New: func() any { return new(touchRecord) }}

// getTouchRecord returns a pooled touch record for a universe of n nodes.
func getTouchRecord(n int) *touchRecord {
	r := touchRecords.Get().(*touchRecord)
	words := (n + 63) / 64
	if cap(r.Seen) < words {
		r.Seen = make([]uint64, words)
	}
	r.Seen, r.List = r.Seen[:words], words > scanMaxWords
	return r
}

// seal appends the touch list of the nodes r recorded to dst and empties
// r for the next group. The ascending order comes from a scan of the
// bitmap or from sorting the first-touch list, whichever is cheaper, and
// either way the consumed bits are cleared.
func (r *touchRecord) seal(dst []byte) []byte {
	nodes := r.Nodes
	if r.List && sortCheaper(len(nodes), len(r.Seen)) {
		slices.Sort(nodes)
		for _, v := range nodes {
			r.Seen[v>>6] = 0
		}
	} else {
		nodes = r.scan()
	}
	r.Nodes = r.Nodes[:0]
	return snapshot.AppendTouchList(dst, nodes)
}

// scan returns the nodes set in the bitmap, ascending, and clears it.
// Each word's first two nodes are written unconditionally (a spent word
// yields junk that later writes cover) and the count advances by the
// word's population, so only a word holding three or more nodes — rare
// at the densities touch groups reach — branches on where its bits lie.
func (r *touchRecord) scan() []graph.Node {
	need := 64*len(r.Seen) + 2
	if r.List {
		need = len(r.Nodes) + 2
	}
	if len(r.sorted) < need {
		r.sorted = make([]graph.Node, need)
	}
	out, k := r.sorted, 0
	for w, word := range r.Seen {
		base := graph.Node(w << 6)
		c := bits.OnesCount64(word)
		out[k] = base + graph.Node(bits.TrailingZeros64(word))
		word &= word - 1
		out[k+1] = base + graph.Node(bits.TrailingZeros64(word))
		if c > 2 {
			for j := k + 2; j < k+c; j++ {
				word &= word - 1
				out[j] = base + graph.Node(bits.TrailingZeros64(word))
			}
		}
		k += c
	}
	clear(r.Seen)
	return out[:k]
}

// sortCheaper reports whether sorting a list of t touched nodes costs
// less than scanning the w words of the record's bitmap for them: about
// t·log₂(t) comparisons against w word tests, a comparison counted as
// two word tests.
func sortCheaper(t, w int) bool { return 2*t*bits.Len(uint(t)) < w }

// detachTouch returns t, which was built in b's touch arrays, copied
// into arrays of its exact size, leaving b's arrays for the next chunk:
// a chunk that is kept holds only the bytes its lists need.
func (b *chunkBuf) detachTouch(t touchList) touchList {
	b.touchOff, b.touchData = t.Offsets[:0], t.Data[:0]
	return touchList{
		Offsets: append(make([]uint32, 0, len(t.Offsets)), t.Offsets...),
		Data:    append(make([]byte, 0, len(t.Data)), t.Data...),
	}
}
