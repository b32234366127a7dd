package engine

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/realization"
)

// GroupSize is the number of draws per stream group. The touch-recording
// kernels (pool chunks and p_max ledger chunks) split each chunk into
// groupsPerChunk groups, and group g of chunk c reads its own stream
// (seed, ns, c·groupsPerChunk + g) from the start. Like ChunkSize it is
// part of the determinism contract; it is also the unit of delta repair:
// a delta re-draws exactly the groups whose draws consulted a dirty node.
const GroupSize = 64

// groupsPerChunk is the number of groups in a full chunk — one bit each
// in a touch mask word.
const groupsPerChunk = ChunkSize / GroupSize

// A chunk's groups must fit one uint32 mask word: this constant
// overflows, failing the build, if they do not.
const _ = uint32(1 << (groupsPerChunk - 1))

// groupStream returns the stream index of group g of chunk c.
func groupStream(chunk, g int64) uint64 { return uint64(chunk)*groupsPerChunk + uint64(g) }

// groupBits returns the mask of every group a chunk of n draws holds
// (the last one possibly partial).
func groupBits(n int64) uint32 {
	return uint32(uint64(1)<<((n+GroupSize-1)/GroupSize) - 1)
}

// groupDraws returns how many of a chunk's n draws lie in the groups set
// in mask.
func groupDraws(mask uint32, n int64) int64 {
	mask &= groupBits(n)
	d := int64(bits.OnesCount32(mask)) * GroupSize
	if last := (n - 1) / GroupSize; mask&(1<<last) != 0 {
		d -= (last+1)*GroupSize - n
	}
	return d
}

// touchMask is a chunk's delta-repair damage-test input: for every node,
// the set of the chunk's draw groups that consulted it (bit g set iff a
// draw of group g touched the node — see realization.Sampler.
// RecordTouches). A chunk that touched more than half the graph keeps
// the dense form, one word per node (nodes empty); otherwise it keeps the
// sparse form, the touched nodes in ascending order with their words in
// masks. An empty masks means unknown (e.g. a chunk restored from a
// snapshot without a touch section), which repair treats as every group
// damaged — always correct, just slower.
type touchMask struct {
	nodes []graph.Node
	masks []uint32
}

// known reports whether the chunk carries touch information.
func (t touchMask) known() bool { return len(t.masks) > 0 }

// dense reports whether t is in the one-word-per-node form.
func (t touchMask) dense() bool { return len(t.nodes) == 0 }

// memBytes returns the bytes t holds.
func (t touchMask) memBytes() int64 { return int64(cap(t.nodes))*4 + int64(cap(t.masks))*4 }

// damaged returns the groups whose draws consulted any dirty node — all
// groups when t is unknown. Dirty nodes beyond the chunk's universe (a
// delta that grew the graph) were never consulted.
func (t touchMask) damaged(dirty []graph.Node) uint32 {
	if !t.known() {
		return ^uint32(0)
	}
	var m uint32
	for _, v := range dirty {
		if t.dense() {
			if int(v) < len(t.masks) {
				m |= t.masks[v]
			}
		} else if i, ok := slices.BinarySearch(t.nodes, v); ok {
			m |= t.masks[i]
		}
	}
	return m
}

// orInto records the bits of t selected by keep into log, which must be
// empty.
func (t touchMask) orInto(log *realization.TouchLog, keep uint32) {
	if keep == 0 {
		return
	}
	if t.dense() {
		// Copy the words in one branch-free pass, counting the non-zero
		// ones; the node list is needed only when they are at most half.
		words := t.masks[:min(len(t.masks), len(log.Mask))]
		touched := 0
		for v, m := range words {
			m &= keep
			log.Mask[v] = m
			touched += int((m | -m) >> 31)
		}
		if log.Full = 2*touched > len(log.Mask); !log.Full {
			for v, m := range log.Mask[:len(words)] {
				if m != 0 {
					log.Nodes = append(log.Nodes, graph.Node(v))
				}
			}
		}
		return
	}
	for i, v := range t.nodes {
		if m := t.masks[i] & keep; m != 0 {
			log.Touch(v, m)
		}
	}
}

// widen returns t as a chunk that touched the same nodes seals it in a
// universe of n nodes — how a chunk adopted whole across a delta that
// added nodes must carry its mask. A dense mask of fewer than n words
// gains zero words, or turns sparse once its touched nodes no longer
// exceed half the universe; any other mask carries over as it is. A
// dense t is copied, never extended in place: the pre-delta chunk may
// still be read.
func (t touchMask) widen(n int) touchMask {
	if !t.known() || !t.dense() || len(t.masks) >= n {
		return t
	}
	log := getTouchLog(n)
	t.orInto(log, ^uint32(0))
	var b chunkBuf
	return b.sealTouch(log)
}

// touchLogs recycles the touch records chunks are drawn into, one per
// chunk being drawn at a time; a pooled record's Mask is all zero.
var touchLogs = sync.Pool{New: func() any { return new(realization.TouchLog) }}

// getTouchLog returns a pooled touch record for a universe of n nodes.
func getTouchLog(n int) *realization.TouchLog {
	log := touchLogs.Get().(*realization.TouchLog)
	if cap(log.Mask) < n {
		log.Mask = make([]uint32, n)
	}
	log.Mask, log.Nodes, log.Full = log.Mask[:n], log.Nodes[:0], false
	return log
}

// sealTouch turns a filled touch record into the chunk's touchMask and
// returns the record to its pool. When more than half the nodes were
// touched the record's Mask itself becomes the dense form; otherwise the
// touched nodes in ascending order and their words become the sparse
// form, in arrays detached from b, and the words are re-zeroed. The
// ascending order comes from sorting the record's node list or from a
// scan of its words, whichever is cheaper (sortCheaper), so the cost is
// the lesser of the two.
func (b *chunkBuf) sealTouch(log *realization.TouchLog) touchMask {
	defer touchLogs.Put(log)
	touched := log.Nodes
	if log.Full {
		dense := log.Mask
		log.Mask = nil
		return touchMask{masks: dense}
	}
	nodes, masks := b.nodes[:0], b.masks[:0]
	if cap(nodes) < len(touched) {
		nodes = make([]graph.Node, 0, len(touched))
	}
	if cap(masks) < len(touched) {
		masks = make([]uint32, 0, len(touched))
	}
	if sortCheaper(len(touched), len(log.Mask)) {
		slices.Sort(touched)
		nodes = append(nodes, touched...)
	} else {
		for v, m := range log.Mask {
			if m != 0 {
				nodes = append(nodes, graph.Node(v))
			}
		}
	}
	for _, v := range nodes {
		masks = append(masks, log.Mask[v])
		log.Mask[v] = 0
	}
	b.nodes, b.masks = nil, nil
	return touchMask{nodes: nodes, masks: masks}
}

// sortCheaper reports whether sorting a list of t touched nodes costs
// less than scanning the n words of the record for them: about
// t·log₂(t) comparisons against n sequential word tests. A comparison
// costs about two word tests once the scan's eviction of the graph from
// the cache is counted (measured on the Youtube analog: a full chunk at
// scale 0.1 scans, and one at scale 1 sorts).
func sortCheaper(t, n int) bool { return 2*t*bits.Len(uint(t)) < n }

// reclaimTouch hands a dropped chunk's touch arrays back for reuse: the
// sparse form's to b, the dense words, zeroed, to a pooled touch record.
func (b *chunkBuf) reclaimTouch(t touchMask) {
	switch {
	case !t.known():
	case t.dense():
		clear(t.masks)
		log := touchLogs.Get().(*realization.TouchLog)
		if cap(log.Mask) < len(t.masks) {
			log.Mask = t.masks
		}
		touchLogs.Put(log)
	default:
		b.nodes, b.masks = t.nodes[:0], t.masks[:0]
	}
}
