package engine

import (
	"math/bits"
	"sync"

	"repro/internal/graph"
)

// Index is an inverted node → realization index over one pool: for every
// node it lists the type-1 realizations whose path contains it. A coverage
// query then touches only the realizations incident to the invited nodes
// that actually occur in the pool, instead of rescanning every path —
// the win grows with query volume (greedy growth curves, α-sweeps, and
// baseline comparisons all interrogate one pool many times).
//
// The postings are hybrid: every node has an id-list (CSR), and
// high-postings nodes additionally get a dense bitmap over the
// realizations. Bulk positive-side queries then tally counts in
// bit-sliced planes — 64 realizations per machine word — with dense
// nodes added by carry-propagating word operations, and read coverage
// off by comparing the count planes to precomputed path-length planes.
// That closes the historical gap between small-invited-set queries
// (which scattered one counter per posting) and the complement side.
//
// Queries share epoch-reset scratch buffers and are serialized by an
// internal mutex; the pool's plain CoverageCount scan remains available
// for lock-free concurrent use.
type Index struct {
	pool  *Pool
	nodes []graph.Node // distinct nodes occurring in any path, ascending
	off   []int32      // CSR offsets over the universe; len universe+1
	ids   []int32      // realization ids

	// Bit-sliced tally machinery. words is the realization-bitmap width
	// ⌈t1/64⌉; planes the number of count bit-planes, ⌈log2(maxlen+1)⌉.
	// lenPlanes[i*words+w] holds bit i of every path length; liveMask
	// zeroes the tail bits of the last word. Nodes with at least
	// denseCut postings own a row of bitmaps (denseOf maps node →
	// dense row, -1 for sparse nodes).
	words   int
	planes  int
	tallyPl int // tally/lenPlanes rows: planes padded up to 6 so the
	// register-specialized counter (countCovered6) can touch all six
	// planes unconditionally; the pad rows stay all-zero.
	lenPlanes []uint64
	liveMask  uint64
	denseOf   []int32
	bitmaps   []uint64

	mu        sync.Mutex
	hits      []int32 // per-realization covered-node counts (epoch-valid)
	hitEpoch  []uint32
	epoch     uint32
	tally     []uint64 // planes*words count planes; all-zero between queries
	denseRows []int32  // query scratch: bitmap row offsets of invited dense nodes
}

func newIndex(p *Pool) *Index {
	t1 := p.NumType1()
	// off[v] first counts v's postings, then (prefix sums) marks the end
	// of v's list; the fill below walks paths back to front, moving each
	// off[v] down to the start of v's list, so every list comes out
	// ascending without a graph-sized cursor array. Scan only the arena
	// prefix the pool's paths occupy: a truncated view shares its
	// parent's full arena but owns fewer paths.
	off := make([]int32, p.universe+1)
	for _, v := range p.arena[:p.offsets[t1]] {
		off[v]++
	}
	var nodes []graph.Node
	var end int32
	for v := 0; v < p.universe; v++ {
		if off[v] > 0 {
			nodes = append(nodes, graph.Node(v))
		}
		end += off[v]
		off[v] = end
	}
	off[p.universe] = end
	ids := make([]int32, end)
	for i := t1 - 1; i >= 0; i-- {
		for _, v := range p.Path(i) {
			off[v]--
			ids[off[v]] = int32(i)
		}
	}
	ix := &Index{
		pool:     p,
		nodes:    nodes,
		off:      off,
		ids:      ids,
		hits:     make([]int32, t1),
		hitEpoch: make([]uint32, t1),
	}
	ix.buildPlanes(t1)
	return ix
}

// buildPlanes sets up the bit-sliced tally machinery: path-length
// planes, the query tally scratch, and dense bitmaps for every node
// whose postings mass makes word-parallel adds cheaper than scattered
// counter increments.
func (ix *Index) buildPlanes(t1 int) {
	if t1 == 0 {
		return
	}
	p := ix.pool
	maxlen := int32(0)
	for i := 0; i < t1; i++ {
		if l := p.offsets[i+1] - p.offsets[i]; l > maxlen {
			maxlen = l
		}
	}
	ix.words = (t1 + 63) / 64
	ix.planes = bits.Len(uint(maxlen))
	ix.tallyPl = max(ix.planes, 6)
	ix.liveMask = ^uint64(0) >> (uint(ix.words*64-t1) & 63)
	ix.lenPlanes = make([]uint64, ix.tallyPl*ix.words)
	for i := 0; i < t1; i++ {
		l := uint32(p.offsets[i+1] - p.offsets[i])
		w, bit := i>>6, uint64(1)<<(uint(i)&63)
		for pl := 0; pl < ix.planes; pl++ {
			if l>>uint(pl)&1 != 0 {
				ix.lenPlanes[pl*ix.words+w] |= bit
			}
		}
	}
	ix.tally = make([]uint64, ix.tallyPl*ix.words)

	// A dense node's bitmap add touches every word but the carry chain
	// dies after one plane for almost all of them, so it costs ~2·words
	// sequential ops; a sparse node's scatter costs a few *random-access*
	// ops per posting. The break-even is therefore near `words` postings,
	// and the bitmap memory at that cutoff (8·words bytes) stays within
	// 2× of the id-list it shadows.
	denseCut := int32(max(64, ix.words))
	ix.denseOf = make([]int32, p.universe)
	nDense := int32(0)
	for v := 0; v < p.universe; v++ {
		if ix.off[v+1]-ix.off[v] >= denseCut {
			ix.denseOf[v] = nDense
			nDense++
		} else {
			ix.denseOf[v] = -1
		}
	}
	if nDense == 0 {
		return
	}
	ix.denseRows = make([]int32, 0, nDense)
	ix.bitmaps = make([]uint64, int(nDense)*ix.words)
	for _, v := range ix.nodes {
		d := ix.denseOf[v]
		if d < 0 {
			continue
		}
		row := ix.bitmaps[int(d)*ix.words : (int(d)+1)*ix.words]
		for _, r := range ix.Realizations(v) {
			row[r>>6] |= 1 << (uint(r) & 63)
		}
	}
}

// memBytes returns the resident size of the index's postings and scratch
// tables (graph.Node, int32 and uint32 entries are 4 bytes each).
func (ix *Index) memBytes() int64 {
	return (int64(cap(ix.nodes))+int64(cap(ix.off))+int64(cap(ix.ids))+
		int64(cap(ix.hits))+int64(cap(ix.hitEpoch))+int64(cap(ix.denseOf))+
		int64(cap(ix.denseRows)))*4 +
		(int64(cap(ix.lenPlanes))+int64(cap(ix.bitmaps))+int64(cap(ix.tally)))*8
}

// Realizations returns the ids of the pooled realizations whose path
// contains v. The slice aliases index storage and must not be modified.
func (ix *Index) Realizations(v graph.Node) []int32 {
	return ix.ids[ix.off[v]:ix.off[v+1]]
}

// scatterNode tallies a sparse (no-bitmap) node into the count planes
// with one binary-counter increment per posting. Counts never exceed
// the path length (a path's nodes are distinct), so carries cannot
// leave the top plane. Dense nodes do not come through here — the
// word-major pass in countCovered folds their bitmap rows in directly.
func (ix *Index) scatterNode(tally []uint64, v graph.Node) {
	words, planes := ix.words, ix.planes
	for _, r := range ix.Realizations(v) {
		w, bit := int(r>>6), uint64(1)<<(uint(r)&63)
		for pl := 0; pl < planes; pl++ {
			i := pl*words + w
			if tally[i]&bit == 0 {
				tally[i] |= bit
				break
			}
			tally[i] &^= bit
		}
	}
}

// gatherInvited splits the invited set for a heavy positive-side query:
// sparse nodes are scattered into the count planes immediately, dense
// nodes contribute their bitmap row *offset* (premultiplied by words)
// to rows, for countCovered to fold in word-major. rows must come in
// empty with enough capacity for every dense row (the Index and batch
// scratches are sized at build time, so appends never reallocate).
func (ix *Index) gatherInvited(invited *graph.NodeSet, tally []uint64, rows []int32) []int32 {
	words := int32(ix.words)
	ix.forEachInvited(invited, func(v graph.Node) {
		if d := ix.denseOf[v]; d >= 0 {
			rows = append(rows, d*words)
		} else {
			ix.scatterNode(tally, v)
		}
	})
	return rows
}

// countCovered finishes a heavy positive-side query in one word-major
// pass. For each machine word of realizations it lifts the count planes
// (pre-seeded by sparse scatters, re-zeroed on the way out) into
// register-resident counters, folds in every invited dense bitmap row
// with a binary carry chain that dies as soon as the carry does, then
// reads coverage off against the length planes — a realization is
// covered iff its count equals its path length — and popcounts the
// matches. Keeping the counters in registers is the point: the former
// plane-major formulation streamed the whole tally through L1 once per
// dense add, which profiling showed was the entire cost of the query.
// Pools with path lengths under 64 (all practical ones — the Lemma 2
// walk terminates fast) take the six-named-registers specialization;
// an indexed-array fallback covers deeper counts.
func (ix *Index) countCovered(tally []uint64, rows []int32) int64 {
	if ix.planes <= 6 {
		return ix.countCovered6(tally, rows)
	}
	words, planes := ix.words, ix.planes
	bm, lp := ix.bitmaps, ix.lenPlanes
	var covered int64
	var cnt [32]uint64 // planes ≤ 31 (path lengths are int32)
	for w := 0; w < words; w++ {
		for pl := 0; pl < planes; pl++ {
			i := pl*words + w
			cnt[pl] = tally[i]
			tally[i] = 0
		}
		for _, base := range rows {
			c := bm[int(base)+w]
			for pl := 0; c != 0 && pl < len(cnt); pl++ {
				t := cnt[pl] & c
				cnt[pl] ^= c
				c = t
			}
		}
		eq := ^uint64(0)
		for pl := 0; pl < planes; pl++ {
			eq &= ^(cnt[pl] ^ lp[pl*words+w])
		}
		if w == words-1 {
			eq &= ix.liveMask
		}
		covered += int64(bits.OnesCount64(eq))
	}
	return covered
}

// countCovered6 is countCovered for planes ≤ 6 (counts below 64), with
// the six counter planes held in named locals so the compiler keeps
// them in registers across the whole row loop. tally and lenPlanes are
// padded to six rows at build time (tallyPl), so every plane is read,
// cleared, and compared unconditionally — the pad rows are permanently
// zero and compare as trivially equal. The carry chain is unrolled two
// planes at a time: carries out of plane 1 (counts crossing 4) are
// uncommon, so one well-predicted branch retires most rows after six
// ALU ops, and counts cannot carry out of plane 5.
func (ix *Index) countCovered6(tally []uint64, rows []int32) int64 {
	words := ix.words
	bm := ix.bitmaps
	t0, t1, t2 := tally[:words], tally[words:2*words], tally[2*words:3*words]
	t3, t4, t5 := tally[3*words:4*words], tally[4*words:5*words], tally[5*words:6*words]
	lp := ix.lenPlanes
	l0, l1, l2 := lp[:words], lp[words:2*words], lp[2*words:3*words]
	l3, l4, l5 := lp[3*words:4*words], lp[4*words:5*words], lp[5*words:6*words]
	var covered int64
	for w := 0; w < words; w++ {
		c0, c1, c2 := t0[w], t1[w], t2[w]
		c3, c4, c5 := t3[w], t4[w], t5[w]
		t0[w], t1[w], t2[w] = 0, 0, 0
		t3[w], t4[w], t5[w] = 0, 0, 0
		// Rows go in two at a time through a half-adder — ones lands at
		// plane 0, twos joins plane 0's carry at plane 1 (t and up are
		// disjoint: up ⊆ twos but t ⊆ ones = c ^ twos) — so the chain
		// prefix runs once per pair instead of once per row.
		i := 0
		for ; i+1 < len(rows); i += 2 {
			a, b := bm[int(rows[i])+w], bm[int(rows[i+1])+w]
			ones := a ^ b
			twos := a & b
			t := c0 & ones
			c0 ^= ones
			in := t ^ twos
			up := t & twos
			t = c1 & in
			c1 ^= in
			if c := t | up; c != 0 {
				t = c2 & c
				c2 ^= c
				c = t & c3
				c3 ^= t
				if c != 0 {
					t = c4 & c
					c4 ^= c
					c5 ^= t
				}
			}
		}
		if i < len(rows) {
			c := bm[int(rows[i])+w]
			t := c0 & c
			c0 ^= c
			c = t & c1
			c1 ^= t
			if c != 0 {
				t = c2 & c
				c2 ^= c
				c = t & c3
				c3 ^= t
				if c != 0 {
					t = c4 & c
					c4 ^= c
					c5 ^= t
				}
			}
		}
		eq := ^(c0 ^ l0[w]) & ^(c1 ^ l1[w]) & ^(c2 ^ l2[w])
		eq &= ^(c3 ^ l3[w]) & ^(c4 ^ l4[w]) & ^(c5 ^ l5[w])
		if w == words-1 {
			eq &= ix.liveMask
		}
		covered += int64(bits.OnesCount64(eq))
	}
	return covered
}

// planesWorthIt reports whether a positive-side query with the given
// postings mass should tally in bit planes rather than scattered
// counters: the planes path pays a fixed ~2·planes·words sweep to read
// and clear, so tiny queries (singleton invitations) stay on the
// epoch-scatter path.
func (ix *Index) planesWorthIt(invPostings int64) bool {
	return ix.tally != nil && invPostings > 2*int64(ix.planes*ix.words)
}

// CoverageCount returns F(B_l, I) using the inverted index. It counts
// from whichever side carries fewer postings: the invited pool nodes
// (tally per-realization hits until they reach the path length — valid
// because path nodes are distinct by construction) or their complement
// (start from "all covered" and strike out every realization touching a
// non-invited node). Solver outputs and measurement sets consist of
// exactly the popular path nodes, so the complement side is usually tiny
// and a query costs far less than rescanning the arena. Heavy positive
// sides tally word-parallel in bit planes instead of one counter at a
// time.
func (ix *Index) CoverageCount(invited *graph.NodeSet) int64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var invPostings int64
	ix.forEachInvited(invited, func(v graph.Node) {
		invPostings += int64(ix.off[v+1] - ix.off[v])
	})
	t1 := int64(ix.pool.NumType1())
	if invPostings <= int64(len(ix.ids))-invPostings {
		if ix.planesWorthIt(invPostings) {
			rows := ix.gatherInvited(invited, ix.tally, ix.denseRows[:0])
			return ix.countCovered(ix.tally, rows)
		}
		// Positive side, light: tally hits on realizations of invited
		// nodes.
		ix.epoch++
		if ix.epoch == 0 { // wrapped: clear and restart
			for i := range ix.hitEpoch {
				ix.hitEpoch[i] = 0
			}
			ix.epoch = 1
		}
		var covered int64
		ix.forEachInvited(invited, func(v graph.Node) {
			for _, r := range ix.Realizations(v) {
				if ix.hitEpoch[r] != ix.epoch {
					ix.hitEpoch[r] = ix.epoch
					ix.hits[r] = 0
				}
				ix.hits[r]++
				if ix.hits[r] == ix.pool.offsets[r+1]-ix.pool.offsets[r] {
					covered++
				}
			}
		})
		return covered
	}
	// Complement side: strike out realizations touching non-invited nodes.
	ix.epoch++
	if ix.epoch == 0 {
		for i := range ix.hitEpoch {
			ix.hitEpoch[i] = 0
		}
		ix.epoch = 1
	}
	covered := t1
	for _, v := range ix.nodes {
		if invited.Contains(v) {
			continue
		}
		for _, r := range ix.Realizations(v) {
			if ix.hitEpoch[r] != ix.epoch {
				ix.hitEpoch[r] = ix.epoch
				covered--
			}
		}
	}
	return covered
}

// forEachInvited visits invited ∩ pool-nodes via whichever enumeration is
// smaller — the set's own members or the pool's distinct-node list — the
// same adaptivity CoverageCount uses. Invited nodes absent from the pool
// have empty postings, so visiting them is harmless. nil visits nothing
// (the empty invitation set).
func (ix *Index) forEachInvited(invited *graph.NodeSet, fn func(v graph.Node)) {
	if invited == nil {
		return
	}
	if invited.Len() <= len(ix.nodes) {
		invited.Range(func(v graph.Node) bool { fn(v); return true })
		return
	}
	for _, v := range ix.nodes {
		if invited.Contains(v) {
			fn(v)
		}
	}
}

// CoverageCounts answers many coverage queries against the pool at once:
// counts[j] = F(B_l, invited[j]). Each set is counted from its cheaper
// postings side, exactly like CoverageCount. Positive-side sets (small
// invitation sets) touch only their own members' postings — heavy ones
// tally word-parallel in bit planes, sparse ones reuse one
// per-realization tally row — so they cost no more than single queries
// minus the per-call locking. Complement-side sets — the shape solver
// outputs and measurement sets take, where the batch win matters — share
// ONE traversal of the pool's node list and postings for the entire
// group, instead of one traversal per set.
//
// A nil entry counts as the empty invitation set. Unlike CoverageCount,
// the batch uses its own scratch rather than the index's epoch buffers,
// so it takes no lock and may run concurrently with other queries.
func (ix *Index) CoverageCounts(invited []*graph.NodeSet) []int64 {
	k := len(invited)
	counts := make([]int64, k)
	if k == 0 {
		return counts
	}
	t1 := ix.pool.NumType1()
	total := int64(len(ix.ids))
	var pos, neg []int // batch-local set indexes per side
	invPostings := make([]int64, k)
	for j, s := range invited {
		ix.forEachInvited(s, func(v graph.Node) {
			invPostings[j] += int64(ix.off[v+1] - ix.off[v])
		})
		if invPostings[j] <= total-invPostings[j] {
			pos = append(pos, j)
		} else {
			neg = append(neg, j)
			counts[j] = int64(t1)
		}
	}
	// Positive side: tally hits on the realizations of each set's invited
	// nodes until the path length is reached (path nodes are distinct by
	// construction). Sets run sequentially. Heavy sets tally in batch-
	// local bit planes; light sets share one counter row that is all-zero
	// between sets, returned to zero per set by whichever of scatter-reset
	// (sparse) or sequential clear (dense) is cheaper.
	if len(pos) > 0 {
		var hits []int32
		var touched []int32 // allocated on the first sparse set
		var tally []uint64  // allocated on the first heavy set
		var rows []int32
		for _, j := range pos {
			if ix.planesWorthIt(invPostings[j]) {
				if tally == nil {
					tally = make([]uint64, ix.tallyPl*ix.words)
					rows = make([]int32, 0, len(ix.bitmaps)/ix.words)
				}
				rows = ix.gatherInvited(invited[j], tally, rows[:0])
				counts[j] = ix.countCovered(tally, rows)
				continue
			}
			if hits == nil {
				hits = make([]int32, t1)
			}
			if sparse := invPostings[j] < int64(t1)/8; sparse {
				if touched == nil {
					touched = make([]int32, 0, t1/8+1)
				}
				touched = touched[:0]
				ix.forEachInvited(invited[j], func(v graph.Node) {
					for _, r := range ix.Realizations(v) {
						if hits[r] == 0 {
							touched = append(touched, r)
						}
						hits[r]++
						if hits[r] == ix.pool.offsets[r+1]-ix.pool.offsets[r] {
							counts[j]++
						}
					}
				})
				for _, r := range touched {
					hits[r] = 0
				}
				continue
			}
			ix.forEachInvited(invited[j], func(v graph.Node) {
				for _, r := range ix.Realizations(v) {
					hits[r]++
					if hits[r] == ix.pool.offsets[r+1]-ix.pool.offsets[r] {
						counts[j]++
					}
				}
			})
			clear(hits)
		}
	}
	// Complement side: strike out realizations touching non-invited nodes,
	// for all sets in one sweep of the node list and postings.
	if len(neg) > 0 {
		struck := make([]uint64, (len(neg)*t1+63)/64)
		miss := make([]int, 0, len(neg))
		for _, v := range ix.nodes {
			miss = miss[:0]
			for ni, j := range neg {
				if s := invited[j]; s == nil || !s.Contains(v) {
					miss = append(miss, ni)
				}
			}
			if len(miss) == 0 {
				continue
			}
			for _, r := range ix.Realizations(v) {
				for _, ni := range miss {
					bit := ni*t1 + int(r)
					if struck[bit>>6]&(1<<(uint(bit)&63)) == 0 {
						struck[bit>>6] |= 1 << (uint(bit) & 63)
						counts[neg[ni]]--
					}
				}
			}
		}
	}
	return counts
}
