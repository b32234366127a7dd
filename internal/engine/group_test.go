package engine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ltm"
	"repro/internal/weights"
)

// touchEqual reports whether two chunks' touch records are both unknown
// or hold the same lists.
func touchEqual(a, b touchList) bool {
	return a.known() == b.known() && slices.Equal(a.Offsets, b.Offsets) && bytes.Equal(a.Data, b.Data)
}

// decodeList decodes a well-formed touch list into its nodes.
func decodeList(t *testing.T, list []byte) []graph.Node {
	t.Helper()
	var nodes []graph.Node
	prev := int64(-1)
	for len(list) > 0 {
		gap, n := binary.Uvarint(list)
		if n <= 0 || gap == 0 {
			t.Fatalf("malformed touch list %x", list)
		}
		prev += int64(gap)
		nodes = append(nodes, graph.Node(prev))
		list = list[n:]
	}
	return nodes
}

// mustLedgersEqual compares two p_max ledgers chunk by chunk: draws,
// success positions and touch lists.
func mustLedgersEqual(t *testing.T, got, want *PmaxEstimator) {
	t.Helper()
	if len(got.chunks) != len(want.chunks) || got.draws != want.draws || got.succ != want.succ {
		t.Fatalf("ledger %d chunks/%d draws/%d successes, want %d/%d/%d",
			len(got.chunks), got.draws, got.succ, len(want.chunks), want.draws, want.succ)
	}
	for i, w := range want.chunks {
		g := got.chunks[i]
		if g.draws != w.draws || !slices.Equal(g.succ, w.succ) || !touchEqual(g.touch, w.touch) {
			t.Fatalf("ledger chunk %d differs", i)
		}
	}
}

// growLedger grows a fresh estimator's ledger to exactly l draws.
func growLedger(t *testing.T, e *Engine, seed int64, workers int, l int64) *PmaxEstimator {
	t.Helper()
	pe := e.NewPmaxEstimator(seed, workers)
	pe.mu.Lock()
	err := pe.growLocked(context.Background(), l)
	pe.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	return pe
}

// TestGroupRepairMatchesCold: per-touch-group repair leaves pools and
// p_max ledgers byte-identical — paths, success positions and touch
// lists — to cold ones sampled on the post-delta instance. Sizes end in
// a partial touch group (2003 = 250·8 + 3) and, at 4053 draws, in a
// partial second chunk; deltas are random one-edge adds and multi-edge
// add/remove mixes, some with an edge to a new node; every worker count
// must agree, and the repaired session's snapshot must load back. On a
// 600-node graph a delta damages some groups of a chunk but not all, so
// the splice of re-drawn groups between adopted ones is exercised, not
// just whole-chunk adoption or whole-chunk re-draw.
func TestGroupRepairMatchesCold(t *testing.T) {
	ctx := context.Background()
	var partial bool // some chunk had both adopted and re-drawn groups
	for _, l := range []int64{2003, ChunkSize + 2005} {
		for _, workers := range []int{1, 2, 8} {
			for trial := int64(0); trial < 6; trial++ {
				r := rand.New(rand.NewSource(1000*l + 10*int64(workers) + trial))
				g := randomConnected(50+trial, 600, 300)
				s, tt := graph.Node(0), graph.Node(599)
				if g.HasEdge(s, tt) {
					continue
				}
				in := mustInstance(t, g, s, tt)
				nAdd, nRemove := 1, 0
				if trial%2 == 1 {
					nAdd, nRemove = 3, 2
				}
				d := randomDelta(r, g, s, tt, nAdd, nRemove)
				if trial%3 == 2 {
					// An edge to a new node grows the universe: adopted
					// chunks' lists must stay valid in it unchanged.
					d.Add = append(d.Add, graph.Edge{U: graph.Node(r.Intn(600)), V: 600})
				}
				in2, dirty := applyDelta(t, in, d)

				old := New(in).NewSession(11, workers)
				if _, err := old.Pool(ctx, l); err != nil {
					t.Fatal(err)
				}
				ne := New(in2)
				repaired, st, err := old.RepairTo(ctx, ne, dirty)
				if err != nil {
					t.Fatal(err)
				}
				if st.DrawsResampled+st.DrawsSaved != l || ne.RepairDrawsResampled() != st.DrawsResampled {
					t.Fatalf("l=%d workers=%d trial=%d: stats %+v do not cover the pool", l, workers, trial, st)
				}
				// Every chunk rebuilt yet some draws saved: some chunk
				// mixed adopted and re-drawn groups.
				partial = partial || (st.Resampled == st.Chunks && st.DrawsSaved > 0)
				cold := New(in2).NewSession(11, workers)
				if _, err := cold.Pool(ctx, l); err != nil {
					t.Fatal(err)
				}
				snap := snapshotOf(t, repaired)
				if !bytes.Equal(snap, snapshotOf(t, cold)) {
					t.Fatalf("l=%d workers=%d trial=%d: repaired pool or touch lists differ from cold", l, workers, trial)
				}
				if _, err := OpenSession(ne, bytes.NewReader(snap), workers); err != nil {
					t.Fatalf("l=%d workers=%d trial=%d: repaired session's snapshot does not load: %v", l, workers, trial, err)
				}

				pe := growLedger(t, New(in), 31, workers, l)
				rpe, pst, err := pe.RepairTo(ctx, New(in2), dirty)
				if err != nil {
					t.Fatal(err)
				}
				if pst.DrawsResampled+pst.DrawsSaved != l {
					t.Fatalf("l=%d workers=%d trial=%d: ledger stats %+v do not cover %d draws", l, workers, trial, pst, l)
				}
				mustLedgersEqual(t, rpe, growLedger(t, New(in2), 31, workers, l))
			}
		}
	}
	if !partial {
		t.Fatal("no repair re-drew some groups of a chunk while adopting others — the splice went untested")
	}
}

// TestTouchSnapshotDenseAndSparse: touch lists survive a snapshot round
// trip unchanged, on a small graph whose every group touches much of it
// (dense), on a large one where groups touch a small part (sparse) and
// on one large enough that groups are sealed from their first-touch
// lists (listed), and a restored session repairs per touch group from
// them — adopting the groups a delta left alone, ending byte-identical
// to a cold session at the new epoch.
func TestTouchSnapshotDenseAndSparse(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		l     int64
		dense bool
	}{
		{"dense", randomConnected(8, 40, 60), 2000, true},
		{"sparse", randomConnected(9, 3000, 1500), 300, false},
		// Past scanMaxWords: the record keeps a first-touch list.
		{"listed", randomConnected(10, 64*(scanMaxWords+1), 40000), 300, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.NumNodes()
			s, tt := graph.Node(0), graph.Node(n-1)
			if tc.g.HasEdge(s, tt) {
				t.Skip("adjacent s,t")
			}
			in := mustInstance(t, tc.g, s, tt)
			gfp := GraphFingerprint(tc.g, in.Weights())
			lin := NewLineage(gfp)
			e1 := New(in)
			e1.Bind(lin, gfp)
			old := e1.NewSession(41, 2)
			if _, err := old.Pool(ctx, tc.l); err != nil {
				t.Fatal(err)
			}
			if got, n := old.chunks[0].touch, min(tc.l, ChunkSize); !got.known() || int64(len(got.Offsets)) != (n+GroupSize-1)/GroupSize+1 {
				t.Fatalf("chunk touch record: known=%v with %d offsets for %d draws", got.known(), len(got.Offsets), n)
			}
			data := snapshotOf(t, old)
			for _, open := range []func() (*Session, error){
				func() (*Session, error) { return OpenSession(e1, bytes.NewReader(data), 2) },
				func() (*Session, error) { return OpenSession(e1, bufio.NewReader(bytes.NewReader(data)), 2) },
			} {
				loaded, err := open()
				if err != nil {
					t.Fatal(err)
				}
				for c := range old.chunks {
					if !touchEqual(loaded.chunks[c].touch, old.chunks[c].touch) {
						t.Fatalf("chunk %d: restored touch lists differ from the written ones", c)
					}
				}
			}

			// A delta at the graph's far end: in the sparse case most
			// groups never walked there and must be adopted.
			d := &graph.Delta{Add: []graph.Edge{{U: graph.Node(n - 2), V: graph.Node(n / 2)}}}
			if tc.g.HasEdge(d.Add[0].U, d.Add[0].V) {
				d.Add[0].V++
			}
			in2, dirty := applyDelta(t, in, d)
			gfp2 := GraphFingerprint(in2.Graph(), in2.Weights())
			lin.Advance(gfp2, dirty)
			e2 := New(in2)
			e2.Bind(lin, gfp2)
			loaded, err := OpenSession(e2, bytes.NewReader(data), 2)
			if err != nil {
				t.Fatal(err)
			}
			cold := New(in2).NewSession(41, 2)
			if _, err := cold.Pool(ctx, tc.l); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snapshotOf(t, loaded), snapshotOf(t, cold)) {
				t.Fatal("restored-and-repaired session differs from cold")
			}
			if !tc.dense && e2.RepairDrawsSaved() == 0 {
				t.Fatal("sparse restored lists adopted no group")
			}
		})
	}
}

// TestRegrowKeepsCompleteGroups: growing a session or p_max ledger past
// a partial trailing chunk draws only the incomplete touch group onward,
// and the grown state — touch lists included — equals a one-shot sample.
func TestRegrowKeepsCompleteGroups(t *testing.T) {
	ctx := context.Background()
	in := mustInstance(t, randomConnected(12, 300, 200), 0, 299)
	for _, sizes := range [][]int64{{100, 2000}, {64, 128, 1000, 3*ChunkSize + 5}, {2000, 2047, 2048}} {
		grown := New(in).NewSession(5, 2)
		pe := New(in).NewPmaxEstimator(5, 2)
		for _, l := range sizes {
			if _, err := grown.Pool(ctx, l); err != nil {
				t.Fatal(err)
			}
			pe.mu.Lock()
			err := pe.growLocked(ctx, l)
			pe.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		}
		last := sizes[len(sizes)-1]
		oneShot := New(in).NewSession(5, 2)
		if _, err := oneShot.Pool(ctx, last); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapshotOf(t, grown), snapshotOf(t, oneShot)) {
			t.Fatalf("sizes %v: grown session differs from one-shot", sizes)
		}
		mustLedgersEqual(t, pe, growLedger(t, New(in), 5, 2, last))
	}
}

// TestGroupMaskHelpers pins the touch-group arithmetic at chunk edges.
func TestGroupMaskHelpers(t *testing.T) {
	for _, tc := range []struct {
		n      int64
		groups int
	}{
		{1, 1}, {8, 1}, {9, 2}, {ChunkSize - 5, groupsPerChunk}, {ChunkSize, groupsPerChunk},
	} {
		all := groupsFrom(0, tc.n)
		count := 0
		for g := int64(0); g < groupsPerChunk; g++ {
			if all.has(g) {
				count++
			}
		}
		if count != tc.groups || !all.has(int64(tc.groups-1)) {
			t.Errorf("groupsFrom(0, %d) holds %d groups, want %d", tc.n, count, tc.groups)
		}
		if got := all.draws(tc.n); got != tc.n {
			t.Errorf("every group of %d draws holds %d draws", tc.n, got)
		}
	}
	last := groupsFrom(groupsPerChunk-1, ChunkSize-5)
	if got := last.draws(ChunkSize - 5); got != 3 {
		t.Errorf("partial last group holds %d draws, want 3", got)
	}
	var two groupSet
	two.add(0)
	two.add(40)
	if got := two.draws(ChunkSize); got != 2*GroupSize || two.empty() || (&groupSet{}).empty() == false {
		t.Errorf("two full groups hold %d draws", got)
	}
	if got := regrowGroups(touchList{}, 300, 500); got != groupsFrom(0, 500) {
		t.Error("unknown touch must re-draw every group")
	}
	if got, want := regrowGroups(touchList{Offsets: []uint32{0}}, 130, 200), groupsFrom(16, 200); got != want {
		t.Errorf("regrow 130→200 draws groups %v, want %v (the partial group 16 onward)", got, want)
	}
}

// TestTouchMaskDamaged: a sealed touch list is the sorted set of the
// nodes its group touched, whether the seal sorted the first-touch list
// or scanned the bitmap (with or without a list kept), and the damage of
// a dirty set is exactly the groups whose lists name one of its nodes;
// nodes beyond the recorded universe were never consulted, an unknown
// record damages every group, and a malformed list (empty, truncated, a
// zero gap, a node past the universe) counts as damaged.
func TestTouchMaskDamaged(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var sorted, scanned, listScanned bool
	for _, n := range []int{100, 2000, 70000, 200000} {
		const draws = 5*GroupSize + 3
		rec := getTouchRecord(n)
		tl := touchList{Offsets: []uint32{0}}
		var sets [][]graph.Node
		for g := 0; g*GroupSize < draws; g++ {
			set := map[graph.Node]bool{}
			for k, touches := 0, 1+r.Intn(250); k < touches; k++ {
				v := graph.Node(r.Intn(n))
				set[v] = true
				rec.Touch(v)
			}
			switch {
			case rec.List && sortCheaper(len(rec.Nodes), len(rec.Seen)):
				sorted = true
			case rec.List:
				listScanned = true
			default:
				scanned = true
			}
			want := slices.Sorted(maps.Keys(set))
			tl.Data = rec.seal(tl.Data)
			tl.Offsets = append(tl.Offsets, uint32(len(tl.Data)))
			if got := decodeList(t, tl.list(int64(g))); !slices.Equal(got, want) {
				t.Fatalf("n=%d group %d: sealed %v, want %v", n, g, got, want)
			}
			if slices.ContainsFunc(rec.Seen, func(w uint64) bool { return w != 0 }) || len(rec.Nodes) != 0 {
				t.Fatal("sealing left the record non-empty")
			}
			sets = append(sets, want)
		}
		touchRecords.Put(rec)
		for trial := 0; trial < 50; trial++ {
			dirty := []graph.Node{graph.Node(r.Intn(n)), graph.Node(r.Intn(n)), graph.Node(n + 5)}
			if trial%2 == 0 { // a node some group touched
				g := r.Intn(len(sets))
				dirty[0] = sets[g][r.Intn(len(sets[g]))]
			}
			slices.Sort(dirty)
			got := tl.damaged(dirty, draws, int64(n))
			for g, set := range sets {
				meets := slices.ContainsFunc(dirty, func(v graph.Node) bool { _, ok := slices.BinarySearch(set, v); return ok })
				if got.has(int64(g)) != meets {
					t.Fatalf("n=%d dirty %v: group %d damaged=%v, list meets=%v", n, dirty, g, got.has(int64(g)), meets)
				}
			}
		}
	}
	if !sorted || !scanned || !listScanned {
		t.Fatalf("seals sorted=%v scanned=%v listScanned=%v: every ordering must be exercised", sorted, scanned, listScanned)
	}
	if got := (touchList{}).damaged([]graph.Node{1}, 20, 100); got != groupsFrom(0, 20) {
		t.Fatalf("unknown record damaged %v, want every group", got)
	}
	for name, list := range map[string][]byte{
		"empty":           {},
		"truncated":       {0x85},
		"zero gap":        {3, 0, 2},
		"beyond universe": {99, 5},
	} {
		tl := touchList{Offsets: []uint32{0, uint32(len(list))}, Data: list}
		if got := tl.damaged([]graph.Node{150}, 4, 100); !got.has(0) {
			t.Errorf("%s list %x not counted as damaged", name, list)
		}
	}
}

// TestRepairRedrawsOnlyDamagedTouchGroups: on pools of the Wiki analog
// (the graph the serving benchmark uses), random one-edge and two-edge
// deltas re-draw exactly the touch groups whose lists name a dirty node.
// The set repair re-draws equals a brute-force decode-and-intersect of
// the old lists, RepairStats.DrawsResampled is those groups' draws, every
// adopted group keeps its paths and list byte for byte, and every
// re-drawn group's new list still meets the dirty set (a draw replays
// unchanged up to its first dirty node). The repaired pool is
// byte-identical to a cold one at Workers 1, 2 and 8.
func TestRepairRedrawsOnlyDamagedTouchGroups(t *testing.T) {
	ds, err := gen.DatasetByName("Wiki")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ds.Generate(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r := rand.New(rand.NewSource(32))
	n := g.NumNodes()
	meets := func(list []graph.Node, dirty []graph.Node) bool {
		return slices.ContainsFunc(dirty, func(v graph.Node) bool { _, ok := slices.BinarySearch(list, v); return ok })
	}
	var redrawnTotal, adoptedTotal int64
	for trial := 0; trial < 6; trial++ {
		in, err := ltm.NewInstance(g, weights.NewDegree(g), graph.Node(r.Intn(n)), graph.Node(r.Intn(n)))
		if err != nil {
			trial--
			continue
		}
		const l = ChunkSize + 2003
		workers := []int{1, 2, 8}[trial%3]
		old := New(in).NewSession(7, workers)
		if _, err := old.Pool(ctx, l); err != nil {
			t.Fatal(err)
		}
		in2, dirty := applyDelta(t, in, randomDelta(r, g, in.S(), in.T(), 1+trial%2, 0))
		slices.Sort(dirty)

		// Brute force: decode every old list and intersect it with dirty.
		want := make([]groupSet, len(old.chunks))
		var wantDraws int64
		for c, ch := range old.chunks {
			for gi := int64(0); gi*GroupSize < ch.draws; gi++ {
				if meets(decodeList(t, ch.touch.list(gi)), dirty) {
					want[c].add(gi)
				}
			}
			wantDraws += want[c].draws(ch.draws)
		}
		got, _, _ := damagedGroups(len(old.chunks), func(i int) (int64, touchList) {
			return old.chunks[i].draws, old.chunks[i].touch
		}, dirty, in2.Graph().NumNodes())
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: repair's damaged groups differ from the lists that meet %v", trial, dirty)
		}

		repaired, st, err := old.RepairTo(ctx, New(in2), dirty)
		if err != nil {
			t.Fatal(err)
		}
		if st.DrawsResampled != wantDraws || st.DrawsSaved != l-wantDraws {
			t.Fatalf("trial %d: stats %+v, want %d draws re-drawn of %d", trial, st, wantDraws, l)
		}
		redrawnTotal += wantDraws
		adoptedTotal += l - wantDraws
		for c, ch := range old.chunks {
			rc := repaired.chunks[c]
			for gi := int64(0); gi*GroupSize < ch.draws; gi++ {
				if want[c].has(gi) {
					if !meets(decodeList(t, rc.touch.list(gi)), dirty) {
						t.Fatalf("trial %d: re-drawn group %d/%d no longer meets %v", trial, c, gi, dirty)
					}
					continue
				}
				if !bytes.Equal(rc.touch.list(gi), ch.touch.list(gi)) ||
					!slices.Equal(groupPaths(rc, gi), groupPaths(ch, gi)) {
					t.Fatalf("trial %d: adopted group %d/%d changed", trial, c, gi)
				}
			}
		}
		snap := snapshotOf(t, repaired)
		for _, w := range []int{1, 2, 8} {
			cold := New(in2).NewSession(7, w)
			if _, err := cold.Pool(ctx, l); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap, snapshotOf(t, cold)) {
				t.Fatalf("trial %d: pool repaired at workers %d differs from cold at workers %d", trial, workers, w)
			}
		}
	}
	if redrawnTotal == 0 || adoptedTotal == 0 {
		t.Fatalf("re-drew %d and adopted %d draws: both kinds of group must occur", redrawnTotal, adoptedTotal)
	}
	t.Logf("re-drew %.2f%% of %d draws", 100*float64(redrawnTotal)/float64(redrawnTotal+adoptedTotal), redrawnTotal+adoptedTotal)
}

// groupPaths returns the paths of touch group g of chunk c, each
// prefixed by its draw index.
func groupPaths(c chunkPaths, g int64) []graph.Node {
	var out []graph.Node
	for j, d := range c.drawIdx {
		if int64(d)/GroupSize == g {
			out = append(out, graph.Node(-1-d))
			out = append(out, c.arena[c.offsets[j]:c.offsets[j+1]]...)
		}
	}
	return out
}
