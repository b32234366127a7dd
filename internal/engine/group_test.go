package engine

import (
	"bufio"
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// touchEqual reports whether two touch masks hold the same form and
// words.
func touchEqual(a, b touchMask) bool {
	return a.known() == b.known() && a.dense() == b.dense() &&
		slices.Equal(a.nodes, b.nodes) && slices.Equal(a.masks, b.masks)
}

// mustLedgersEqual compares two p_max ledgers chunk by chunk: draws,
// success positions and touch masks.
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

// TestGroupRepairMatchesCold: per-group repair leaves pools and p_max
// ledgers byte-identical — paths, success positions and touch masks —
// to cold ones sampled on the post-delta instance. Sizes end in a
// partial group (2000 = 31·64 + 16) and, at 4048 draws, in a partial
// second chunk; deltas are random one-edge adds and multi-edge add/remove
// mixes, some with an edge to a new node; every worker count must agree,
// and the repaired session's snapshot must load back. On a 600-node graph a delta
// damages some groups of a chunk but not all, so the splice of re-drawn
// groups between adopted ones is exercised, not just whole-chunk
// adoption or whole-chunk re-draw.
func TestGroupRepairMatchesCold(t *testing.T) {
	ctx := context.Background()
	var partial bool // some chunk had both adopted and re-drawn groups
	for _, l := range []int64{2000, ChunkSize + 2000} {
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
					// chunks' masks must be re-sealed for it.
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
					t.Fatalf("l=%d workers=%d trial=%d: repaired pool or touch masks differ from cold", l, workers, trial)
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

// TestTouchSnapshotDenseAndSparse: both stored forms of a chunk's touch
// masks survive a snapshot round trip unchanged, and a restored session
// repairs per group from them — adopting the groups a delta left alone,
// ending byte-identical to a cold session at the new epoch.
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
			if got := old.chunks[0].touch; !got.known() || got.dense() != tc.dense {
				t.Fatalf("chunk touch form: known=%v dense=%v, want dense=%v", got.known(), got.dense(), tc.dense)
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
				if !touchEqual(loaded.chunks[0].touch, old.chunks[0].touch) {
					t.Fatal("restored touch masks differ from the written ones")
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
				t.Fatal("sparse restored masks adopted no group")
			}
		})
	}
}

// TestRegrowKeepsCompleteGroups: growing a session or p_max ledger past
// a partial trailing chunk draws only the incomplete group onward, and
// the grown state — touch masks included — equals a one-shot sample.
func TestRegrowKeepsCompleteGroups(t *testing.T) {
	ctx := context.Background()
	in := mustInstance(t, randomConnected(12, 300, 200), 0, 299)
	for _, sizes := range [][]int64{{100, 2000}, {64, 128, 1000, ChunkSize + 5}, {2000, 2047, 2048}} {
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

// TestGroupMaskHelpers pins the group arithmetic at chunk edges.
func TestGroupMaskHelpers(t *testing.T) {
	for _, tc := range []struct {
		n     int64
		bits  uint32
		draws int64 // groupDraws of every group
	}{
		{1, 1, 1}, {64, 1, 64}, {65, 3, 65}, {2000, 1<<32 - 1, 2000}, {ChunkSize, 1<<32 - 1, ChunkSize},
	} {
		if got := groupBits(tc.n); got != tc.bits {
			t.Errorf("groupBits(%d) = %#x, want %#x", tc.n, got, tc.bits)
		}
		if got := groupDraws(^uint32(0), tc.n); got != tc.draws {
			t.Errorf("groupDraws(all, %d) = %d, want %d", tc.n, got, tc.draws)
		}
	}
	if got := groupDraws(1<<31, 2000); got != 2000-31*GroupSize {
		t.Errorf("partial last group holds %d draws, want %d", got, 2000-31*GroupSize)
	}
	if got := groupDraws(0b101, ChunkSize); got != 2*GroupSize {
		t.Errorf("two full groups hold %d draws", got)
	}
	if got := regrowGroups(touchMask{}, 1000, 2000); got != groupBits(2000) {
		t.Errorf("unknown touch must re-draw every group, got %#x", got)
	}
	if got := regrowGroups(touchMask{masks: []uint32{1}}, 130, 200); got != 0b1100 {
		t.Errorf("regrow 130→200 draws groups %#b, want 0b1100", got)
	}
}

// TestTouchMaskDamaged: in either stored form, the damage of a dirty set
// is exactly the OR of its nodes' recorded words; nodes beyond the
// recorded universe were never consulted, and an unknown mask damages
// every group. Nodes are touched in random order, and the sparse cases
// order them once by sorting the touch list and once by scanning the
// words.
func TestTouchMaskDamaged(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var sorted, scanned bool
	for _, touchedFrac := range []float64{0.9, 0.1, 0.01} {
		const n = 2000
		var b chunkBuf
		log := getTouchLog(n)
		for _, v := range r.Perm(n) {
			if r.Float64() < touchedFrac {
				log.Touch(graph.Node(v), r.Uint32()|1)
			}
		}
		if !log.Full {
			sorted = sorted || sortCheaper(len(log.Nodes), n)
			scanned = scanned || !sortCheaper(len(log.Nodes), n)
		}
		words := slices.Clone(log.Mask)
		tm := b.sealTouch(log)
		if tm.dense() != (touchedFrac > 0.5) {
			t.Fatalf("touched fraction %v sealed dense=%v", touchedFrac, tm.dense())
		}
		if !tm.dense() && slices.ContainsFunc(log.Mask, func(w uint32) bool { return w != 0 }) {
			t.Fatal("sealing the sparse form left words set in the pooled record")
		}
		for v := range words {
			if got := tm.damaged([]graph.Node{graph.Node(v)}); got != words[v] {
				t.Fatalf("dense=%v node %d: damaged %#x, want %#x", tm.dense(), v, got, words[v])
			}
		}
		dirty := []graph.Node{3, 77, 150, n + 5}
		if got, want := tm.damaged(dirty), words[3]|words[77]|words[150]; got != want {
			t.Fatalf("dense=%v: damaged(%v) = %#x, want %#x", tm.dense(), dirty, got, want)
		}
		log = getTouchLog(n + 10)
		dst := log.Mask
		tm.orInto(log, 0xff)
		for v := range dst {
			if want := uint32(0); v < n {
				want = words[v] & 0xff
				if dst[v] != want {
					t.Fatalf("dense=%v orInto node %d: %#x, want %#x", tm.dense(), v, dst[v], want)
				}
			} else if dst[v] != 0 {
				t.Fatalf("orInto wrote past the recorded universe at %d", v)
			}
		}
	}
	if !sorted || !scanned {
		t.Fatalf("sparse forms sorted=%v scanned=%v: both orderings must be exercised", sorted, scanned)
	}
	if got := (touchMask{}).damaged([]graph.Node{1}); got != ^uint32(0) {
		t.Fatalf("unknown mask damaged %#x, want every group", got)
	}
}
