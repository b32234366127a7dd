package engine

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ltm"
	"repro/internal/weights"
)

// randomDelta builds a delta of nAdd new edges and nRemove existing ones
// on g, avoiding self-loops, duplicates, and the (s, t) pair itself (a
// delta that makes s and t adjacent dissolves the instance — tested
// separately at the server layer).
func randomDelta(r *rand.Rand, g *graph.Graph, s, t graph.Node, nAdd, nRemove int) *graph.Delta {
	n := g.NumNodes()
	d := &graph.Delta{}
	for len(d.Add) < nAdd {
		u, v := graph.Node(r.Intn(n)), graph.Node(r.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if (u == s && v == t) || (u == t && v == s) {
			continue
		}
		d.Add = append(d.Add, graph.Edge{U: u, V: v})
	}
	edges := g.Edges()
	for len(d.Remove) < nRemove && len(edges) > 0 {
		e := edges[r.Intn(len(edges))]
		d.Remove = append(d.Remove, e)
	}
	return d
}

// applyDelta produces the epoch-N+1 instance (and its dirty set) or
// fails the test.
func applyDelta(t *testing.T, in *ltm.Instance, d *graph.Delta) (*ltm.Instance, []graph.Node) {
	t.Helper()
	g2, dirty, err := d.Apply(in.Graph())
	if err != nil {
		t.Fatal(err)
	}
	in2, err := ltm.NewInstance(g2, weights.NewDegree(g2), in.S(), in.T())
	if err != nil {
		t.Fatal(err)
	}
	return in2, dirty
}

// TestRepairToIdentity is the tentpole invariant: a repaired pool —
// undamaged chunks adopted, damaged chunks resampled under the original
// (seed, ns, chunk) streams — is byte-identical to a cold pool sampled
// on the post-delta instance, for any worker count, and stays identical
// through truncated views and subsequent growth.
func TestRepairToIdentity(t *testing.T) {
	ctx := context.Background()
	const l = 3*ChunkSize + 700
	for _, workers := range []int{1, 2, 8} {
		for trial := int64(0); trial < 4; trial++ {
			r := rand.New(rand.NewSource(100*int64(workers) + trial))
			g := randomConnected(3+trial, 40, 60)
			if g.HasEdge(0, 39) {
				continue
			}
			in := mustInstance(t, g, 0, 39)
			old := New(in).NewSession(11, workers)
			if _, err := old.Pool(ctx, l); err != nil {
				t.Fatal(err)
			}

			in2, dirty := applyDelta(t, in, randomDelta(r, g, 0, 39, 2, 2))
			ne := New(in2)
			repaired, st, err := old.RepairTo(ctx, ne, dirty)
			if err != nil {
				t.Fatal(err)
			}
			if st.Chunks != 4 || st.DrawsResampled+st.DrawsSaved != l {
				t.Fatalf("workers=%d trial=%d: stats %+v, want 4 chunks covering %d draws", workers, trial, st, l)
			}
			if got := ne.RepairDrawsResampled(); got != st.DrawsResampled {
				t.Fatalf("engine repair ledger %d, want %d", got, st.DrawsResampled)
			}

			cold := New(in2).NewSession(11, workers)
			want, err := cold.Pool(ctx, l)
			if err != nil {
				t.Fatal(err)
			}
			got, err := repaired.Pool(ctx, l)
			if err != nil {
				t.Fatal(err)
			}
			mustPoolsEqual(t, got, want)

			// Truncated views, snapshots, and subsequent growth must all
			// behave as if the repaired session had been sampled cold.
			gv, err := repaired.Pool(ctx, l/2)
			if err != nil {
				t.Fatal(err)
			}
			wv, err := cold.Pool(ctx, l/2)
			if err != nil {
				t.Fatal(err)
			}
			mustPoolsEqual(t, gv, wv)
			if !bytes.Equal(snapshotOf(t, repaired), snapshotOf(t, cold)) {
				t.Fatalf("workers=%d trial=%d: repaired snapshot differs from cold", workers, trial)
			}
			const grown = l + ChunkSize + 13
			gg, err := repaired.Pool(ctx, grown)
			if err != nil {
				t.Fatal(err)
			}
			wg, err := cold.Pool(ctx, grown)
			if err != nil {
				t.Fatal(err)
			}
			mustPoolsEqual(t, gg, wg)
		}
	}
}

// TestRepairToSavesDraws picks a delta whose dirty nodes are the rarest
// in the pool's touch sets, so at least one chunk must be adopted
// verbatim and the repair bill is strictly below discard-and-resample.
func TestRepairToSavesDraws(t *testing.T) {
	ctx := context.Background()
	g := randomConnected(17, 4000, 1500)
	in := mustInstance(t, g, 0, 3999)
	const l = 4 * ChunkSize
	old := New(in).NewSession(23, 4)
	if _, err := old.Pool(ctx, l); err != nil {
		t.Fatal(err)
	}

	// Count per-node chunk appearances and find a pair of nodes missing
	// from at least one common chunk; an edge flip between them damages
	// only the chunks that consulted either endpoint.
	appears := make([]int, g.NumNodes())
	for _, c := range old.chunks {
		for v := range appears {
			if c.touch.damaged([]graph.Node{graph.Node(v)}) != 0 {
				appears[v]++
			}
		}
	}
	var u, v graph.Node = -1, -1
	for cand := graph.Node(1); cand < graph.Node(g.NumNodes()); cand++ {
		if appears[cand] < len(old.chunks) && cand != 3999 {
			if u < 0 {
				u = cand
			} else if !g.HasEdge(u, cand) {
				v = cand
				break
			}
		}
	}
	if v < 0 {
		t.Skip("no sparse node pair found")
	}
	d := &graph.Delta{Add: []graph.Edge{{U: u, V: v}}}
	in2, dirty := applyDelta(t, in, d)
	repaired, st, err := old.RepairTo(ctx, New(in2), dirty)
	if err != nil {
		t.Fatal(err)
	}
	if st.DrawsSaved <= 0 {
		t.Fatalf("sparse delta saved no draws: %+v", st)
	}
	if st.DrawsResampled >= l {
		t.Fatalf("sparse delta resampled everything: %+v", st)
	}
	want, err := New(in2).NewSession(23, 4).Pool(ctx, l)
	if err != nil {
		t.Fatal(err)
	}
	got, err := repaired.Pool(ctx, l)
	if err != nil {
		t.Fatal(err)
	}
	mustPoolsEqual(t, got, want)
}

// TestPmaxRepairToIdentity: a repaired p_max ledger matches a cold
// ledger drawn on the post-delta instance — same draws, same success
// positions — so every stopping-rule answer is preserved or correctly
// revised.
func TestPmaxRepairToIdentity(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(9))
	g := randomConnected(5, 40, 60)
	if g.HasEdge(0, 39) {
		t.Skip("adjacent s,t")
	}
	in := mustInstance(t, g, 0, 39)
	const l = 3*ChunkSize + 100
	pe := New(in).NewPmaxEstimator(31, 4)
	pe.mu.Lock()
	err := pe.growLocked(ctx, l)
	pe.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	in2, dirty := applyDelta(t, in, randomDelta(r, g, 0, 39, 2, 1))
	ne := New(in2)
	repaired, st, err := pe.RepairTo(ctx, ne, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if st.DrawsResampled+st.DrawsSaved != l {
		t.Fatalf("stats %+v do not cover %d draws", st, l)
	}

	cold := New(in2).NewPmaxEstimator(31, 4)
	cold.mu.Lock()
	err = cold.growLocked(ctx, l)
	cold.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if repaired.Draws() != cold.Draws() || repaired.Successes() != cold.Successes() {
		t.Fatalf("repaired ledger %d/%d, cold %d/%d",
			repaired.Draws(), repaired.Successes(), cold.Draws(), cold.Successes())
	}
	for i := range cold.chunks {
		a, b := repaired.chunks[i], cold.chunks[i]
		if a.draws != b.draws || len(a.succ) != len(b.succ) {
			t.Fatalf("chunk %d geometry differs", i)
		}
		for j := range a.succ {
			if a.succ[j] != b.succ[j] {
				t.Fatalf("chunk %d success %d: %d vs %d", i, j, a.succ[j], b.succ[j])
			}
		}
	}
}

// TestSnapshotAdoptAndRepair: an epoch-N snapshot restored into an
// engine bound to the epoch-N+1 lineage is adopted and repaired — the
// resulting session answers exactly like a cold one — instead of being
// rejected for its stale fingerprint.
func TestSnapshotAdoptAndRepair(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(77))
	g := randomConnected(21, 40, 60)
	if g.HasEdge(0, 39) {
		t.Skip("adjacent s,t")
	}
	in := mustInstance(t, g, 0, 39)
	const l = 2*ChunkSize + 300

	gfp1 := GraphFingerprint(g, in.Weights())
	lin := NewLineage(gfp1)
	e1 := New(in)
	e1.Bind(lin, gfp1)
	old := e1.NewSession(41, 2)
	if _, err := old.Pool(ctx, l); err != nil {
		t.Fatal(err)
	}
	data := snapshotOf(t, old)

	in2, dirty := applyDelta(t, in, randomDelta(r, g, 0, 39, 1, 1))
	gfp2 := GraphFingerprint(in2.Graph(), in2.Weights())
	lin.Advance(gfp2, dirty)

	e2 := New(in2)
	e2.Bind(lin, gfp2)
	loaded, err := OpenSession(e2, bytes.NewReader(data), 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(in2).NewSession(41, 2).Pool(ctx, l)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Pool(ctx, l)
	if err != nil {
		t.Fatal(err)
	}
	mustPoolsEqual(t, got, want)
	if e2.RepairChunksResampled() == 0 && len(dirty) > 0 {
		// A delta that dirties nodes no chunk touched is possible but
		// vanishingly unlikely on a 40-node graph; treat zero resamples
		// with a damaged lineage as suspicious only when repair claims
		// to have examined nothing.
		if e2.RepairDrawsSaved() == 0 {
			t.Fatal("adopt-and-repair examined no chunks")
		}
	}

	// Without a bound lineage the same stale snapshot must be rejected
	// with the instance-mismatch sentinel.
	if _, err := OpenSession(New(in2), bytes.NewReader(data), 2); !errors.Is(err, ErrInstanceMismatch) {
		t.Fatalf("unbound engine: err = %v, want ErrInstanceMismatch", err)
	}

	// A two-epoch gap unions the dirty sets: snapshot at epoch N restored
	// at epoch N+2.
	in3, dirty2 := applyDelta(t, in2, randomDelta(r, in2.Graph(), 0, 39, 1, 1))
	gfp3 := GraphFingerprint(in3.Graph(), in3.Weights())
	lin.Advance(gfp3, dirty2)
	e3 := New(in3)
	e3.Bind(lin, gfp3)
	loaded3, err := OpenSession(e3, bytes.NewReader(data), 2)
	if err != nil {
		t.Fatal(err)
	}
	want3, err := New(in3).NewSession(41, 2).Pool(ctx, l)
	if err != nil {
		t.Fatal(err)
	}
	got3, err := loaded3.Pool(ctx, l)
	if err != nil {
		t.Fatal(err)
	}
	mustPoolsEqual(t, got3, want3)
}

// TestSnapshotAdoptUniverseGrowth: a delta may add nodes; an ancestor
// snapshot with the smaller universe is still adopted (dirty nodes
// damage its chunks as usual), while a snapshot from a LARGER universe
// than the engine's is rejected. Live repair and adopt-on-load both end
// byte-identical — touch masks included — to a cold session at the new
// epoch, and the repaired session's own snapshot loads back. The deltas
// cover an edge to one new node, and edges between new nodes only, which
// damage no group: every chunk is adopted whole into a universe that
// grew by a little (its dense masks gain words) or by a lot (they no
// longer cover half the nodes and must turn sparse).
func TestSnapshotAdoptUniverseGrowth(t *testing.T) {
	ctx := context.Background()
	g := randomConnected(34, 30, 40)
	if g.HasEdge(0, 29) {
		t.Skip("adjacent s,t")
	}
	in := mustInstance(t, g, 0, 29)
	const l = ChunkSize + 50

	gfp1 := GraphFingerprint(g, in.Weights())
	e1 := New(in)
	old := e1.NewSession(51, 1)
	if _, err := old.Pool(ctx, l); err != nil {
		t.Fatal(err)
	}
	if !old.chunks[0].touch.dense() {
		t.Fatal("30-node chunk touch mask is not dense; the growth cases test nothing")
	}
	pe := growLedger(t, e1, 51, 1, l)
	data := snapshotOf(t, old)

	for _, tc := range []struct {
		name string
		add  graph.Edge
		n    int
	}{
		{"edge to new node", graph.Edge{U: 5, V: 30}, 31},
		{"new nodes pad dense", graph.Edge{U: 30, V: 31}, 32},
		{"new nodes turn sparse", graph.Edge{U: 30, V: 99}, 100},
	} {
		in2, dirty := applyDelta(t, in, &graph.Delta{Add: []graph.Edge{tc.add}})
		if in2.Graph().NumNodes() != tc.n {
			t.Fatalf("%s: universe = %d, want %d", tc.name, in2.Graph().NumNodes(), tc.n)
		}
		gfp2 := GraphFingerprint(in2.Graph(), in2.Weights())
		lin := NewLineage(gfp1)
		lin.Advance(gfp2, dirty)
		e2 := New(in2)
		e2.Bind(lin, gfp2)
		cold := New(in2).NewSession(51, 1)
		if _, err := cold.Pool(ctx, l); err != nil {
			t.Fatal(err)
		}
		want := snapshotOf(t, cold)

		loaded, err := OpenSession(e2, bytes.NewReader(data), 1)
		if err != nil {
			t.Fatal(err)
		}
		live, _, err := old.RepairTo(ctx, New(in2), dirty)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Session{loaded, live} {
			got := snapshotOf(t, s)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: repaired session's snapshot differs from cold", tc.name)
			}
			back, err := OpenSession(e2, bytes.NewReader(got), 1)
			if err != nil {
				t.Fatalf("%s: repaired session's snapshot does not load: %v", tc.name, err)
			}
			if !bytes.Equal(snapshotOf(t, back), want) {
				t.Fatalf("%s: reloaded snapshot differs from cold", tc.name)
			}
		}
		rpe, _, err := pe.RepairTo(ctx, New(in2), dirty)
		if err != nil {
			t.Fatal(err)
		}
		mustLedgersEqual(t, rpe, growLedger(t, New(in2), 51, 1, l))
	}

	in2, dirty := applyDelta(t, in, &graph.Delta{Add: []graph.Edge{{U: 5, V: 30}}})
	gfp2 := GraphFingerprint(in2.Graph(), in2.Weights())
	lin := NewLineage(gfp1)
	lin.Advance(gfp2, dirty)
	e1.Bind(lin, gfp1)
	e2 := New(in2)
	e2.Bind(lin, gfp2)

	// The reverse direction — an epoch-N+1 snapshot into the epoch-N
	// engine — must be refused even though the fingerprint is in the
	// lineage story: its universe exceeds the engine's graph.
	big := e2.NewSession(51, 1)
	if _, err := big.Pool(ctx, l); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSession(e1, bytes.NewReader(snapshotOf(t, big)), 1); !errors.Is(err, ErrInstanceMismatch) {
		t.Fatalf("larger-universe snapshot: err = %v, want ErrInstanceMismatch", err)
	}
}
