package server

import (
	"context"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/weights"
)

// testDelta builds a delta on g that dissolves none of the given pairs:
// it adds nAdd new edges between nodes that form no tested pair and
// removes nRemove existing edges whose endpoints keep degree ≥ 3.
func testDelta(t *testing.T, g *graph.Graph, pairs []pairKey, nAdd, nRemove int) *graph.Delta {
	t.Helper()
	tested := make(map[pairKey]bool, len(pairs))
	for _, pk := range pairs {
		tested[pk] = true
		tested[pairKey{pk.t, pk.s}] = true
	}
	r := rand.New(rand.NewSource(99))
	n := g.NumNodes()
	d := &graph.Delta{}
	for tries := 0; len(d.Add) < nAdd && tries < 10000; tries++ {
		u, v := graph.Node(r.Intn(n)), graph.Node(r.Intn(n))
		if u == v || g.HasEdge(u, v) || tested[pairKey{u, v}] {
			continue
		}
		d.Add = append(d.Add, graph.Edge{U: u, V: v})
	}
	for _, e := range g.Edges() {
		if len(d.Remove) >= nRemove {
			break
		}
		if g.Degree(e.U) >= 3 && g.Degree(e.V) >= 3 {
			d.Remove = append(d.Remove, e)
		}
	}
	if len(d.Add) < nAdd || len(d.Remove) < nRemove {
		t.Fatalf("could not build test delta (%d adds, %d removes)", len(d.Add), len(d.Remove))
	}
	return d
}

// TestApplyDeltaMatchesColdServer is the serving layer's repair-identity
// claim: after ApplyDelta, a warmed server answers every query exactly
// like a server built cold on the post-delta graph — migration by
// repair changes no answer, it only saves draws.
func TestApplyDeltaMatchesColdServer(t *testing.T) {
	ctx := context.Background()
	g := testGraph(40, 50)
	pairs := validPairs(g, 8)
	if len(pairs) < 6 {
		t.Fatalf("only %d valid pairs", len(pairs))
	}
	d := testDelta(t, g, pairs, 2, 2)
	g2, _, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}

	warm := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2})
	queryAll(t, warm, pairs, 1) // populate pair pools at epoch 1
	res, err := warm.ApplyDelta(ctx, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PairsMigrated == 0 || len(res.Dirty) == 0 {
		t.Fatalf("delta migrated nothing: %+v", res)
	}
	if warm.Epochs() != 2 {
		t.Fatalf("Epochs = %d, want 2", warm.Epochs())
	}

	cold := New(g2, weights.NewDegree(g2), Config{Seed: 7, Workers: 2})
	want := queryAll(t, cold, pairs, 2)
	got := queryAll(t, warm, pairs, 2)
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("answer %d diverged after delta:\n got %s\nwant %s", i, got[i], want[i])
			}
		}
	}

	st := warm.Stats()
	if st.DeltasApplied != 1 || st.PoolsRepaired == 0 {
		t.Fatalf("repair not ledgered: %+v", st)
	}
	if st.RepairDrawsResampled+st.RepairDrawsSaved == 0 {
		t.Fatalf("repair examined no draws: %+v", st)
	}
}

// TestApplyDeltaNoOp: a delta that changes nothing (re-adding present
// edges, removing absent ones) advances no epoch and touches no pair.
func TestApplyDeltaNoOp(t *testing.T) {
	g := testGraph(30, 30)
	sv := New(g, weights.NewDegree(g), Config{Seed: 3, Workers: 1})
	absent := validPairs(g, 1) // non-adjacent pair: removing its edge is a no-op
	if len(absent) == 0 {
		t.Fatal("no absent edge")
	}
	res, err := sv.ApplyDelta(context.Background(), &graph.Delta{
		Add:    []graph.Edge{g.Edges()[0]},
		Remove: []graph.Edge{{U: absent[0].s, V: absent[0].t}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dirty) != 0 || res.PairsMigrated != 0 {
		t.Fatalf("no-op delta did something: %+v", res)
	}
	if sv.Epochs() != 1 || sv.Stats().DeltasApplied != 0 {
		t.Fatalf("no-op delta advanced the epoch")
	}
}

// TestApplyDeltaRejectsUnsupported: a delta carrying weight updates, or
// one sent to a server whose scheme is not degree-normalized, fails with
// nothing changed — no epoch, no counter, no cached pair touched — so a
// following query answers byte-identically to a server that never saw
// the call. The update names a node past the graph, which must not
// reach any node set.
func TestApplyDeltaRejectsUnsupported(t *testing.T) {
	ctx := context.Background()
	g := testGraph(40, 50)
	pairs := validPairs(g, 4)
	d := testDelta(t, g, pairs, 2, 1)
	uniform := func(g *graph.Graph) weights.Scheme {
		w, err := weights.NewUniform(g, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	degree := func(g *graph.Graph) weights.Scheme { return weights.NewDegree(g) }
	for _, tc := range []struct {
		name    string
		scheme  func(*graph.Graph) weights.Scheme
		updates []weights.EdgeWeight
	}{
		{"weight-updates", degree, []weights.EdgeWeight{{U: 0, V: graph.Node(10 * g.NumNodes()), WUV: 0.5, WVU: 0.5}}},
		{"uniform-scheme", uniform, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sv := New(g, tc.scheme(g), Config{Seed: 5, Workers: 2})
			control := New(g, tc.scheme(g), Config{Seed: 5, Workers: 2})
			queryAll(t, sv, pairs, 1)
			queryAll(t, control, pairs, 1)
			before := sv.Stats()
			res, err := sv.ApplyDelta(ctx, d, tc.updates)
			if err == nil {
				t.Fatalf("ApplyDelta accepted the call: %+v", res)
			}
			if sv.Epochs() != 1 {
				t.Fatalf("Epochs = %d after a rejected delta, want 1", sv.Epochs())
			}
			if after := sv.Stats(); !reflect.DeepEqual(after, before) {
				t.Fatalf("Stats changed by a rejected delta:\n got %+v\nwant %+v", after, before)
			}
			got := queryAll(t, sv, pairs, 1)
			want := queryAll(t, control, pairs, 1)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("answers after a rejected delta diverged:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// lruKeys lists the cached pairs from most to least recently used.
func lruKeys(sv *Server) []pairKey {
	sv.lruMu.Lock()
	defer sv.lruMu.Unlock()
	var out []pairKey
	for el := sv.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).key)
	}
	return out
}

// TestApplyDeltaKeepsLRUOrder: a migrated pair takes over its old
// entry's LRU slot, so a delta neither counts as a use nor lets the
// pair walk's map-iteration order reshuffle eviction order. Servers fed
// one query and delta sequence under an eviction budget therefore end
// with identical counters, whether the walk migrates one pair at a time
// or many at once.
func TestApplyDeltaKeepsLRUOrder(t *testing.T) {
	ctx := context.Background()
	g := testGraph(40, 50)
	pairs := validPairs(g, 10)
	if len(pairs) < 10 {
		t.Fatalf("only %d valid pairs", len(pairs))
	}
	d := testDelta(t, g, pairs, 2, 2)
	query := func(sv *Server, pk pairKey) {
		if _, err := sv.Pmax(ctx, pk.s, pk.t, 3000); err != nil {
			t.Fatal(err)
		}
	}
	// Size the budget to hold about six of the ten pairs. One shard puts
	// every pair in the map the delta walk iterates.
	probe := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1})
	query(probe, pairs[0])
	budget := 6 * probe.Stats().BytesHeld

	run := func(workers int) Stats {
		sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: workers, Shards: 1, MaxPoolBytes: budget})
		for _, pk := range pairs {
			query(sv, pk)
		}
		before := lruKeys(sv)
		if len(before) < 3 || len(before) == len(pairs) {
			t.Fatalf("budget keeps %d of %d pairs; want some evicted, several cached", len(before), len(pairs))
		}
		res, err := sv.ApplyDelta(ctx, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.PairsMigrated != len(before) {
			t.Fatalf("delta migrated %d of %d cached pairs", res.PairsMigrated, len(before))
		}
		if after := lruKeys(sv); !reflect.DeepEqual(after, before) {
			t.Fatalf("LRU order changed across the delta:\n got %v\nwant %v", after, before)
		}
		// Replay the warm-up order: it starts with uncached pairs, so its
		// first misses evict by the post-delta LRU order.
		for _, pk := range pairs {
			query(sv, pk)
		}
		for i := len(pairs) - 1; i >= 0; i-- {
			query(sv, pairs[i])
		}
		return sv.Stats()
	}
	first := run(1)
	if first.SessionsEvicted == 0 {
		t.Fatal("no evictions: the budget does not bind")
	}
	for i, workers := range []int{1, 8, 1, 8} {
		if got := run(workers); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d (Workers %d) stats differ:\n got %+v\nwant %+v", i+1, workers, got, first)
		}
	}
}

// staleEntries counts cached pairs not at the server's current epoch.
// After ApplyDelta returns it must be zero: a stale entry would be
// served as a hit with pre-delta answers.
func staleEntries(sv *Server) int {
	head := sv.gen.Load()
	n := 0
	for i := range sv.shards {
		sh := &sv.shards[i]
		sh.mu.Lock()
		for _, e := range sh.m {
			if e.gen != head {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// TestApplyDeltaCancelledContext: a delta under an already-cancelled
// context either changes nothing or completes. It must never commit the
// epoch and then leave pairs cached at the old one, answering as hits
// with pre-delta results.
func TestApplyDeltaCancelledContext(t *testing.T) {
	g := testGraph(40, 50)
	pairs := validPairs(g, 8)
	if len(pairs) < 6 {
		t.Fatalf("only %d valid pairs", len(pairs))
	}
	d := testDelta(t, g, pairs, 2, 2)
	g2, _, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}

	sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2})
	queryAll(t, sv, pairs, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sv.ApplyDelta(ctx, d, nil)
	if n := staleEntries(sv); n != 0 {
		t.Fatalf("%d pairs left at the old epoch (ApplyDelta err %v)", n, err)
	}
	want := g2
	if sv.Epochs() == 1 {
		if err == nil {
			t.Fatal("cancelled delta neither advanced the epoch nor failed")
		}
		want = g
	}
	cold := New(want, weights.NewDegree(want), Config{Seed: 7, Workers: 2})
	if got, exp := queryAll(t, sv, pairs, 2), queryAll(t, cold, pairs, 2); !reflect.DeepEqual(got, exp) {
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("answer %d differs from a cold server at epoch %d:\n got %s\nwant %s", i, sv.Epochs(), got[i], exp[i])
			}
		}
	}
}

// TestApplyDeltaContainsMigrationPanic: a panic while one pair is
// repaired stays with that pair. ApplyDelta returns normally, every
// other pair is at the new epoch, the panic is counted, and the broken
// pair is dropped, so it answers cold — like every other pair, exactly
// as a server built on the new graph would.
func TestApplyDeltaContainsMigrationPanic(t *testing.T) {
	g := testGraph(40, 50)
	pairs := validPairs(g, 6)
	d := testDelta(t, g, pairs, 2, 2)
	g2, _, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	want := queryAll(t, New(g2, weights.NewDegree(g2), Config{Seed: 7, Workers: 2}), pairs, 1)
	for _, workers := range []int{1, 2} {
		sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: workers})
		queryAll(t, sv, pairs, 1)
		// A zero session has no pools: repairing them dereferences nil.
		broken := pairs[len(pairs)/2]
		sh := sv.shardFor(broken)
		sh.mu.Lock()
		sh.m[broken].sess = new(core.Session)
		sh.mu.Unlock()

		res, err := sv.ApplyDelta(context.Background(), d, nil)
		if err != nil {
			t.Fatalf("workers=%d: ApplyDelta: %v", workers, err)
		}
		if res.PairsMigrated != len(pairs)-1 || res.PairsDropped != 0 {
			t.Errorf("workers=%d: migrated %d, dropped %d; want %d and 0", workers, res.PairsMigrated, res.PairsDropped, len(pairs)-1)
		}
		if n := staleEntries(sv); n != 0 {
			t.Fatalf("workers=%d: %d pairs left at the old epoch", workers, n)
		}
		st := sv.Stats()
		if st.Panics != 1 {
			t.Errorf("workers=%d: Stats.Panics = %d, want 1", workers, st.Panics)
		}
		sh.mu.Lock()
		_, cached := sh.m[broken]
		sh.mu.Unlock()
		if cached {
			t.Fatalf("workers=%d: the panicking pair is still cached", workers)
		}
		if got := queryAll(t, sv, pairs, 1); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: answers after the contained panic differ from a cold server on the new graph", workers)
		}
		if created := sv.Stats().SessionsCreated - st.SessionsCreated; created != 1 {
			t.Errorf("workers=%d: queries after the delta created %d sessions, want 1 (the broken pair, cold)", workers, created)
		}
	}
}

// TestApplyDeltaWorkerIdentity: the migration walk's outcome does not
// depend on how many pairs it migrates at once. For every worker count
// the same warmed server, including a spilled pair the delta dissolves,
// reports the same DeltaResult and Stats, keeps the same LRU order, and
// then answers like a cold server at the new epoch.
func TestApplyDeltaWorkerIdentity(t *testing.T) {
	ctx := context.Background()
	g := testGraph(40, 50)
	pairs := validPairs(g, 8)
	if len(pairs) < 6 {
		t.Fatalf("only %d valid pairs", len(pairs))
	}
	victim := pairs[0]
	d := testDelta(t, g, pairs, 2, 2)
	d.Add = append(d.Add, graph.Edge{U: victim.s, V: victim.t})
	g2, _, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	cold := New(g2, weights.NewDegree(g2), Config{Seed: 7, Workers: 2})
	want := queryAll(t, cold, pairs, 1)

	type outcome struct {
		res   DeltaResult
		stats Stats
		lru   []pairKey
	}
	var first outcome
	for i, workers := range []int{1, 2, 8} {
		sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: workers, SpillDir: t.TempDir()})
		queryAll(t, sv, pairs, 1)
		if err := sv.SpillAll(); err != nil {
			t.Fatal(err)
		}
		res, err := sv.ApplyDelta(ctx, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.PairsDropped != 1 || res.PairsMigrated != len(pairs)-1 {
			t.Fatalf("Workers %d: migrated %d, dropped %d of %d pairs", workers, res.PairsMigrated, res.PairsDropped, len(pairs))
		}
		if n := staleEntries(sv); n != 0 {
			t.Fatalf("Workers %d: %d pairs left at the old epoch", workers, n)
		}
		got := outcome{res: *res, stats: sv.Stats(), lru: lruKeys(sv)}
		if i == 0 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("Workers %d differs from Workers 1:\n got %+v\nwant %+v", workers, got, first)
		}
		if answers := queryAll(t, sv, pairs, 1); !reflect.DeepEqual(answers, want) {
			t.Fatalf("Workers %d: post-delta answers differ from a cold server", workers)
		}
	}
}

// TestApplyDeltaDissolvesPair: a delta that makes a served pair's (s,t)
// adjacent drops the pair — its problem is solved — and later queries
// for it fail cleanly at instance validation.
func TestApplyDeltaDissolvesPair(t *testing.T) {
	ctx := context.Background()
	g := testGraph(40, 50)
	pairs := validPairs(g, 4)
	if len(pairs) < 2 {
		t.Fatal("not enough pairs")
	}
	dir := t.TempDir()
	sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1, SpillDir: dir})
	victim := pairs[0]
	if _, err := sv.Pmax(ctx, victim.s, victim.t, 2000); err != nil {
		t.Fatal(err)
	}
	if err := sv.SpillAll(); err != nil {
		t.Fatal(err)
	}
	spill := sv.spillPath(victim)
	if _, err := os.Stat(spill); err != nil {
		t.Fatalf("victim pair has no spill file: %v", err)
	}

	res, err := sv.ApplyDelta(ctx, &graph.Delta{Add: []graph.Edge{{U: victim.s, V: victim.t}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PairsDropped == 0 {
		t.Fatalf("dissolved pair not dropped: %+v", res)
	}
	if _, err := os.Stat(spill); !os.IsNotExist(err) {
		t.Fatalf("dissolved pair's spill file survived: %v", err)
	}
	if _, err := sv.Pair(victim.s, victim.t); err == nil {
		t.Fatal("dissolved pair still acquirable")
	}
	st := sv.Stats()
	if st.PairsDropped == 0 {
		t.Fatalf("drop not ledgered: %+v", st)
	}
	if st.SessionsLive != int(st.SessionsCreated-st.SessionsEvicted) {
		t.Fatalf("session invariant broken after drop: %+v", st)
	}
}

// TestApplyDeltaAdoptsSpillFiles: spill files written at epoch N are
// adopted and repaired when loaded at epoch N+1 — a restarted (or
// evict-heavy) server carries its disk tier across graph mutations
// instead of discarding it.
func TestApplyDeltaAdoptsSpillFiles(t *testing.T) {
	ctx := context.Background()
	g := testGraph(40, 60)
	pairs := validPairs(g, 6)
	if len(pairs) < 4 {
		t.Fatal("not enough pairs")
	}
	d := testDelta(t, g, pairs, 1, 1)
	g2, _, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	first := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2, SpillDir: dir})
	queryAll(t, first, pairs, 1)
	if err := first.SpillAll(); err != nil {
		t.Fatal(err)
	}

	// A successor process: same seed and spill dir, original graph, then
	// the delta lands before any pair is touched — every spill file on
	// disk is now one epoch stale.
	sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2, SpillDir: dir})
	if _, err := sv.ApplyDelta(ctx, d, nil); err != nil {
		t.Fatal(err)
	}
	got := queryAll(t, sv, pairs, 2)

	cold := New(g2, weights.NewDegree(g2), Config{Seed: 7, Workers: 2})
	want := queryAll(t, cold, pairs, 2)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("answers from adopted+repaired spill files differ from cold")
	}

	st := sv.Stats()
	if st.SpillLoads == 0 {
		t.Fatalf("stale spill files were not loaded: %+v", st)
	}
	if st.SpillLoadErrors != 0 {
		t.Fatalf("stale spill files were rejected instead of adopted: %+v", st)
	}
	if st.PoolsRepaired == 0 || st.RepairDrawsResampled+st.RepairDrawsSaved == 0 {
		t.Fatalf("spill adoption repaired nothing: %+v", st)
	}
}

// TestSpillAfterUniverseGrowth: a delta that adds nodes — here an edge
// between two new nodes, which damages no draw group, so every chunk is
// adopted whole — leaves repaired pairs whose spill files a successor at
// the new epoch loads without error, answering exactly like a cold
// server.
func TestSpillAfterUniverseGrowth(t *testing.T) {
	ctx := context.Background()
	g := testGraph(40, 60)
	pairs := validPairs(g, 4)
	n := graph.Node(g.NumNodes())
	d := &graph.Delta{Add: []graph.Edge{{U: n, V: n + 30}}}
	g2, _, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	first := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2, SpillDir: dir})
	queryAll(t, first, pairs, 1)
	if _, err := first.ApplyDelta(ctx, d, nil); err != nil {
		t.Fatal(err)
	}
	if err := first.SpillAll(); err != nil {
		t.Fatal(err)
	}

	sv := New(g2, weights.NewDegree(g2), Config{Seed: 7, Workers: 2, SpillDir: dir})
	got := queryAll(t, sv, pairs, 2)
	want := queryAll(t, New(g2, weights.NewDegree(g2), Config{Seed: 7, Workers: 2}), pairs, 2)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("answers from spill files written after the delta differ from cold")
	}
	if st := sv.Stats(); st.SpillLoads != int64(len(pairs)) || st.SpillLoadErrors != 0 {
		t.Fatalf("spill loads %d, load errors %d: want %d loads and no error", st.SpillLoads, st.SpillLoadErrors, len(pairs))
	}
}

// TestSpillLoadErrorKinds: each rejection cause lands in its own
// counter, and the error messages name the mismatch kind via sentinels.
func TestSpillLoadErrorKinds(t *testing.T) {
	ctx := context.Background()
	g := testGraph(40, 60)
	pairs := validPairs(g, 2)
	if len(pairs) < 1 {
		t.Fatal("no pairs")
	}
	pk := pairs[0]

	// Seed a valid spill file.
	write := func(dir string) string {
		sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1, SpillDir: dir})
		if _, err := sv.Pmax(ctx, pk.s, pk.t, 3000); err != nil {
			t.Fatal(err)
		}
		if err := sv.SpillAll(); err != nil {
			t.Fatal(err)
		}
		return sv.spillPath(pk)
	}

	load := func(dir string, sv *Server) Stats {
		if _, err := sv.Pmax(ctx, pk.s, pk.t, 3000); err != nil {
			t.Fatal(err)
		}
		return sv.Stats()
	}

	t.Run("checksum", func(t *testing.T) {
		dir := t.TempDir()
		path := write(dir)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st := load(dir, New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1, SpillDir: dir}))
		if st.SpillLoadErrChecksum != 1 || st.SpillLoadErrors != 1 {
			t.Fatalf("stats %+v, want one checksum error", st)
		}
	})

	t.Run("version", func(t *testing.T) {
		dir := t.TempDir()
		path := write(dir)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[8]++ // version u32 follows the 8-byte magic; checked before the CRC
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st := load(dir, New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1, SpillDir: dir}))
		if st.SpillLoadErrVersion != 1 || st.SpillLoadErrors != 1 {
			t.Fatalf("stats %+v, want one version error", st)
		}
	})

	t.Run("stream", func(t *testing.T) {
		dir := t.TempDir()
		write(dir)
		st := load(dir, New(g, weights.NewDegree(g), Config{Seed: 8, Workers: 1, SpillDir: dir}))
		if st.SpillLoadErrStream != 1 || st.SpillLoadErrors != 1 {
			t.Fatalf("stats %+v, want one stream-identity error", st)
		}
	})

	t.Run("instance", func(t *testing.T) {
		dir := t.TempDir()
		write(dir)
		// Same seed, different graph, and — crucially — no lineage
		// connecting the two: the fingerprint matches no ancestor.
		g2 := testGraph(40, 61)
		st := load(dir, New(g2, weights.NewDegree(g2), Config{Seed: 7, Workers: 1, SpillDir: dir}))
		if st.SpillLoadErrInstance != 1 || st.SpillLoadErrors != 1 {
			t.Fatalf("stats %+v, want one instance-mismatch error", st)
		}
	})

	t.Run("other", func(t *testing.T) {
		dir := t.TempDir()
		path := write(dir)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:40], 0o644); err != nil { // truncated mid-header
			t.Fatal(err)
		}
		st := load(dir, New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1, SpillDir: dir}))
		if st.SpillLoadErrOther != 1 || st.SpillLoadErrors != 1 {
			t.Fatalf("stats %+v, want one other error", st)
		}
	})
}

// TestDeltaChurnRace runs graph mutations against concurrent query and
// spill traffic — the race job's churn test — then checks the settled
// server answers exactly like a cold server on the final graph.
func TestDeltaChurnRace(t *testing.T) {
	ctx := context.Background()
	g := testGraph(40, 50)
	pairs := validPairs(g, 8)
	if len(pairs) < 6 {
		t.Fatal("not enough pairs")
	}

	// Three deltas that never dissolve a tested pair, applied in
	// sequence while queries hammer the pairs.
	deltas := make([]*graph.Delta, 3)
	cur := g
	for i := range deltas {
		d := testDelta(t, cur, pairs, 1, 1)
		deltas[i] = d
		next, _, err := d.Apply(cur)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}

	sv := New(g, weights.NewDegree(g), Config{
		Seed: 7, Workers: 2, Shards: 4,
		MaxPoolBytes: 192 << 10, SpillDir: t.TempDir(),
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pk := pairs[(i+w)%len(pairs)]
				if _, err := sv.Pmax(ctx, pk.s, pk.t, 2000); err != nil {
					t.Errorf("pmax(%d,%d): %v", pk.s, pk.t, err)
					return
				}
				if _, err := sv.PmaxEstimate(ctx, pk.s, pk.t, 0.3, 50, 10000); err != nil {
					t.Errorf("pmaxest(%d,%d): %v", pk.s, pk.t, err)
					return
				}
			}
		}(w)
	}
	for _, d := range deltas {
		if _, err := sv.ApplyDelta(ctx, d, nil); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	got := queryAll(t, sv, pairs, 1)
	cold := New(cur, weights.NewDegree(cur), Config{Seed: 7, Workers: 2})
	want := queryAll(t, cold, pairs, 1)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-churn answers differ from a cold server on the final graph")
	}
	if st := sv.Stats(); st.DeltasApplied != 3 {
		t.Fatalf("DeltasApplied = %d, want 3", st.DeltasApplied)
	}
}
