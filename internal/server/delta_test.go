package server

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
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
// A delta leaves every live pair stale until its first touch repairs it,
// so once every pair has been queried it must be zero.
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
// epoch and then leave pairs answering at the old one: every answer
// equals a cold server's at the epoch the server reports, and once every
// pair has been queried none is left at an older epoch.
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
	if n := staleEntries(sv); n != 0 {
		t.Fatalf("%d queried pairs left at the old epoch (ApplyDelta err %v)", n, err)
	}
}

// TestApplyDeltaContainsMigrationPanic: a panic while a stale pair is
// repaired on its first touch stays with that pair. The panic is
// counted, the broken pair is dropped and rebuilt cold inside the query
// that touched it, so it answers — like every other pair, repaired —
// exactly as a server built on the new graph would.
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
		res, err := sv.ApplyDelta(context.Background(), d, nil)
		if err != nil {
			t.Fatalf("workers=%d: ApplyDelta: %v", workers, err)
		}
		if res.PairsMigrated != len(pairs) || res.PairsDropped != 0 {
			t.Errorf("workers=%d: migrated %d, dropped %d; want %d and 0", workers, res.PairsMigrated, res.PairsDropped, len(pairs))
		}
		// A zero session has no pools: repairing them dereferences nil.
		broken := pairs[len(pairs)/2]
		sh := sv.shardFor(broken)
		sh.mu.Lock()
		sh.m[broken].sess = new(core.Session)
		sh.mu.Unlock()

		st := sv.Stats()
		if got := queryAll(t, sv, pairs, 1); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: answers after the contained panic differ from a cold server on the new graph", workers)
		}
		after := sv.Stats()
		if after.Panics != 1 {
			t.Errorf("workers=%d: Stats.Panics = %d, want 1", workers, after.Panics)
		}
		if created := after.SessionsCreated - st.SessionsCreated; created != 1 {
			t.Errorf("workers=%d: queries after the delta created %d sessions, want 1 (the broken pair, cold)", workers, created)
		}
		if repaired := after.PoolsRepaired - st.PoolsRepaired; repaired != int64(len(pairs)-1) {
			t.Errorf("workers=%d: %d pairs repaired on first touch, want %d", workers, repaired, len(pairs)-1)
		}
		if n := staleEntries(sv); n != 0 {
			t.Fatalf("workers=%d: %d pairs left at the old epoch", workers, n)
		}
	}
}

// TestApplyDeltaNodeAddingAcceptance: an acceptance query whose set was
// built before a delta that adds a node (the protocol builds it from the
// graph current before admission) is measured after the delta against
// the repaired evaluation pool, some of whose paths reach the new node.
// Those paths are not covered: the answer equals a cold server's at the
// new epoch for the same members, and nothing panics.
func TestApplyDeltaNodeAddingAcceptance(t *testing.T) {
	ctx := context.Background()
	g := testGraph(64, 80)
	const s, tt, trials = 0, 63, 2000
	if g.HasEdge(s, tt) {
		t.Fatal("test pair is adjacent")
	}
	old := graph.NewNodeSet(g.NumNodes())
	old.Fill()
	sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2})
	if _, err := sv.EstimateF(ctx, s, tt, old, trials); err != nil {
		t.Fatal(err)
	}
	d := &graph.Delta{Add: []graph.Edge{{U: 1, V: 64}, {U: 64, V: tt}}}
	if _, err := sv.ApplyDelta(ctx, d, nil); err != nil {
		t.Fatal(err)
	}
	got, err := sv.EstimateF(ctx, s, tt, old, trials)
	if err != nil {
		t.Fatalf("measuring a pre-delta set after the delta: %v", err)
	}

	g2 := sv.Graph()
	cold := New(g2, weights.NewDegree(g2), Config{Seed: 7, Workers: 2})
	same := graph.NewNodeSet(g2.NumNodes())
	all := graph.NewNodeSet(g2.NumNodes())
	all.Fill()
	old.Range(func(v graph.Node) bool { same.Add(v); return true })
	want, err := cold.EstimateF(ctx, s, tt, same, trials)
	if err != nil {
		t.Fatal(err)
	}
	withNew, err := cold.EstimateF(ctx, s, tt, all, trials)
	if err != nil {
		t.Fatal(err)
	}
	if withNew == want {
		t.Fatalf("no sampled path reaches the added node (f = %v either way); the test exercises nothing", want)
	}
	if got != want {
		t.Errorf("pre-delta set measures %v after the delta, a cold server at the new epoch %v", got, want)
	}
	if p := sv.Stats().Panics; p != 0 {
		t.Errorf("Stats.Panics = %d, want 0", p)
	}
}

// TestApplyDeltaWorkerIdentity: neither the delta's walk nor the repairs
// on first touch depend on how many workers run them. For every worker
// count the same warmed server, including a spilled pair the delta
// dissolves, reports the same DeltaResult, Stats and LRU order after the
// delta, then answers like a cold server at the new epoch, again with
// the same Stats and LRU order, and with no pair left at the old epoch.
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
		res           DeltaResult
		stats, after  Stats
		lru, lruAfter []pairKey
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
		if res.Repair != (engine.RepairStats{}) {
			t.Fatalf("Workers %d: the delta repaired %+v in the call; every pair was one epoch behind", workers, res.Repair)
		}
		got := outcome{res: *res, stats: sv.Stats(), lru: lruKeys(sv)}
		if got.stats.PairsStale != len(pairs)-1 {
			t.Fatalf("Workers %d: PairsStale = %d, want %d", workers, got.stats.PairsStale, len(pairs)-1)
		}
		if answers := queryAll(t, sv, pairs, 1); !reflect.DeepEqual(answers, want) {
			t.Fatalf("Workers %d: post-delta answers differ from a cold server", workers)
		}
		if n := staleEntries(sv); n != 0 {
			t.Fatalf("Workers %d: %d pairs left at the old epoch after every pair was queried", workers, n)
		}
		got.after, got.lruAfter = sv.Stats(), lruKeys(sv)
		if got.after.PairsStale != 0 || got.after.PoolsRepaired != int64(len(pairs)-1) {
			t.Fatalf("Workers %d: after the queries PairsStale = %d, PoolsRepaired = %d; want 0 and %d",
				workers, got.after.PairsStale, got.after.PoolsRepaired, len(pairs)-1)
		}
		if i == 0 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("Workers %d differs from Workers 1:\n got %+v\nwant %+v", workers, got, first)
		}
	}
}

// maxBehind returns how many epochs the most stale cached pair lags the
// head, and checks the PairsStale gauge against the map.
func maxBehind(t *testing.T, sv *Server) int {
	t.Helper()
	head := sv.gen.Load()
	lag, stale := 0, 0
	for i := range sv.shards {
		sh := &sv.shards[i]
		sh.mu.Lock()
		for _, e := range sh.m {
			lag = max(lag, head.epoch-e.gen.epoch)
			if e.gen != head {
				stale++
			}
		}
		sh.mu.Unlock()
	}
	if got := sv.Stats().PairsStale; got != stale {
		t.Errorf("PairsStale = %d, but %d cached pairs are stale", got, stale)
	}
	return lag
}

// TestApplyDeltaBoundsStaleness: a delta leaves pairs at most one epoch
// behind. Pairs no query touched since the previous delta are repaired
// inside the next one — the only repair a delta runs — so no more than
// two generations are ever live, and the survivors still answer like a
// cold server on the final graph.
func TestApplyDeltaBoundsStaleness(t *testing.T) {
	ctx := context.Background()
	g := testGraph(40, 50)
	pairs := validPairs(g, 8)
	if len(pairs) < 6 {
		t.Fatalf("only %d valid pairs", len(pairs))
	}
	sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2})
	queryAll(t, sv, pairs, 1)
	cur := g
	for step := 0; step < 3; step++ {
		d := testDelta(t, cur, pairs, 1, 1)
		next, _, err := d.Apply(cur)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
		res, err := sv.ApplyDelta(ctx, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.PairsMigrated != len(pairs) {
			t.Fatalf("step %d: migrated %d of %d pairs", step, res.PairsMigrated, len(pairs))
		}
		// After the first delta every pair is one epoch behind; after
		// later ones, the half left untouched was two behind and must
		// have been repaired in the call.
		if repaired := res.Repair.DrawsResampled + res.Repair.DrawsSaved; (step == 0) != (repaired == 0) {
			t.Fatalf("step %d: the delta repaired %+v in the call", step, res.Repair)
		}
		if lag := maxBehind(t, sv); lag != 1 {
			t.Fatalf("step %d: a pair is %d epochs behind after the delta, want 1", step, lag)
		}
		// Touch every other pair, with a different half each step.
		for i := step % 2; i < len(pairs); i += 2 {
			if _, err := sv.Pmax(ctx, pairs[i].s, pairs[i].t, 3000); err != nil {
				t.Fatal(err)
			}
		}
		if lag := maxBehind(t, sv); lag != 1 {
			t.Fatalf("step %d: a pair is %d epochs behind after the queries, want 1", step, lag)
		}
	}
	cold := New(cur, weights.NewDegree(cur), Config{Seed: 7, Workers: 2})
	if got, want := queryAll(t, sv, pairs, 1), queryAll(t, cold, pairs, 1); !reflect.DeepEqual(got, want) {
		t.Fatal("answers after three deltas differ from a cold server on the final graph")
	}
	if lag := maxBehind(t, sv); lag != 0 {
		t.Fatalf("a queried pair is %d epochs behind", lag)
	}
}

// TestApplyDeltaStaleSpillLoads: a pair evicted while stale is spilled
// as it is, at its old epoch, and never repaired in memory. Its next
// query loads the file through the lineage, which adopts and repairs it,
// and answers like a cold server at the new epoch.
func TestApplyDeltaStaleSpillLoads(t *testing.T) {
	ctx := context.Background()
	g := testGraph(40, 50)
	pairs := validPairs(g, 6)
	d := testDelta(t, g, pairs, 2, 2)
	g2, _, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2, SpillDir: t.TempDir()})
	queryAll(t, sv, pairs, 1)
	if _, err := sv.ApplyDelta(ctx, d, nil); err != nil {
		t.Fatal(err)
	}
	// evictAll evicts every cached pair, as a full budget would.
	evictAll := func() {
		sv.lruMu.Lock()
		sv.cfg.MaxPoolBytes = 1
		victims := sv.evictLocked()
		sv.cfg.MaxPoolBytes = 0
		sv.lruMu.Unlock()
		for _, v := range victims {
			if err := sv.writeSpill(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	evictAll()
	st := sv.Stats()
	if st.SessionsLive != 0 || st.Spills != int64(len(pairs)) || st.PairsStale != 0 || st.PoolsRepaired != 0 {
		t.Fatalf("after evicting the stale pairs: %+v", st)
	}

	// Load every pair without growing it: each load adopts and repairs
	// its ancestor-epoch file.
	for _, pk := range pairs {
		h, err := sv.Pair(pk.s, pk.t)
		if err != nil {
			t.Fatal(err)
		}
		h.Done()
	}
	st = sv.Stats()
	if st.SpillLoads != int64(len(pairs)) || st.SpillLoadErrors != 0 || st.PoolsRepaired != int64(len(pairs)) {
		t.Fatalf("spill loads %d, load errors %d, repairs %d; want %d loads, each repaired, and no error",
			st.SpillLoads, st.SpillLoadErrors, st.PoolsRepaired, len(pairs))
	}
	// The next eviction rewrites each file at the new epoch, so the loads
	// after it repair nothing.
	evictAll()
	cold := New(g2, weights.NewDegree(g2), Config{Seed: 7, Workers: 2})
	if got, want := queryAll(t, sv, pairs, 1), queryAll(t, cold, pairs, 1); !reflect.DeepEqual(got, want) {
		t.Fatal("answers from stale spill files differ from a cold server at the new epoch")
	}
	if again := sv.Stats(); again.Spills != 2*int64(len(pairs)) || again.PoolsRepaired != st.PoolsRepaired {
		t.Fatalf("after a second eviction: %d spills, %d repairs; want %d and still %d",
			again.Spills, again.PoolsRepaired, 2*len(pairs), st.PoolsRepaired)
	}
}

// TestApplyDeltaFirstTouchRepairsOnce: concurrent first touches of one
// stale pair — distinct queries, so none coalesces — run one repair,
// and every one of them answers like a cold server at the new epoch.
func TestApplyDeltaFirstTouchRepairsOnce(t *testing.T) {
	ctx := context.Background()
	g := testGraph(40, 50)
	pairs := validPairs(g, 4)
	d := testDelta(t, g, pairs, 2, 2)
	g2, _, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	pk := pairs[0]
	const touches = 8
	pmax := func(sv *Server, i int) string {
		pm, err := sv.Pmax(ctx, pk.s, pk.t, int64(2000+64*i))
		return fmt.Sprintf("%x/%v", math.Float64bits(pm), err)
	}
	cold := New(g2, weights.NewDegree(g2), Config{Seed: 7, Workers: 2})
	sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2})
	pmax(sv, touches)
	if _, err := sv.ApplyDelta(ctx, d, nil); err != nil {
		t.Fatal(err)
	}
	got := make([]string, touches)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = pmax(sv, i)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if want := pmax(cold, i); got[i] != want {
			t.Errorf("touch %d answered %s, want %s", i, got[i], want)
		}
	}
	if st := sv.Stats(); st.PoolsRepaired != 1 || st.PairsStale != 0 {
		t.Fatalf("PoolsRepaired = %d, PairsStale = %d after %d concurrent first touches; want 1 and 0", st.PoolsRepaired, st.PairsStale, touches)
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
	if !hasSpill(sv, victim) {
		t.Fatal("victim pair has no spill record")
	}

	res, err := sv.ApplyDelta(ctx, &graph.Delta{Add: []graph.Edge{{U: victim.s, V: victim.t}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PairsDropped == 0 {
		t.Fatalf("dissolved pair not dropped: %+v", res)
	}
	if hasSpill(sv, victim) {
		t.Fatal("dissolved pair's spill record survived")
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

	// Seed a valid spill record.
	write := func(dir string) {
		sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1, SpillDir: dir})
		if _, err := sv.Pmax(ctx, pk.s, pk.t, 3000); err != nil {
			t.Fatal(err)
		}
		if err := sv.SpillAll(); err != nil {
			t.Fatal(err)
		}
	}

	load := func(dir string, sv *Server) Stats {
		if _, err := sv.Pmax(ctx, pk.s, pk.t, 3000); err != nil {
			t.Fatal(err)
		}
		return sv.Stats()
	}

	t.Run("checksum", func(t *testing.T) {
		dir := t.TempDir()
		write(dir)
		rewriteSpill(t, dir, pk, func(data []byte) []byte {
			data[len(data)/2] ^= 0x40
			return data
		})
		st := load(dir, New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1, SpillDir: dir}))
		if st.SpillLoadErrChecksum != 1 || st.SpillLoadErrors != 1 {
			t.Fatalf("stats %+v, want one checksum error", st)
		}
	})

	t.Run("version", func(t *testing.T) {
		dir := t.TempDir()
		write(dir)
		rewriteSpill(t, dir, pk, func(data []byte) []byte {
			data[8]++ // version u32 follows the 8-byte magic; checked before the CRC
			return data
		})
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
		write(dir)
		rewriteSpill(t, dir, pk, func(data []byte) []byte {
			return data[:40] // truncated mid-header
		})
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

// TestDeltaFirstTouchRace runs queries against deltas that leave their
// pairs stale, so first-touch repairs race one another, eviction, spill
// writes and loads, and the next delta's walk. Every reply must equal a
// cold server's at an epoch no older than the one current when the
// query was issued.
func TestDeltaFirstTouchRace(t *testing.T) {
	ctx := context.Background()
	g := testGraph(40, 50)
	pairs := validPairs(g, 6)
	if len(pairs) < 4 {
		t.Fatal("not enough pairs")
	}
	var targets []graph.Node
	for _, pk := range pairs {
		if pk.s == pairs[0].s {
			targets = append(targets, pk.t)
		}
	}
	graphs := []*graph.Graph{g}
	var deltas []*graph.Delta
	for i := 0; i < 3; i++ {
		cur := graphs[len(graphs)-1]
		d := testDelta(t, cur, pairs, 1, 1)
		next, _, err := d.Apply(cur)
		if err != nil {
			t.Fatal(err)
		}
		deltas, graphs = append(deltas, d), append(graphs, next)
	}

	// queries[q] answers query q; cold[k][q] is its answer at epoch k.
	var queries []func(*Server) string
	for _, pk := range pairs {
		queries = append(queries, func(sv *Server) string {
			pm, err := sv.Pmax(ctx, pk.s, pk.t, 2000)
			return fmt.Sprintf("pmax(%d,%d)=%x/%v", pk.s, pk.t, math.Float64bits(pm), err)
		}, func(sv *Server) string {
			res, f, err := sv.SolveMax(ctx, pk.s, pk.t, 2, 2000)
			if err != nil {
				return fmt.Sprintf("smax(%d,%d)=%v", pk.s, pk.t, err)
			}
			return fmt.Sprintf("smax(%d,%d)=%v|%x", pk.s, pk.t, res.Invited.Members(), math.Float64bits(f))
		})
	}
	queries = append(queries, func(sv *Server) string {
		res, err := sv.TopK(ctx, TopKQuery{S: pairs[0].s, Targets: targets, K: 1, Budget: 2, Realizations: 2000})
		if err != nil {
			return err.Error()
		}
		return renderTopK(res)
	})
	cold := make([][]string, len(graphs))
	for k, gk := range graphs {
		sv := New(gk, weights.NewDegree(gk), Config{Seed: 7, Workers: 2})
		for _, q := range queries {
			cold[k] = append(cold[k], q(sv))
		}
	}
	if reflect.DeepEqual(cold[0], cold[len(graphs)-1]) {
		t.Fatal("the deltas change no answer; the race would check nothing")
	}

	sv := New(g, weights.NewDegree(g), Config{
		Seed: 7, Workers: 2, Shards: 4,
		MaxPoolBytes: 192 << 10, SpillDir: t.TempDir(),
	})
	var served atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := i % len(queries)
				admitted := sv.gen.Load().epoch
				got := queries[q](sv)
				ok := false
				for k := admitted; k < len(graphs) && !ok; k++ {
					ok = got == cold[k][q]
				}
				if !ok {
					t.Errorf("query %d issued at epoch %d answered %s, which no cold server at that epoch or later gives", q, admitted, got)
					return
				}
				served.Add(1)
			}
		}(w)
	}
	for i, d := range deltas {
		waitFor(t, func() bool { return served.Load() >= int64(8*(i+1)) })
		if _, err := sv.ApplyDelta(ctx, d, nil); err != nil {
			t.Error(err)
		}
	}
	waitFor(t, func() bool { return served.Load() >= int64(8*(len(deltas)+1)) })
}
