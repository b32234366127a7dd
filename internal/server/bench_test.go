package server

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/weights"
)

// BenchmarkServerManyPairs drives concurrent mixed traffic over ≥ 32
// pairs through one budgeted server — the serving layer's target
// workload. Run with -race in CI to machine-check the concurrency
// claims.
func BenchmarkServerManyPairs(b *testing.B) {
	g := testGraph(200, 300)
	pairs := validPairs(g, 32)
	if len(pairs) < 32 {
		b.Fatalf("only %d valid pairs", len(pairs))
	}
	// A budget below the working set (~32 pairs × tens of KiB of pools)
	// keeps the LRU evicting while the benchmark runs.
	sv := New(g, weights.NewDegree(g), Config{Seed: 1, MaxPoolBytes: 1 << 20})
	ctx := context.Background()
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1)
			pk := pairs[int(i)%len(pairs)]
			if i%4 == 0 {
				ns := graph.NewNodeSetOf(sv.Graph().NumNodes(), pk.t)
				for _, v := range sv.Graph().Neighbors(pk.t) {
					ns.Add(v)
				}
				if _, err := sv.EstimateF(ctx, pk.s, pk.t, ns, 4096); err != nil {
					b.Fatal(err)
				}
			} else {
				if _, err := sv.Pmax(ctx, pk.s, pk.t, 4096); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.ReportMetric(float64(sv.Stats().SessionsEvicted), "evictions")
}

// BenchmarkServerApplyDelta measures the delta migration walk: each
// iteration applies a one-edge delta, alternately adding and removing
// the same edge, and repairs ~64 warmed pairs across it. Each pair holds
// a one-chunk pool, as budgeted top-k candidates do, so a single repair
// has no chunks to split across workers and any speed-up comes from
// migrating pairs concurrently. Run with -race in CI, it also exercises
// those concurrent migrations.
func BenchmarkServerApplyDelta(b *testing.B) {
	g := testGraph(200, 300)
	pairs := validPairs(g, 64)
	if len(pairs) < 32 {
		b.Fatalf("only %d valid pairs", len(pairs))
	}
	isPair := make(map[pairKey]bool, 2*len(pairs))
	for _, pk := range pairs {
		isPair[pk] = true
		isPair[pairKey{pk.t, pk.s}] = true
	}
	var edge graph.Edge
	for u := graph.Node(1); int(u) < g.NumNodes(); u++ {
		if !g.HasEdge(0, u) && !isPair[pairKey{0, u}] {
			edge = graph.Edge{U: 0, V: u}
			break
		}
	}
	if edge.V == 0 {
		b.Fatal("no free edge at node 0")
	}
	sv := New(g, weights.NewDegree(g), Config{Seed: 1})
	ctx := context.Background()
	for _, pk := range pairs {
		if _, err := sv.Pmax(ctx, pk.s, pk.t, 2048); err != nil {
			b.Fatal(err)
		}
	}
	var migrated int
	var resampled int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := &graph.Delta{Add: []graph.Edge{edge}}
		if i%2 == 1 {
			d = &graph.Delta{Remove: []graph.Edge{edge}}
		}
		res, err := sv.ApplyDelta(ctx, d, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Dirty) == 0 {
			b.Fatal("delta changed nothing")
		}
		migrated += res.PairsMigrated
		resampled += res.Repair.DrawsResampled
	}
	b.ReportMetric(float64(migrated)/float64(b.N), "pairs/op")
	b.ReportMetric(float64(resampled)/float64(b.N), "draws_resampled/op")
}

// BenchmarkAdmissionAdmit measures the gate's uncontended fast path —
// the per-query overhead every admitted request pays.
func BenchmarkAdmissionAdmit(b *testing.B) {
	g := testGraph(40, 60)
	sv := New(g, weights.NewDegree(g), Config{Seed: 1, MaxInflight: 4, MaxQueue: 16})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sv.admit(ctx); err != nil {
			b.Fatal(err)
		}
		sv.admitDone()
	}
}

// BenchmarkAdmissionReject measures the rejection path under full
// saturation — the latency an overloaded client sees before its 429 /
// error reply, which must stay far below the cost of running a query.
func BenchmarkAdmissionReject(b *testing.B) {
	g := testGraph(40, 60)
	sv := New(g, weights.NewDegree(g), Config{Seed: 1, MaxInflight: 1, MaxQueue: 0})
	ctx := context.Background()
	if err := sv.admit(ctx); err != nil { // hold the only slot
		b.Fatal(err)
	}
	defer sv.admitDone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sv.admit(ctx); err != ErrOverloaded {
			b.Fatalf("admit under saturation: %v", err)
		}
	}
}

// BenchmarkSpillRoundTrip measures one pair's trip through the spill
// tier on the Wiki analog at scale 1 (7,115 nodes, the graph afbench
// serves): each op restores the pair from its latest spill record
// through the server, then evicts it, writing it back. The pair holds
// what a cold-churn pair holds after a solve — solve and evaluation
// pools of 2,000 draws, a p_max ledger and its V_max — and clearing the
// entry's loaded mark makes every eviction write the pair, as it does
// after a query grew it. Reports the bytes each spill writes.
func BenchmarkSpillRoundTrip(b *testing.B) {
	d, err := gen.DatasetByName("Wiki")
	if err != nil {
		b.Fatal(err)
	}
	g, err := d.Generate(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	// Every release evicts, so each pair lives for exactly one op.
	sv := New(g, weights.NewDegree(g), Config{Seed: 1, Workers: 1, MaxPoolBytes: 1, SpillDir: b.TempDir()})
	ctx := context.Background()
	s, t := graph.Node(17), graph.Node(4211)
	if _, err := sv.Solve(ctx, s, t, core.Config{Alpha: 0.2, Eps: 0.05, N: 100000, OverrideL: 2000, MaxPmaxDraws: 1 << 20}); err != nil {
		b.Fatal(err)
	}
	if _, _, err := sv.SolveMax(ctx, s, t, 4, 2000); err != nil {
		b.Fatal(err)
	}
	spills, bytes := sv.Stats().Spills, sv.Stats().SpillBytes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := sv.Pair(s, t)
		if err != nil {
			b.Fatal(err)
		}
		if !h.e.loaded {
			b.Fatal("pair was not restored from the spill tier")
		}
		h.e.loaded = false
		h.Done()
	}
	b.StopTimer()
	st := sv.Stats()
	if st.Spills-spills != int64(b.N) || st.SpillLoadErrors != 0 {
		b.Fatalf("%d spills and %d load errors in %d ops", st.Spills-spills, st.SpillLoadErrors, b.N)
	}
	b.ReportMetric(float64(st.SpillBytes-bytes)/float64(b.N), "spill_B/op")
}

// BenchmarkSpillLoad measures cold-churn's miss path alone on the Wiki
// analog at scale 1: each op restores one pair from its spill record —
// solve and evaluation pools of 2,000 draws, a p_max ledger and its
// V_max — and answers SolveMax at budget 4 on it, as a cold-churn
// request does; the pair is then dropped from the cache without a
// spill write.
func BenchmarkSpillLoad(b *testing.B) {
	d, err := gen.DatasetByName("Wiki")
	if err != nil {
		b.Fatal(err)
	}
	g, err := d.Generate(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	sv := New(g, weights.NewDegree(g), Config{Seed: 1, Workers: 1, SpillDir: b.TempDir()})
	ctx := context.Background()
	k := pairKey{17, 4211}
	if _, err := sv.Solve(ctx, k.s, k.t, core.Config{Alpha: 0.2, Eps: 0.05, N: 100000, OverrideL: 2000, MaxPmaxDraws: 1 << 20}); err != nil {
		b.Fatal(err)
	}
	if _, _, err := sv.SolveMax(ctx, k.s, k.t, 4, 2000); err != nil {
		b.Fatal(err)
	}
	if err := sv.SpillAll(); err != nil {
		b.Fatal(err)
	}
	forget := func() {
		sh := sv.shardFor(k)
		sh.mu.Lock()
		e := sh.m[k]
		delete(sh.m, k)
		sh.mu.Unlock()
		sv.lruMu.Lock()
		sv.uncacheLocked(e)
		sv.lruMu.Unlock()
	}
	forget()
	loads := sv.Stats().SpillLoads
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sv.SolveMax(ctx, k.s, k.t, 4, 2000); err != nil {
			b.Fatal(err)
		}
		forget()
	}
	b.StopTimer()
	st := sv.Stats()
	if st.SpillLoads-loads != int64(b.N) || st.SpillLoadErrors != 0 || st.Spills != 1 {
		b.Fatalf("%d loads, %d load errors, %d spills in %d ops", st.SpillLoads-loads, st.SpillLoadErrors, st.Spills, b.N)
	}
}
