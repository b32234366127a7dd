package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// serverObs binds a Server to an obs.Obs: per-kind request latency
// histograms, per-stage histograms fed from finished traces, and
// scrape-time mirrors of every Stats counter. All mirrors are
// CounterFunc/GaugeFunc reads of the server's existing atomics, so the
// query hot path pays nothing for them; only an enabled trace, one
// request Observe per request and the stage Observes per execution are
// new work.
//
// Metric names follow the package obs convention (af_ prefix, _total
// counters, _seconds summaries); they are a stable scrape API.
type serverObs struct {
	o       *obs.Obs
	reqHist [numKinds]*obs.Histogram // af_request_seconds{kind}
	reqErrs [numKinds]*obs.Counter   // af_request_errors_total{kind}
	stage   [obs.NumStages]*obs.Histogram
}

func newServerObs(sv *Server, o *obs.Obs) *serverObs {
	so := &serverObs{o: o}
	r := o.Registry
	for k := KindSolve; k < numKinds; k++ {
		so.reqHist[k] = r.Histogram("af_request_seconds", "query latency by kind", "kind", k.String())
		so.reqErrs[k] = r.Counter("af_request_errors_total", "queries that returned an error", "kind", k.String())
	}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		so.stage[st] = r.Histogram("af_stage_seconds", "time spent per query stage", "stage", st.String())
	}
	for k := KindSolve; k < numKinds; k++ {
		kc := &sv.kinds[k]
		r.CounterFunc("af_requests_total", "session acquisitions by kind and cache outcome",
			func() float64 { return float64(kc.hits.Load()) }, "kind", k.String(), "result", "hit")
		r.CounterFunc("af_requests_total", "session acquisitions by kind and cache outcome",
			func() float64 { return float64(kc.misses.Load()) }, "kind", k.String(), "result", "miss")
	}
	r.GaugeFunc("af_sessions_live", "currently cached pair sessions", func() float64 {
		n := 0
		for i := range sv.shards {
			sh := &sv.shards[i]
			sh.mu.Lock()
			n += len(sh.m)
			sh.mu.Unlock()
		}
		return float64(n)
	})
	r.GaugeFunc("af_bytes_held", "accounted bytes of cached pair state", func() float64 {
		sv.lruMu.Lock()
		defer sv.lruMu.Unlock()
		return float64(sv.bytes)
	})
	r.GaugeFunc("af_graph_epochs", "graph epochs served (1 + effective deltas)", func() float64 {
		return float64(sv.Epochs())
	})
	mirror := func(name, help string, v *atomic.Int64, kv ...string) {
		r.CounterFunc(name, help, func() float64 { return float64(v.Load()) }, kv...)
	}
	mirror("af_sessions_created_total", "pair sessions created (recreation after eviction included)", &sv.created)
	mirror("af_sessions_evicted_total", "pair sessions evicted", &sv.evicted)
	mirror("af_spills_total", "evictions and flushes that wrote a spill file", &sv.spills)
	mirror("af_spill_bytes_total", "bytes written to spill files", &sv.spillBytes)
	mirror("af_spill_loads_total", "pair admissions restored from a spill file", &sv.spillLoads)
	mirror("af_spill_load_bytes_total", "bytes read from spill files", &sv.spillLoadBytes)
	mirror("af_spill_draws_saved_total", "pool draws spill restores avoided", &sv.spillDrawsSaved)
	mirror("af_spill_load_errors_total", "spill files rejected or unreadable, by cause", &sv.spillLoadErrChecksum, "cause", "checksum")
	mirror("af_spill_load_errors_total", "spill files rejected or unreadable, by cause", &sv.spillLoadErrVersion, "cause", "version")
	mirror("af_spill_load_errors_total", "spill files rejected or unreadable, by cause", &sv.spillLoadErrStream, "cause", "stream")
	mirror("af_spill_load_errors_total", "spill files rejected or unreadable, by cause", &sv.spillLoadErrInstance, "cause", "instance")
	mirror("af_spill_load_errors_total", "spill files rejected or unreadable, by cause", &sv.spillLoadErrOther, "cause", "other")
	mirror("af_spill_write_errors_total", "failed spill snapshot writes", &sv.spillWriteErrors)
	mirror("af_deltas_applied_total", "graph deltas that changed the graph or weights", &sv.deltasApplied)
	mirror("af_pairs_dropped_total", "pairs dissolved by a delta", &sv.pairsDropped)
	mirror("af_pools_repaired_total", "pair migrations and spill loads that repaired pools across epochs", &sv.poolsRepaired)
	mirror("af_repair_chunks_resampled_total", "pool chunks re-drawn by delta repair", &sv.repairChunks)
	mirror("af_repair_draws_resampled_total", "pool draws re-drawn by delta repair", &sv.repairDraws)
	mirror("af_repair_draws_saved_total", "pool draws adopted verbatim by delta repair", &sv.repairSaved)
	mirror("af_pmax_draws_reused_total", "stopping-rule draws answered from retained estimator ledgers", &sv.pmaxDrawsReused)
	mirror("af_coalesced_total", "queries that joined an identical in-flight query", &sv.coalesced)
	mirror("af_spill_files_expired_total", "spill files removed by TTL GC", &sv.spillExpired)
	// Admission series are registered even with the gate disabled (all
	// zeros): dashboards and the CI smoke can rely on the names existing.
	adm := sv.adm
	r.GaugeFunc("af_inflight", "queries currently executing (holding an admission slot)", func() float64 {
		if adm == nil {
			return 0
		}
		return float64(adm.inflight.Load())
	})
	r.GaugeFunc("af_queue_depth", "queries waiting for an admission slot", func() float64 {
		if adm == nil {
			return 0
		}
		return float64(adm.queued.Load())
	})
	r.CounterFunc("af_admitted_total", "queries admitted past the in-flight gate", func() float64 {
		if adm == nil {
			return 0
		}
		return float64(adm.admitted.Load())
	})
	r.CounterFunc("af_rejected_total", "queries fast-rejected by admission control", func() float64 {
		if adm == nil {
			return 0
		}
		return float64(adm.rejected.Load())
	})
	return so
}

// observeRequest records one finished request of kind into the
// request histogram, timed from start, and counts *err if it is set.
func (so *serverObs) observeRequest(kind Kind, start time.Time, err *error) {
	so.reqHist[kind].Observe(time.Since(start).Nanoseconds())
	if *err != nil {
		so.reqErrs[kind].Inc()
	}
}

// finishTrace closes one execution's trace and feeds its spans into the
// stage histograms.
func (so *serverObs) finishTrace(tr *obs.Trace) {
	tr.Finish()
	tr.EachSpan(func(st obs.Stage, d time.Duration) {
		so.stage[st].Observe(d.Nanoseconds())
	})
}

// Obs returns the server's observability bundle (nil when disabled) —
// the handle the serving binaries expose over HTTP.
func (sv *Server) Obs() *obs.Obs {
	if sv.obs == nil {
		return nil
	}
	return sv.obs.o
}

// WriteStatusz renders a human-readable status page: the stats ledger,
// per-kind and per-stage latency quantiles, and the slowest retained
// traces. The page is for operators; the machine-readable form is the
// registry's Prometheus exposition.
func (sv *Server) WriteStatusz(w io.Writer) {
	st := sv.Stats()
	fmt.Fprintf(w, "sessions: live=%d created=%d evicted=%d bytes_held=%d\n",
		st.SessionsLive, st.SessionsCreated, st.SessionsEvicted, st.BytesHeld)
	fmt.Fprintf(w, "spill: spills=%d bytes=%d loads=%d load_bytes=%d draws_saved=%d load_errors=%d write_errors=%d\n",
		st.Spills, st.SpillBytes, st.SpillLoads, st.SpillLoadBytes, st.SpillDrawsSaved, st.SpillLoadErrors, st.SpillWriteErrors)
	fmt.Fprintf(w, "deltas: applied=%d pairs_dropped=%d pools_repaired=%d chunks_resampled=%d draws_resampled=%d draws_saved=%d\n",
		st.DeltasApplied, st.PairsDropped, st.PoolsRepaired, st.RepairChunksResampled, st.RepairDrawsResampled, st.RepairDrawsSaved)
	fmt.Fprintf(w, "reuse: pmax_draws_reused=%d coalesced=%d\n", st.PmaxDrawsReused, st.Coalesced)
	fmt.Fprintf(w, "admission: inflight=%d queued=%d admitted=%d rejected=%d spill_expired=%d\n",
		st.Inflight, st.Queued, st.Admitted, st.Rejected, st.SpillFilesExpired)
	for k := KindSolve; k < numKinds; k++ {
		c := st.ByKind[k]
		if c.Hits+c.Misses == 0 {
			continue
		}
		fmt.Fprintf(w, "kind %-9s hits=%d misses=%d", k.String(), c.Hits, c.Misses)
		if sv.obs != nil {
			if snap := sv.obs.reqHist[k].Snapshot(); snap.Count() > 0 {
				fmt.Fprintf(w, " n=%d p50=%s p99=%s p999=%s",
					snap.Count(), statuszDur(snap.Quantile(0.5)), statuszDur(snap.Quantile(0.99)), statuszDur(snap.Quantile(0.999)))
			}
		}
		fmt.Fprintln(w)
	}
	if sv.obs == nil {
		return
	}
	for stg := obs.Stage(0); stg < obs.NumStages; stg++ {
		snap := sv.obs.stage[stg].Snapshot()
		if snap.Count() == 0 {
			continue
		}
		fmt.Fprintf(w, "stage %-11s n=%d p50=%s p99=%s total=%s\n",
			stg.String(), snap.Count(), statuszDur(snap.Quantile(0.5)), statuszDur(snap.Quantile(0.99)),
			time.Duration(snap.Sum).Round(time.Microsecond))
	}
	for i, s := range sv.obs.o.Tracer.Slowest() {
		fmt.Fprintf(w, "slow[%d] kind=%s total=%s spans=%d\n",
			i, s.Kind, time.Duration(s.TotalUs)*time.Microsecond, len(s.Spans))
	}
}

func statuszDur(ns float64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}
