package server

import (
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
)

// serverObs binds a Server to an obs.Obs: per-kind request latency
// histograms, per-stage histograms fed from finished traces, and
// scrape-time mirrors of every ledger row (see registerLedger), which
// cost the query hot path nothing.
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
	sv.registerLedger(r)
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
	sv.writeLedger(w)
	for k := KindSolve; k < numKinds; k++ {
		hits, misses := sv.kindCounts(k)
		if hits+misses == 0 {
			continue
		}
		fmt.Fprintf(w, "kind %-9s hits=%d misses=%d", k.String(), hits, misses)
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
