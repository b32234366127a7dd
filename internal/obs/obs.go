// Package obs is the dependency-free observability core behind the
// serving layer: a metrics registry (atomic counters, gauges, and
// log-bucketed latency histograms with p50/p99/p999 extraction), plus a
// Span/Tracer API for per-query stage timing.
//
// Everything here is designed around two constraints:
//
//   - Disabled must be free. A nil *Tracer returns a nil *Trace, whose
//     StartSpan/End/Finish are nil-check no-ops; TraceFrom on a context
//     with no trace returns nil without allocating. The instrumented
//     hot paths (pool sampling, coverage queries, p_max chunks) pin
//     0 allocs/op on the disabled path with testing.AllocsPerRun.
//   - No dependencies. The Prometheus text exposition is a hand-rolled
//     writer (see Registry.WritePrometheus); histograms are mergeable
//     snapshots of lock-free sharded log buckets, not a client library.
//
// # Metric naming convention
//
// Metric names are a stable API: scrapes, dashboards and the CI smoke
// step key on them, so renaming one is a breaking change. The
// convention: every series is prefixed "af_", monotonic counters end in
// "_total" (af_spills_total, af_panics_total), duration histograms end
// in "_seconds" (recorded in nanoseconds, exposed in seconds as
// summaries with quantile labels), and point-in-time values are bare
// gauges (af_bytes_held, af_sessions_live). The serving layer's ledger
// series are declared once, in the internal/server counter table.
// Label keys in use: kind (query kind), result (hit|miss), cause (spill
// load error cause), stage (trace stage), quantile (summary quantiles).
//
// # Quick start
//
//	o := obs.New()
//	h := o.Registry.Histogram("af_request_seconds", "query latency", "kind", "solve")
//	tr := o.Tracer.Start("solve")
//	ctx = obs.WithTrace(ctx, tr)
//	sp := obs.TraceFrom(ctx).StartSpan(obs.StagePoolGrow)
//	// ... sample ...
//	sp.End()
//	h.Observe(int64(tr.Finish()))
//	o.Registry.WritePrometheus(os.Stdout)
package obs

import (
	"io"
	"time"
)

// Obs bundles one registry with one tracer — the unit of observability a
// server carries. A nil *Obs means observability is disabled end to end.
type Obs struct {
	Registry *Registry
	Tracer   *Tracer
}

// DefaultTraceKeep is how many slowest traces New's tracer retains.
const DefaultTraceKeep = 32

// New returns an enabled Obs with an empty registry and a tracer keeping
// the DefaultTraceKeep slowest traces.
func New() *Obs {
	return &Obs{Registry: NewRegistry(), Tracer: NewTracer(DefaultTraceKeep)}
}

// SetSlowLog arms the tracer's slow-query log: completed traces with
// total duration ≥ threshold are written to w as one-line JSON. A no-op
// on a nil Obs, a zero threshold, or a nil writer.
func (o *Obs) SetSlowLog(threshold time.Duration, w io.Writer) {
	if o == nil || o.Tracer == nil {
		return
	}
	o.Tracer.SetSlowLog(threshold, w)
}
