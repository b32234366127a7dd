package obs

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Stage labels one instrumented segment of a query's execution — the
// natural units of the paper's multi-stage pipeline (sample → fold →
// greedy solve → decorrelated measure → p_max stopping rule) plus the
// serving layer's own stages (session acquire, spill load, repair,
// ranking rounds). Stage names are part of the metric-name API (the
// stage label of af_stage_seconds).
type Stage uint8

const (
	// StageAcquire is the pair-session lookup/creation, including any
	// one-time spill restore the acquisition triggered.
	StageAcquire Stage = iota
	// StageSpillLoad is a spill-file restore (also recorded when no
	// trace is in flight, as a bare histogram observation).
	StageSpillLoad
	// StagePoolGrow is realization sampling: growing a session pool to
	// the requested draw count.
	StagePoolGrow
	// StageFamilyFold is the set-cover fold of a pool into its family of
	// distinct canonical sets (≈0 when the pool's family is cached).
	StageFamilyFold
	// StageSolve is the greedy set-cover solve.
	StageSolve
	// StageMeasure is a coverage measurement: a scan of a pool's paths.
	StageMeasure
	// StagePmax is Algorithm 2 stopping-rule chunk sampling.
	StagePmax
	// StageRepair is delta repair: re-drawing damaged draw groups after
	// a graph mutation.
	StageRepair
	// StageRankRound is one successive-halving round of a batched top-k
	// schedule (scoring of every surviving candidate included).
	StageRankRound
	// NumStages bounds the Stage space for per-stage aggregation arrays.
	NumStages
)

var stageNames = [NumStages]string{
	"acquire", "spill_load", "pool_grow", "family_fold", "solve",
	"measure", "pmax", "repair", "rank_round",
}

// String returns the stage's stable label.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// maxSpans bounds a trace's span records; spans past the cap are counted
// as dropped rather than grown into (traces must not allocate per span).
const maxSpans = 64

type spanRec struct {
	stage Stage
	start int64 // ns since trace begin
	dur   int64
}

// Trace is one query's stage timeline. A nil *Trace is the disabled
// tracer's output and makes every method a no-op, so instrumented code
// needs no conditionals — and no allocations — when tracing is off.
//
// StartSpan is safe to call from concurrent goroutines sharing one trace
// (batched queries score candidates in parallel); Finish must only be
// called after every span has ended.
type Trace struct {
	t       *Tracer
	kind    string
	begin   time.Time
	total   time.Duration
	n       atomic.Int32
	dropped atomic.Int32
	spans   [maxSpans]spanRec
}

// Span is an open stage timing; End closes it. The zero Span (from a nil
// trace or an overflowing one) is a no-op.
type Span struct {
	tr *Trace
	i  int32
}

// StartSpan opens a span for stage st. On a nil trace it returns the
// no-op zero Span without allocating.
func (tr *Trace) StartSpan(st Stage) Span {
	if tr == nil {
		return Span{}
	}
	i := tr.n.Add(1) - 1
	if i >= maxSpans {
		tr.dropped.Add(1)
		return Span{}
	}
	tr.spans[i] = spanRec{stage: st, start: time.Since(tr.begin).Nanoseconds()}
	return Span{tr: tr, i: i}
}

// AddSpan records an already-measured stage duration (for segments timed
// externally). A no-op on a nil trace.
func (tr *Trace) AddSpan(st Stage, start time.Time, dur time.Duration) {
	if tr == nil {
		return
	}
	i := tr.n.Add(1) - 1
	if i >= maxSpans {
		tr.dropped.Add(1)
		return
	}
	tr.spans[i] = spanRec{stage: st, start: start.Sub(tr.begin).Nanoseconds(), dur: dur.Nanoseconds()}
}

// End closes the span.
func (sp Span) End() {
	if sp.tr == nil {
		return
	}
	r := &sp.tr.spans[sp.i]
	r.dur = time.Since(sp.tr.begin).Nanoseconds() - r.start
}

// Kind returns the query kind the trace was started with.
func (tr *Trace) Kind() string {
	if tr == nil {
		return ""
	}
	return tr.kind
}

// Total returns the finished trace's total duration (0 before Finish).
func (tr *Trace) Total() time.Duration {
	if tr == nil {
		return 0
	}
	return tr.total
}

// EachSpan calls f for every recorded span in start order. Must not race
// open spans; intended after Finish.
func (tr *Trace) EachSpan(f func(stage Stage, dur time.Duration)) {
	if tr == nil {
		return
	}
	n := min(int(tr.n.Load()), maxSpans)
	for i := 0; i < n; i++ {
		f(tr.spans[i].stage, time.Duration(tr.spans[i].dur))
	}
}

// Finish stamps the trace's total duration and hands it to the tracer's
// slowest-N ring and slow-query log. Returns the total; 0 on a nil
// trace.
func (tr *Trace) Finish() time.Duration {
	if tr == nil {
		return 0
	}
	tr.total = time.Since(tr.begin)
	tr.t.record(tr)
	return tr.total
}

// SpanSummary is one span of a rendered trace.
type SpanSummary struct {
	Stage   string `json:"stage"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
}

// TraceSummary is a finished trace rendered for transport: the tracez
// ring entries and the slow-query log lines are this struct as JSON.
type TraceSummary struct {
	Kind    string        `json:"kind"`
	Begin   time.Time     `json:"begin"`
	TotalUs int64         `json:"total_us"`
	Spans   []SpanSummary `json:"spans,omitempty"`
	Dropped int           `json:"dropped_spans,omitempty"`
}

// Summary renders the finished trace.
func (tr *Trace) Summary() TraceSummary {
	if tr == nil {
		return TraceSummary{}
	}
	s := TraceSummary{
		Kind:    tr.kind,
		Begin:   tr.begin,
		TotalUs: tr.total.Microseconds(),
		Dropped: int(tr.dropped.Load()),
	}
	tr.EachSpan(func(st Stage, d time.Duration) {
		i := len(s.Spans)
		s.Spans = append(s.Spans, SpanSummary{Stage: st.String(), StartUs: tr.spans[i].start / 1e3, DurUs: d.Microseconds()})
	})
	return s
}

// Tracer hands out traces and retains the slowest keep of them — the
// tracez ring — plus an optional slow-query log. A nil *Tracer is the
// disabled state: Start returns nil and the whole span machinery
// no-ops.
type Tracer struct {
	keep int

	mu    sync.Mutex
	ring  []*Trace // up to keep slowest finished traces, unordered
	slow  time.Duration
	slowW io.Writer
}

// NewTracer returns a tracer retaining the keep slowest traces
// (DefaultTraceKeep when keep ≤ 0).
func NewTracer(keep int) *Tracer {
	if keep <= 0 {
		keep = DefaultTraceKeep
	}
	return &Tracer{keep: keep}
}

// SetSlowLog arms the slow-query log: finished traces with total ≥
// threshold are written to w as one-line JSON (a TraceSummary). Writes
// are serialized by the tracer. A zero threshold or nil writer disarms.
func (t *Tracer) SetSlowLog(threshold time.Duration, w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.slow, t.slowW = threshold, w
	t.mu.Unlock()
}

// Start opens a trace for one query of the given kind; nil (a no-op
// trace) on a nil tracer.
func (t *Tracer) Start(kind string) *Trace {
	if t == nil {
		return nil
	}
	return &Trace{t: t, kind: kind, begin: time.Now()}
}

// record files a finished trace into the ring and the slow log.
func (t *Tracer) record(tr *Trace) {
	var logLine []byte
	t.mu.Lock()
	if t.slowW != nil && t.slow > 0 && tr.total >= t.slow {
		logLine, _ = json.Marshal(tr.Summary())
	}
	if len(t.ring) < t.keep {
		t.ring = append(t.ring, tr)
	} else {
		minI := 0
		for i, r := range t.ring {
			if r.total < t.ring[minI].total {
				minI = i
			}
		}
		if tr.total > t.ring[minI].total {
			t.ring[minI] = tr
		}
	}
	if logLine != nil {
		t.slowW.Write(append(logLine, '\n'))
	}
	t.mu.Unlock()
}

// Slowest returns the retained traces, slowest first.
func (t *Tracer) Slowest() []TraceSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]TraceSummary, 0, len(t.ring))
	for _, tr := range t.ring {
		out = append(out, tr.Summary())
	}
	t.mu.Unlock()
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].TotalUs > out[j-1].TotalUs; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// traceKey carries a *Trace through a context. A zero-size key type
// keeps WithTrace/TraceFrom allocation-free on the lookup side.
type traceKey struct{}

// WithTrace returns a context carrying tr; the original context when tr
// is nil, so disabled tracing adds no context layer.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom returns the context's trace, or nil — without allocating —
// when none (or a nil context) is present. The nil result flows through
// StartSpan/End as no-ops, which is what keeps disabled-path
// instrumentation at zero cost.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}
