package obs

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 for the value to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a point-in-time int64 metric.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		// Log-bucketed histograms expose as Prometheus summaries:
		// pre-extracted quantiles plus _sum and _count.
		return "summary"
	}
}

// series is one labelled time series inside a family. Exactly one of
// c/g/f/h is set.
type series struct {
	labels string // rendered `k="v",k2="v2"`, or ""
	c      *Counter
	g      *Gauge
	f      func() float64
	h      *Histogram
}

// family is every series sharing one metric name (and therefore one
// HELP/TYPE block in the exposition).
type family struct {
	name   string
	help   string
	typ    metricType
	series []*series
	byLab  map[string]*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use; metric
// handles (Counter, Gauge, Histogram) are created once and cached by
// (name, labels), so registration is idempotent. Registering one name
// with two different types or help strings panics — metric names are an
// API, and a skewed re-registration is a programming error worth failing
// loudly on.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// renderLabels turns alternating key, value arguments into the
// canonical `k="v"` form. Keys are kept in argument order — callers pass
// them consistently, which keeps series identity stable.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label arguments %q", kv))
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(kv[i+1])
		b.WriteByte('"')
	}
	return b.String()
}

// seriesFor returns the (name, labels) series, creating family and
// series as needed, and runs init on it before releasing the registry
// lock: a handle created or a callback stored there is published to
// every later caller and to the exposition together with the series.
func (r *Registry) seriesFor(name, help string, typ metricType, kv []string, init func(*series)) *series {
	labels := renderLabels(kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.fams[name]
	if fam == nil {
		fam = &family{name: name, help: help, typ: typ, byLab: make(map[string]*series)}
		r.fams[name] = fam
	}
	if fam.typ != typ {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, typ, fam.typ))
	}
	s := fam.byLab[labels]
	if s == nil {
		s = &series{labels: labels}
		fam.byLab[labels] = s
		fam.series = append(fam.series, s)
	}
	init(s)
	return s
}

// Counter returns the counter named name with the given alternating
// label key, value arguments, registering it on first use.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	return r.seriesFor(name, help, typeCounter, kv, func(s *series) {
		if s.c == nil && s.f == nil {
			s.c = &Counter{}
		}
	}).c
}

// CounterFunc registers a counter whose value is read from f at
// exposition time — the mirror for counters that already live elsewhere
// (e.g. a server's atomic ledger), costing the hot path nothing.
func (r *Registry) CounterFunc(name, help string, f func() float64, kv ...string) {
	r.seriesFor(name, help, typeCounter, kv, func(s *series) { s.f = f })
}

// Gauge returns the gauge named name, registering it on first use.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	return r.seriesFor(name, help, typeGauge, kv, func(s *series) {
		if s.g == nil && s.f == nil {
			s.g = &Gauge{}
		}
	}).g
}

// GaugeFunc registers a gauge whose value is read from f at exposition
// time.
func (r *Registry) GaugeFunc(name, help string, f func() float64, kv ...string) {
	r.seriesFor(name, help, typeGauge, kv, func(s *series) { s.f = f })
}

// Histogram returns the histogram named name, registering it on first
// use. By the package naming convention histogram values are nanosecond
// durations and the name ends in _seconds; the exposition divides by
// 1e9.
func (r *Registry) Histogram(name, help string, kv ...string) *Histogram {
	return r.seriesFor(name, help, typeHistogram, kv, func(s *series) {
		if s.h == nil {
			s.h = NewHistogram()
		}
	}).h
}

// quantiles every histogram exposes.
var quantiles = []struct {
	q     float64
	label string
}{{0.5, "0.5"}, {0.99, "0.99"}, {0.999, "0.999"}}

// Sample is one exported series value — the JSON-friendly snapshot form
// (see Registry.Snapshot). Histograms contribute one sample per
// quantile plus _sum and _count.
type Sample struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// sortedFams returns the families sorted by name; series within a family
// keep registration order (already stable). Each returned family is a
// copy taken under the registry lock, so an exposition never reads a
// series list that a concurrent registration is appending to.
func (r *Registry) sortedFams() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, &family{name: f.name, help: f.help, typ: f.typ, series: slices.Clone(f.series)})
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (s *series) value() float64 {
	switch {
	case s.f != nil:
		return s.f()
	case s.c != nil:
		return float64(s.c.Value())
	case s.g != nil:
		return float64(s.g.Value())
	}
	return 0
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	return a + "," + b
}

// WritePrometheus renders every family in Prometheus text exposition
// format, families sorted by name and series in registration order, so
// repeated scrapes of an idle registry are byte-identical.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := &errWriter{w: w}
	for _, fam := range r.sortedFams() {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", fam.name, fam.help, fam.name, fam.typ)
		for _, s := range fam.series {
			if fam.typ == typeHistogram {
				snap := s.h.Snapshot()
				for _, q := range quantiles {
					fmt.Fprintf(bw, "%s{%s} %s\n", fam.name,
						joinLabels(s.labels, `quantile="`+q.label+`"`),
						formatFloat(snap.Quantile(q.q)/1e9))
				}
				fmt.Fprintf(bw, "%s_sum%s %s\n", fam.name, curly(s.labels), formatFloat(float64(snap.Sum)/1e9))
				fmt.Fprintf(bw, "%s_count%s %d\n", fam.name, curly(s.labels), snap.Count())
				continue
			}
			fmt.Fprintf(bw, "%s%s %s\n", fam.name, curly(s.labels), formatFloat(s.value()))
		}
	}
	return bw.err
}

func curly(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// Snapshot returns every series as flat samples in exposition order —
// the JSON mirror of WritePrometheus, for transports that already speak
// JSON (e.g. the afserve stats op). Histogram samples carry seconds,
// like the exposition.
func (r *Registry) Snapshot() []Sample {
	var out []Sample
	for _, fam := range r.sortedFams() {
		for _, s := range fam.series {
			if fam.typ == typeHistogram {
				snap := s.h.Snapshot()
				for _, q := range quantiles {
					out = append(out, Sample{fam.name, joinLabels(s.labels, `quantile="`+q.label+`"`), snap.Quantile(q.q) / 1e9})
				}
				out = append(out, Sample{fam.name + "_sum", s.labels, float64(snap.Sum) / 1e9})
				out = append(out, Sample{fam.name + "_count", s.labels, float64(snap.Count())})
				continue
			}
			out = append(out, Sample{fam.name, s.labels, s.value()})
		}
	}
	return out
}

// errWriter latches the first write error so the exposition loop stays
// simple.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return len(p), nil
	}
	n, err := ew.w.Write(p)
	ew.err = err
	return n, err
}
