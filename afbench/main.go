// Command afbench is the end-to-end benchmark for afserve. It builds a
// fixed, seeded request trace for one workload, runs it against a real
// afserve process in a closed loop, checks a sample of the answers
// against a clean in-process reference server, and prints every metric
// by name and unit. With -trace 1 it also replays the same trace through
// an in-process server layer by layer and prints the per-layer metrics.
//
// Usage (from the repository root; afbench/run.sh builds both binaries):
//
//	bash afbench/run.sh --workload hot-mix --seed 1 --seconds 10 --trace 0
//
// A run replays a fixed number of requests: the workload's nominal rate
// times --seconds, at least 1000. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics; the
// line before it records the host (commit, Go version, CPUs and a CPU
// calibration loop timed before and after the run).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/proto"
)

// setupReps is how many times a run sets the server up; setup_s is the
// median.
const setupReps = 3

// minMeasured keeps p99 at least ten samples from the tail.
const minMeasured = 1000

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	afserve  string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "hot-mix", "workload: hot-mix, cold-churn or rank-delta")
	flag.Int64Var(&o.seed, "seed", 1, "trace seed")
	flag.IntVar(&o.seconds, "seconds", 10, "sizes the measured trace: the workload's nominal rate times this")
	flag.IntVar(&traceFlag, "trace", 0, "1 = print per-layer metrics from a traced in-process pass")
	flag.StringVar(&o.root, "root", ".", "repository checkout (work files go to <root>/.bench_build)")
	flag.StringVar(&o.afserve, "afserve", "", "afserve binary")
	flag.Parse()
	o.trace = traceFlag == 1
	out, host, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "afbench:", err)
		os.Exit(1)
	}
	hb, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(hb))
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
}

func run(o options) (*output, *hostRecord, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, nil, err
	}
	if o.afserve == "" {
		return nil, nil, fmt.Errorf("-afserve is required")
	}
	if _, err := os.Stat(o.afserve); err != nil {
		return nil, nil, err
	}
	host := newHostRecord(o.root)
	work := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, nil, err
	}
	workDir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(workDir)

	g, err := loadGraph()
	if err != nil {
		return nil, nil, err
	}
	n := max(minMeasured, w.Rate*o.seconds)
	tr := makeTrace(w, g, o.seed, n)

	e2e, err := endToEnd(o.afserve, workDir, w, tr)
	if err != nil {
		return nil, nil, err
	}
	out := &output{Correct: true, Attempted: len(tr.Measured), Failed: e2e.failed, Metrics: map[string]metric{}}
	fail := func(format string, args ...any) {
		out.Correct = false
		fmt.Fprintf(os.Stderr, "afbench: "+format+"\n", args...)
	}
	if e2e.failed > 0 {
		fail("%d of %d requests failed", e2e.failed, len(tr.Measured))
	}
	if e2e.stats.Rejected != 0 {
		fail("server rejected %d requests", e2e.stats.Rejected)
	}
	if _, misses := e2e.stats.hitsMisses(); w.Name == "hot-mix" && misses != 0 {
		fail("hot-mix measured phase missed the cache %d times", misses)
	}
	if err := checkReplies(g, tr, e2e.checked); err != nil {
		fail("correctness gate: %v", err)
	}
	if !o.trace {
		out.Metrics = e2e.metrics
	} else {
		lm, err := layers(g, w, tr, e2e, workDir)
		if err != nil {
			return nil, nil, err
		}
		for _, f := range lm.failures {
			fail("%s", f)
		}
		out.Metrics = lm.metrics
	}
	host.CalibAfterS = calibrate()
	return out, host, nil
}

// e2eResult is the untraced end-to-end run's outcome.
type e2eResult struct {
	metrics map[string]metric
	failed  int
	wall    time.Duration
	stats   statsReply // ledger deltas over the measured phase
	checked map[int][]byte
}

// endToEnd sets afserve up setupReps times (keeping the last instance),
// then replays the measured trace against it.
func endToEnd(bin, workDir string, w workload, tr *trace) (*e2eResult, error) {
	var setups []float64
	var srv *afserve
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := startServer(bin, workDir, w)
		if err != nil {
			return nil, err
		}
		if len(tr.Warm) > 0 {
			cs := s.callers(w.Clients)
			warm, _ := replay(cs, tr.Warm, nil)
			closeCallers(cs)
			for j, x := range warm {
				if !x.ok {
					s.stop()
					return nil, fmt.Errorf("warm-up request %s failed: %s", tr.Warm[j].Line, x.reply)
				}
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()

	st0, err := srv.stats()
	if err != nil {
		return nil, err
	}
	cs := srv.callers(w.Clients)
	samples, wall, qps := replayWindows(cs, tr.Measured)
	closeCallers(cs)
	st1, err := srv.stats()
	if err != nil {
		return nil, err
	}
	res := &e2eResult{wall: wall, stats: st1.sub(st0), checked: map[int][]byte{}}
	for _, i := range gateIndexes(tr) {
		res.checked[i] = samples[i].reply
	}
	lats := make([]float64, len(samples))
	inSLO := 0
	for i, s := range samples {
		lats[i] = float64(s.lat) / float64(time.Millisecond)
		if !s.ok {
			res.failed++
		} else if lats[i] <= w.SLO {
			inSLO++
		}
	}
	logSummary(tr, samples, res.stats)
	sort.Float64s(lats)
	accept, invited := answerQuality(tr.Measured, samples)
	n := float64(len(samples))
	res.metrics = map[string]metric{
		"setup_s":        {median(setups), "s"},
		"throughput_qps": {qps, "1/s"},
		"latency_p50_ms": {quantile(lats, 0.50), "ms"},
		"latency_p99_ms": {quantile(lats, 0.99), "ms"},
		"slo_frac":       {float64(inSLO) / n, "fraction"},
		"peak_rss_mb":    {srv.peakRSSMB(), "MB"},
		"accept_prob":    {accept, "probability"},
		"invited_mean":   {invited, "nodes"},
	}
	return res, nil
}

// windows is how many consecutive segments the measured trace is
// replayed in; throughput is the median of the segments' rates, so a
// burst of host jitter in one segment does not move it.
const windows = 10

// replayWindows replays reqs segment by segment and returns the samples,
// the total wall time and the median segment throughput.
func replayWindows(cs []caller, reqs []request) ([]sample, time.Duration, float64) {
	var out []sample
	var wall time.Duration
	var rates []float64
	for k := 0; k < windows; k++ {
		seg := reqs[k*len(reqs)/windows : (k+1)*len(reqs)/windows]
		s, d := replay(cs, seg, nil)
		out = append(out, s...)
		wall += d
		rates = append(rates, float64(len(seg))/d.Seconds())
	}
	fmt.Fprintf(os.Stderr, "afbench: window rates %.1f/s\n", rates)
	return out, wall, median(rates)
}

func closeCallers(cs []caller) {
	for _, c := range cs {
		if h, ok := c.(*httpCaller); ok {
			h.close()
		}
	}
}

// answerQuality is the paper's objective over the distinct answers of a
// replay: the mean decorrelated f(I) of every returned invitation set
// that carries one (solvemax, topk winners), and the mean |I| of every
// returned set (solve too). Each distinct (request, epoch) counts once,
// so the figures do not depend on how often the trace repeats a query.
func answerQuality(reqs []request, samples []sample) (acceptProb, invitedMean float64) {
	seen := map[string]bool{}
	var fSum, iSum float64
	var fN, iN int
	for i, s := range samples {
		if !s.ok {
			continue
		}
		q := reqs[i].Req
		q.ID = 0
		kb, _ := json.Marshal(q)
		key := fmt.Sprint(reqs[i].Epoch, string(kb))
		if seen[key] {
			continue
		}
		seen[key] = true
		var r reply
		if json.Unmarshal(s.reply, &r) != nil {
			continue
		}
		addMax := func(m proto.MaxSolution) {
			fSum += m.EstimatedF
			fN++
			iSum += float64(len(m.Invited))
			iN++
		}
		switch q.Op {
		case "solvemax":
			if len(q.Budgets) > 0 {
				var ms []proto.MaxSolution
				json.Unmarshal(r.Result, &ms)
				for _, m := range ms {
					addMax(m)
				}
			} else {
				var m proto.MaxSolution
				json.Unmarshal(r.Result, &m)
				addMax(m)
			}
		case "solve":
			var sol proto.Solution
			json.Unmarshal(r.Result, &sol)
			iSum += float64(len(sol.Invited))
			iN++
		case "topk":
			var tk proto.TopKResult
			json.Unmarshal(r.Result, &tk)
			for _, c := range tk.Winners {
				fSum += c.Score
				fN++
				iSum += float64(len(c.Invited))
				iN++
			}
		}
	}
	return fSum / float64(max(fN, 1)), iSum / float64(max(iN, 1))
}

// quantile is the nearest-rank quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// logSummary prints per-op latency quantiles and the server's ledger
// deltas to standard error, beside the result.
func logSummary(tr *trace, samples []sample, st statsReply) {
	byOp := map[string][]float64{}
	for i, s := range samples {
		op := tr.Measured[i].Req.Op
		byOp[op] = append(byOp[op], float64(s.lat)/float64(time.Millisecond))
	}
	for op, l := range byOp {
		sort.Float64s(l)
		fmt.Fprintf(os.Stderr, "afbench: op %s n=%d p10/p25/p50/p75/p90 = %.3f/%.3f/%.3f/%.3f/%.3f ms\n", op, len(l),
			quantile(l, 0.1), quantile(l, 0.25), quantile(l, 0.5), quantile(l, 0.75), quantile(l, 0.9))
	}
	fmt.Fprintf(os.Stderr, "afbench: ledger %+v\n", st)
}
