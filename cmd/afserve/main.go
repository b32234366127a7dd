// Command afserve serves active-friending queries for arbitrary (s,t)
// pairs — the paper's online setting, with many pairs in flight against
// one graph at once. The query protocol (request/response schema,
// dispatch, error shaping) lives in internal/proto; this binary is flag
// parsing plus two transports over one shared Dispatcher: line-
// delimited JSON on stdin/stdout, and (with -metrics-addr) the same
// protocol over HTTP at POST /v1/query (see internal/proto/httpapi).
//
// Usage:
//
//	afserve -file graph.txt < queries.jsonl
//	afserve -dataset Wiki -scale 0.05 -maxbytes 268435456 -j 8
//	afserve -file graph.txt -metrics-addr localhost:6060 &
//	curl -d '{"op":"pmax","s":3,"t":91}' http://localhost:6060/v1/query
//
// Each input line is one request:
//
//	{"id":1,"op":"solve","s":3,"t":91,"alpha":0.2}
//	{"id":2,"op":"solvemax","s":3,"t":91,"budget":5,"realizations":50000}
//	{"id":3,"op":"solvemax","s":3,"t":91,"budgets":[1,2,5,10]}
//	{"id":4,"op":"acceptance","s":3,"t":91,"invited":[17,91],"trials":20000}
//	{"id":5,"op":"pmax","s":3,"t":91,"trials":20000}
//	{"id":6,"op":"pmaxest","s":3,"t":91,"eps":0.1,"n":100000,"trials":2000000}
//	{"id":7,"op":"topk","s":3,"targets":[91,17,64,108],"k":2,"budget":5,"maxdraws":500000}
//	{"id":8,"op":"topkrefine","s":3,"targets":[91,17,64,108],"k":2,"budget":5,"extradraws":500000}
//	{"id":9,"op":"stats"}
//
// A solvemax with a "budgets" list answers the whole sweep in one
// response: the pair's pool is folded into a set-cover family once, one
// solver is reused across budgets, and the measurements are batched
// coverage queries. A topk ranks the "targets" list for source s as one
// scheduled batch (successive halving under the "maxdraws" draw budget;
// omit it to score every candidate at full effort, byte-identical to
// independent solvemax calls) and reports the k winners with their
// per-candidate score, effort and invitation set; a topkrefine with the
// same (s, targets, k, budget, realizations) signature resumes the
// retained run with "extradraws" more budget, paying only the top-up.
//
// -metrics-addr (or its alias -pprof) serves the observability surface
// on a dedicated mux: Prometheus text at /metrics (per-kind request
// latency summaries, per-stage timings, and every stats counter), a
// human-readable /statusz, the slowest retained traces at /tracez, and
// net/http/pprof under /debug/pprof/ for profiling under real traffic —
// plus the query protocol itself at POST /v1/query (one request line,
// or an NDJSON batch answered as an NDJSON stream). Either flag also
// enables server metrics, and the "stats" op then carries the registry
// snapshot in its "metrics" field. -slow-query logs every query slower
// than the threshold as one line of JSON on stderr (kind, total,
// per-stage spans). Instrumentation never changes an answer.
//
// pmax is the cheap fixed-budget estimate (the evaluation pool's type-1
// fraction over "trials" draws); pmaxest runs the paper's Algorithm 2
// stopping rule at relative error "eps" with failure probability 1/"n",
// capped at "trials" draws (each defaulted when omitted). Repeated or
// refined pmaxest queries for one pair reuse the pair's retained draw
// ledger — the response reports the draws consumed, reused and newly
// sampled — and the ledger survives restarts via -spill-dir.
//
// -spill-dir makes pool state survive both eviction and restarts:
// evicted pairs are snapshotted, each as one record appended to a
// segment log in the directory (spill-NNNNNN.afseg files), and restored
// from bytes on their next query; when stdin closes (or on
// SIGINT/SIGTERM) every live pair is flushed and the log synced — after
// in-flight queries on both transports drain, so shutdown never tears
// an answer. A restarted server with the same -seed picks the records
// up lazily, or eagerly with -warm; records are checksummed and carry
// their stream identity, so a damaged or mismatched record just means
// that pair resamples — answers are byte-identical either way. Files of
// the earlier one-file-per-pair format (pair-S-T.afsnap) are not read
// and are removed when the log opens. -spill-ttl expires the records of
// pairs not spilled again within the TTL (at -warm and periodically
// while serving), and the log's compaction reclaims their bytes,
// bounding the directory; an expired pair resamples, which changes no
// answer.
//
// Each response is one JSON line {"id":…,"ok":true,"result":…} (or
// "error" when ok is false). Concurrency is one shared budget across
// both transports: -j is the server's admission limit (MaxInflight) and
// also caps how many pipe requests run at once, -queue bounds how many
// more may wait for a slot, and anything beyond fast-rejects with an
// overload error (an error reply on the pipe, HTTP 429 on /v1/query) —
// the pipe alone never overflows the queue, since it submits at most -j
// at a time, but pipe and HTTP traffic together contend for the same
// slots. With -j > 1 pipe responses may arrive out of order; match them
// by id. Results are pure functions of (-seed, s, t) and the request
// parameters: answer order, concurrency and pool eviction never change
// them.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/httpserve"
	"repro/internal/proto"
	"repro/internal/proto/httpapi"
	"repro/internal/server"
	"repro/internal/weights"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "afserve:", err)
		os.Exit(1)
	}
}

// drainGate counts in-flight pipe requests and refuses new ones once
// drain begins — the pipe-side analog of httpapi.Handler's drain.
type drainGate struct {
	mu     sync.Mutex
	wg     sync.WaitGroup
	closed bool
}

func (g *drainGate) begin() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	g.wg.Add(1)
	return true
}

func (g *drainGate) end() { g.wg.Done() }

func (g *drainGate) drain() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.wg.Wait()
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("afserve", flag.ContinueOnError)
	file := fs.String("file", "", "edge-list file to serve")
	dataset := fs.String("dataset", "", "Table I dataset analog to generate instead of -file")
	scale := fs.Float64("scale", 0.05, "dataset scale")
	seed := fs.Int64("seed", 1, "root seed; every answer is a pure function of (seed, s, t)")
	workers := fs.Int("workers", 0, "sampling workers per query, and pairs migrated at once by a delta (0 = CPUs)")
	shards := fs.Int("shards", 0, "pair-map lock shards (0 = default)")
	maxBytes := fs.Int64("maxbytes", 0, "pool memory budget in bytes (0 = unlimited)")
	spillDir := fs.String("spill-dir", "", "append evicted pools to a spill log in this directory and flush all pools on shutdown")
	spillTTL := fs.Duration("spill-ttl", 0, "expire the spill records of pairs not spilled again within this TTL (0 = keep forever)")
	warm := fs.Bool("warm", false, "preload every pair in the -spill-dir log before serving")
	jobs := fs.Int("j", 1, "max in-flight queries across both transports (the admission limit); >1 answers the pipe out of order")
	queue := fs.Int("queue", 16, "queries that may wait for an in-flight slot before the server fast-rejects with an overload error")
	obsCLI := httpserve.AddFlags(fs)
	slowQuery := fs.Duration("slow-query", 0, "log queries slower than this as one-line JSON on stderr (0 = off; implies metrics)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *warm && *spillDir == "" {
		return fmt.Errorf("-warm requires -spill-dir")
	}
	if *spillDir != "" {
		if err := os.MkdirAll(*spillDir, 0o755); err != nil {
			return fmt.Errorf("creating -spill-dir: %w", err)
		}
	}

	var g *graph.Graph
	var err error
	switch {
	case *file != "":
		f, err2 := os.Open(*file)
		if err2 != nil {
			return fmt.Errorf("opening graph: %w", err2)
		}
		g, err = gen.ReadEdgeList(f)
		f.Close()
	case *dataset != "":
		var d gen.Dataset
		d, err = gen.DatasetByName(*dataset)
		if err == nil {
			g, err = d.Generate(*scale, *seed)
		}
	default:
		return fmt.Errorf("one of -file or -dataset is required")
	}
	if err != nil {
		return err
	}
	if *jobs < 1 {
		*jobs = 1
	}
	if *queue < 0 {
		*queue = 0
	}

	var o *obs.Obs
	if obsCLI.Enabled() || *slowQuery > 0 {
		o = obs.New()
		if *slowQuery > 0 {
			o.SetSlowLog(*slowQuery, os.Stderr)
		}
	}
	sv := server.New(g, weights.NewDegree(g), server.Config{
		MaxPoolBytes: *maxBytes,
		Shards:       *shards,
		Seed:         *seed,
		Workers:      *workers,
		SpillDir:     *spillDir,
		SpillTTL:     *spillTTL,
		MaxInflight:  *jobs,
		MaxQueue:     *queue,
		Obs:          o,
	})
	d := proto.NewDispatcher(sv)
	api := httpapi.New(d)
	obsOpts := httpserve.Options{Query: api}
	if o != nil {
		obsOpts.Registry, obsOpts.Tracer, obsOpts.Statusz = o.Registry, o.Tracer, sv.WriteStatusz
	}
	obsSrv, err := obsCLI.Start(obsOpts)
	if err != nil {
		return err
	}
	defer obsSrv.Close()
	ctx := context.Background()
	if *warm {
		n, err := sv.Warm()
		if err != nil {
			return fmt.Errorf("warming from %s: %w", *spillDir, err)
		}
		fmt.Fprintf(os.Stderr, "afserve: warmed %d pairs from %s\n", n, *spillDir)
	}
	// Graceful shutdown: flush every live pair's pools to the spill
	// directory exactly once — after in-flight queries on both transports
	// have drained, so the flush never races an answer in progress.
	var flushOnce sync.Once
	flush := func() {
		flushOnce.Do(func() {
			if err := sv.SpillAll(); err != nil {
				fmt.Fprintln(os.Stderr, "afserve: spill flush:", err)
			}
		})
	}
	var pipe drainGate
	// Deferred drain order (LIFO): on the EOF return path the pipe is
	// already drained by the loop's wg semantics, so drain HTTP, then
	// flush.
	defer flush()
	defer api.Drain()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	done := make(chan struct{})
	defer close(done) // unblocks the watcher so repeated run() calls don't leak it
	go func() {
		select {
		case <-sig:
			// In-flight queries finish (new ones are refused: the pipe
			// gate closes, HTTP answers 503), then the spill tier flushes.
			pipe.drain()
			api.Drain()
			flush()
			os.Exit(0)
		case <-done:
		}
	}()

	var mu sync.Mutex // serializes response lines
	bw := bufio.NewWriter(out)
	defer bw.Flush()
	enc := json.NewEncoder(bw)
	reply := func(resp proto.Response) error {
		mu.Lock()
		defer mu.Unlock()
		if err := enc.Encode(resp); err != nil {
			return err
		}
		// Flush per response so pipelined clients see answers promptly.
		return bw.Flush()
	}

	// The pipe's local cap matches the admission limit: at most -j pipe
	// queries are submitted at once, so pipe-only traffic admits
	// instantly and never overflows the shared queue — rejections only
	// appear when HTTP traffic contends for the same slots.
	sem := make(chan struct{}, *jobs)
	var failed atomic.Bool // a reply could not be written; stop serving
	var replyErr error
	var replyErrOnce sync.Once
	fail := func(err error) {
		replyErrOnce.Do(func() { replyErr = err; failed.Store(true) })
	}

	lr := proto.NewLineReader(in)
	var readErr error
	for !failed.Load() {
		line, err := lr.ReadLine()
		if errors.Is(err, proto.ErrOversized) {
			// Unlike the old scanner (fatal ErrTooLong), an oversized line
			// is consumed, answered, and the stream continues.
			if err := reply(proto.Oversized()); err != nil {
				fail(err)
			}
			continue
		}
		if err != nil {
			if err != io.EOF {
				readErr = err
			}
			break
		}
		if len(line) == 0 {
			continue
		}
		req, errResp := proto.DecodeRequest(line)
		if errResp != nil {
			if err := reply(*errResp); err != nil {
				fail(err)
			}
			continue
		}
		if !pipe.begin() {
			break // draining; the signal watcher owns shutdown
		}
		sem <- struct{}{}
		go func(req proto.Request) {
			defer pipe.end()
			defer func() { <-sem }()
			if err := reply(d.Dispatch(ctx, req)); err != nil {
				fail(err)
			}
		}(req)
	}
	// Always drain in-flight workers before returning: the deferred
	// flush must not race their writes.
	pipe.drain()
	if replyErr != nil {
		return replyErr
	}
	return readErr
}
