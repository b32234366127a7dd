// Package activefriending is the public API of this reproduction of
// "An Approximation Algorithm for Active Friending in Online Social
// Networks" (Tong, Wang, Li, Wu, Du — ICDCS 2019).
//
// Active friending helps an initiator s methodically befriend a target t:
// under the linear-threshold friending model, a user accepts an invitation
// once the combined familiarity of their mutual friends with s reaches a
// random threshold, so s should invite a carefully chosen set of
// intermediate users first. The Minimum Active Friending problem asks for
// the smallest invitation set I with f(I) ≥ α·p_max, where f is the
// acceptance probability and p_max its maximum over all invitation sets.
//
// The package exposes the paper's RAF algorithm (randomized, O(√n)
// approximation with controllable success probability), the exact
// polynomial special case α = 1 (V_max), the HD/SP baselines, forward and
// reverse Monte-Carlo estimators of f, synthetic dataset generators, and
// an experiment harness that regenerates every table and figure of the
// paper's evaluation.
//
// Every algorithm draws reverse realizations through a shared engine
// (internal/engine) that stores pools in a compact CSR arena, samples in
// worker-count-independent chunks — all results are pure functions of the
// seed — and measures coverage by scanning the pool's sorted paths.
//
// Quick start, one-shot:
//
//	g, _ := activefriending.GenerateDataset("Wiki", 0.05, 1)
//	p, _ := activefriending.NewProblem(g, s, t)
//	sol, _ := p.Solve(ctx, activefriending.Options{Alpha: 0.3})
//	fmt.Println(sol.Invited, sol.PStar)
//
// For repeated queries on one (s,t) instance — an α-sweep, solve-then-
// measure loops, serving traffic — open a Session: it samples the
// realization pool once, grows it on demand, and reuses it (plus the
// cached V_max and p_max estimate) across Solve, SolveMax,
// AcceptanceProbability and Pmax calls:
//
//	sess := p.NewSession(1, 0) // seed 1, all CPUs
//	for _, alpha := range []float64{0.1, 0.2, 0.3} {
//		sol, _ := sess.Solve(ctx, activefriending.Options{Alpha: alpha})
//		fmt.Println(alpha, len(sol.Invited))
//	}
//
// To serve many (s,t) pairs on one graph — the paper's online social
// network setting — open a Server instead: it creates pair sessions on
// demand, shards them across locks, and evicts cold pools under a memory
// budget. Every answer is a pure function of (seed, s, t), so eviction
// and re-admission never change results:
//
//	sv := activefriending.NewServer(g, activefriending.ServerConfig{
//		MaxPoolBytes: 256 << 20, Seed: 1,
//	})
//	sol, _ := sv.Solve(ctx, s, t, activefriending.Options{Alpha: 0.3})
//	f, _ := sv.AcceptanceProbability(ctx, s, t, sol.Invited, 20000)
//
// A friending surface usually ranks many candidate targets for one
// source rather than answering a single pair. Server.TopK serves that as
// one scheduled batch: a successive-halving schedule spends most of the
// draw budget on the leading candidates (total draws sublinear in the
// candidate count), every candidate's partial-effort score is a prefix
// of its full-effort one, and an unlimited budget returns byte-identical
// answers to independent SolveMax calls per candidate. The result is
// anytime: TopKRefine resumes the schedule with more budget, reusing
// every draw already paid for:
//
//	top, _ := sv.TopK(ctx, s, candidates, 5, activefriending.TopKOptions{
//		Budget: 10, Realizations: 20000, MaxDraws: 500000,
//	})
//	for _, w := range top.Winners {
//		fmt.Println(w.Target, w.Score, w.Effort)
//	}
//	top, _ = sv.TopKRefine(ctx, top, 500000) // tighten the leaders
//
// The served graph may mutate: Server.ApplyDelta adds and removes edges
// atomically, producing the next epoch, and carries every cached pair
// across it by repair — draw groups whose sampled walks never consulted
// a changed node keep their bytes; only damaged groups are re-drawn —
// so a sparse mutation costs a small fraction of rebuilding the cache,
// and answers afterwards are byte-identical to a server built fresh on
// the mutated graph. The repair runs on each pair's first query after
// the delta, not inside the call, so the delta itself returns quickly
// and its reply counts the pairs carried but (normally) no repair:
//
//	res, _ := sv.ApplyDelta(ctx, &activefriending.Delta{
//		Add: []activefriending.Edge{{U: 3, V: 17}},
//	})
//	fmt.Println(res.PairsMigrated, res.RepairDrawsSaved) // RepairDrawsSaved is 0: no pair repaired yet
//	// ... query the pairs; each repair is ledgered as it runs:
//	fmt.Println(sv.Stats().RepairDrawsSaved)
//
// A Server also speaks the serving protocol over HTTP: Handler (or the
// Server itself, via ServeHTTP) answers POST requests carrying one
// protocol line — or an NDJSON batch — with the same reply bytes the
// stdin/stdout transport produces, and ServerConfig.MaxInflight /
// MaxQueue bound how much traffic executes at once (beyond the bound
// the server fast-rejects with ErrOverloaded / HTTP 429 instead of
// queueing unboundedly):
//
//	sv := activefriending.NewServer(g, activefriending.ServerConfig{
//		Seed: 1, MaxInflight: 8, MaxQueue: 64,
//	})
//	http.Handle("/v1/query", sv.Handler())
//	go http.ListenAndServe(":8080", nil)
//	// curl -d '{"op":"solvemax","s":3,"t":91,"budget":5}' localhost:8080/v1/query
//
// The result types (Solution, MaxSolution, TopKResult, DeltaSummary,
// ServerStats, …) are the protocol's own wire types, declared once —
// the answers in internal/proto, the stats ledger in internal/server
// beside the counter table that fills it — and aliased here: a facade
// answer marshals to exactly the bytes of the matching protocol reply's
// result, and request defaults are applied by the same code on both
// paths.
//
// cmd/afserve exposes the same protocol over line-delimited JSON on
// stdin/stdout and (with -metrics-addr) over HTTP at /v1/query, with
// graceful drain on SIGTERM.
//
// # Persistence
//
// Pools can be snapshotted to disk and loaded back byte-identically
// (internal/snapshot): a snapshot is a versioned, checksummed,
// little-endian blob — a 72-byte header (seed, stream namespace,
// instance fingerprint, universe, total draws), the CSR offset table,
// the per-path draw indices, the path arena, and a CRC-32C footer — read
// back by copy. Because every pool is a pure function of (seed, l), and
// every answer a pure function of its pool, answers
// computed from a loaded snapshot are byte-identical to answers computed
// from fresh sampling; a corrupted, truncated or seed-mismatched file is
// rejected by validation and the pool is simply resampled. Persistence
// is therefore purely a latency tier (loading a pool is ~25× faster than
// resampling it).
//
// The p_max stopping rule (Algorithm 2) runs through the same chunked
// engine: each Session and server pair keeps a resumable draw ledger, so
// asking for a tighter ε₀ extends the existing draw sequence instead of
// re-running the rule, and the ledger is persisted alongside the pools.
//
// Give a Server a ServerConfig.SpillDir and eviction under MaxPoolBytes
// appends the victim's pools to a log on disk instead of discarding
// them, with re-admission restoring from bytes; Server.SpillAll flushes
// every live pair (graceful shutdown) and Server.Warm preloads every
// pair the log holds (restart). ServerStats ledgers the spills, loads, bytes and draws
// saved. afserve wires this up end to end:
//
//	afserve -file graph.txt -seed 1 -maxbytes 268435456 -spill-dir /var/tmp/af
//	afserve -file graph.txt -seed 1 -spill-dir /var/tmp/af -warm   # restart, disk-warm
package activefriending

import (
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ltm"
	"repro/internal/maxaf"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/proto/httpapi"
	"repro/internal/server"
	"repro/internal/weights"
)

// Node identifies a user; nodes are dense integers in [0, NumUsers).
type Node = graph.Node

// Graph is the immutable social graph (see NewGraphBuilder, LoadEdgeList,
// GenerateDataset).
type Graph = graph.Graph

// NewGraphBuilder returns a builder for a social graph with n users.
func NewGraphBuilder(n int) *graph.Builder { return graph.NewBuilder(n) }

// LoadEdgeList parses a SNAP-style edge list ("u v" per line, '#'
// comments, arbitrary ids remapped densely).
func LoadEdgeList(r io.Reader) (*Graph, error) { return gen.ReadEdgeList(r) }

// SaveEdgeList writes g in the same format.
func SaveEdgeList(w io.Writer, g *Graph) error { return gen.WriteEdgeList(w, g) }

// GenerateDataset synthesizes the offline analog of one of the paper's
// Table I datasets ("Wiki", "HepTh", "HepPh", "Youtube") at the given
// scale ∈ (0,1] of the published node count.
func GenerateDataset(name string, scale float64, seed int64) (*Graph, error) {
	d, err := gen.DatasetByName(name)
	if err != nil {
		return nil, err
	}
	return d.Generate(scale, seed)
}

// DatasetNames lists the Table I registry in the paper's order.
func DatasetNames() []string {
	ds := gen.Datasets()
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = d.Name
	}
	return names
}

// Problem is an active-friending instance: a network with the paper's
// degree-normalized familiarity weights (w(u,v) = 1/|N_v|), an initiator
// and a target. Immutable and safe for concurrent use.
type Problem struct {
	in  *ltm.Instance
	eng *engine.Engine
}

func newProblem(in *ltm.Instance) *Problem {
	return &Problem{in: in, eng: engine.New(in)}
}

// NewProblem validates and builds a problem on g with the paper's weight
// convention. s and t must be distinct, existing, non-adjacent users.
func NewProblem(g *Graph, s, t Node) (*Problem, error) {
	in, err := ltm.NewInstance(g, weights.NewDegree(g), s, t)
	if err != nil {
		return nil, err
	}
	return newProblem(in), nil
}

// NewProblemWithWeights builds a problem with an explicit familiarity
// function; weightOf(u, v) is v's familiarity with u and must satisfy
// Σ_{u∈N_v} weightOf(u,v) ≤ 1 for every v.
func NewProblemWithWeights(g *Graph, s, t Node, weightOf func(u, v Node) float64) (*Problem, error) {
	sch, err := weights.NewExplicit(g, weightOf)
	if err != nil {
		return nil, err
	}
	in, err := ltm.NewInstance(g, sch, s, t)
	if err != nil {
		return nil, err
	}
	return newProblem(in), nil
}

// Initiator returns s.
func (p *Problem) Initiator() Node { return p.in.S() }

// Target returns t.
func (p *Problem) Target() Node { return p.in.T() }

// Graph returns the underlying graph.
func (p *Problem) Graph() *Graph { return p.in.Graph() }

// Options configures Solve. The zero value solves with the paper's
// experimental defaults (α = 0.1, ε = 0.01, N = 100000) in the practical
// sampling regime.
type Options struct {
	// Alpha is the required fraction of p_max (default 0.1).
	Alpha float64
	// Eps is the accuracy slack (default 0.01): the guarantee is
	// f(I) ≥ (Alpha−Eps)·p_max with probability ≥ 1 − 2/N.
	Eps float64
	// N controls the success probability (default 100000).
	N float64
	// Seed fixes all randomness; Workers bounds parallelism (0 = CPUs).
	Seed    int64
	Workers int
	// MaxRealizations caps the sampled pool (default 200000; 0 keeps the
	// default — use Unbounded for the pure-theory sizing).
	MaxRealizations int64
	// MaxPmaxDraws caps the p_max estimation (default 2000000).
	MaxPmaxDraws int64
	// Realizations, when positive, skips the theoretical pool sizing and
	// uses exactly this many realizations (the practical regime of the
	// paper's Sec. IV-E). With a Session, a fixed Realizations across an
	// α-sweep means the pool is sampled exactly once.
	Realizations int64
	// Unbounded disables both caps: pool sizing follows Eq. 16 exactly.
	// Feasible only on small instances.
	Unbounded bool
}

// Solution is the output of Solve. It is the wire type of the serving
// protocol: a protocol reply's result marshals from the same value.
type Solution = proto.Solution

// ErrTargetUnreachable reports p_max ≈ 0: no invitation strategy works.
var ErrTargetUnreachable = core.ErrTargetUnreachable

// coreConfig is the RAF configuration of o with the defaults applied.
func (o Options) coreConfig() core.Config {
	return server.SolveDefaults(core.Config{
		Alpha:           o.Alpha,
		Eps:             o.Eps,
		N:               o.N,
		Seed:            o.Seed,
		Workers:         o.Workers,
		MaxRealizations: o.MaxRealizations,
		MaxPmaxDraws:    o.MaxPmaxDraws,
		OverrideL:       o.Realizations,
	}, o.Unbounded)
}

// Solve runs the RAF algorithm (Algorithm 4 of the paper). The result is
// deterministic for a fixed Options.Seed regardless of Options.Workers.
func (p *Problem) Solve(ctx context.Context, opts Options) (*Solution, error) {
	cfg := opts.coreConfig()
	res, err := core.NewSession(p.in, cfg.Seed, cfg.Workers).RAF(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return proto.SolutionFrom(res), nil
}

// MaxSolution is the output of SolveMax; like Solution, it is the
// protocol's wire type.
type MaxSolution = proto.MaxSolution

// SolveMax solves the *maximum* active friending variant (the problem of
// Yang et al. that the paper's related work targets): maximize f(I)
// subject to |I| ≤ budget, using the same realization machinery with a
// budgeted max-coverage greedy. realizations ≤ 0 selects the default pool
// size.
func (p *Problem) SolveMax(ctx context.Context, budget int, realizations int64, seed int64) (*MaxSolution, error) {
	l := maxaf.Realizations(realizations)
	pool, err := p.eng.SamplePool(ctx, l, 0, seed)
	if err != nil {
		return nil, err
	}
	res, err := maxaf.SolveFromPool(ctx, p.in, budget, pool)
	if err != nil {
		return nil, err
	}
	// Measure the returned set on fresh draws (the estimator's stream
	// family is decorrelated from the solve pool's): the in-pool fraction
	// is what the greedy optimized and overstates f.
	f, err := p.eng.EstimateF(ctx, res.Invited, l, 0, seed)
	if err != nil {
		return nil, err
	}
	return proto.MaxSolutionFrom(res, f), nil
}

// Vmax returns the unique minimum invitation set achieving p_max
// (Lemma 7; the polynomial α = 1 special case).
func (p *Problem) Vmax() ([]Node, error) {
	vm, err := core.Vmax(p.in)
	if err != nil {
		return nil, err
	}
	return vm.Members(), nil
}

// AcceptanceProbability estimates f(invited) with trials reverse
// Monte-Carlo samples (Corollary 1 of the paper). Deterministic per seed,
// independent of the worker count.
func (p *Problem) AcceptanceProbability(ctx context.Context, invited []Node, trials int64, seed int64) (float64, error) {
	set, err := server.InvitedSet(p.in.Graph(), invited)
	if err != nil {
		return 0, err
	}
	return p.eng.EstimateF(ctx, set, trials, 0, seed)
}

// AcceptanceProbabilityForward estimates f(invited) by simulating the
// friending process (Process 1) directly — slower, used to cross-check the
// reverse estimator (Lemma 1 guarantees agreement).
func (p *Problem) AcceptanceProbabilityForward(ctx context.Context, invited []Node, trials int64, seed int64) (float64, error) {
	set, err := server.InvitedSet(p.in.Graph(), invited)
	if err != nil {
		return 0, err
	}
	return p.in.EstimateF(ctx, set, trials, 0, seed)
}

// Pmax estimates p_max = f(V) with trials reverse samples.
func (p *Problem) Pmax(ctx context.Context, trials int64, seed int64) (float64, error) {
	all := graph.NewNodeSet(p.in.Graph().NumNodes())
	all.Fill()
	return p.eng.EstimateF(ctx, all, trials, 0, seed)
}

// HighDegreeSet returns the HD baseline's invitation set of size k.
func (p *Problem) HighDegreeSet(k int) []Node {
	order := baselines.HighDegree{}.Rank(p.in)
	return baselines.PrefixSet(p.in.Graph().NumNodes(), order, k).Members()
}

// ShortestPathSet returns the SP baseline's invitation set of size k.
func (p *Problem) ShortestPathSet(k int) []Node {
	order := baselines.ShortestPath{}.Rank(p.in)
	return baselines.PrefixSet(p.in.Graph().NumNodes(), order, k).Members()
}

// IsUnreachable reports whether err indicates a pair with p_max ≈ 0.
func IsUnreachable(err error) bool { return errors.Is(err, core.ErrTargetUnreachable) }

// Session serves repeated queries on one problem from one pair session
// (the same state a Server keeps per pair): the realization pool
// (sampled once, grown incrementally, never resampled), the exact V_max,
// the p_max draw ledger, and a separate evaluation pool for f
// measurements. An α-sweep of Solve calls with a fixed
// Options.Realizations samples the pool exactly once; SolveMax reuses
// the same pool the minimization solves use.
//
// The session's seed and worker count govern every call (Options.Seed and
// Options.Workers are ignored), and all results are independent of the
// worker count. Safe for concurrent use.
type Session struct {
	p    *Problem
	core *core.Session
}

// NewSession opens a session on the problem. seed fixes all randomness;
// workers bounds sampling parallelism (0 = all CPUs) without affecting
// any result.
func (p *Problem) NewSession(seed int64, workers int) *Session {
	return &Session{p: p, core: core.NewSession(p.in, seed, workers)}
}

// Solve runs the RAF algorithm against the session's cached pool.
func (s *Session) Solve(ctx context.Context, opts Options) (*Solution, error) {
	res, err := s.core.RAF(ctx, opts.coreConfig())
	if err != nil {
		return nil, err
	}
	return proto.SolutionFrom(res), nil
}

// SolveMax solves the budgeted maximum variant against the session's
// cached pool (shared with Solve). realizations ≤ 0 selects the default
// pool size. EstimatedF is measured against the session's decorrelated
// evaluation pool; the in-pool fraction the greedy optimized is TrainF.
func (s *Session) SolveMax(ctx context.Context, budget int, realizations int64) (*MaxSolution, error) {
	res, f, err := maxaf.SolveMaxOn(ctx, s.core, budget, realizations)
	if err != nil {
		return nil, err
	}
	return proto.MaxSolutionFrom(res, f), nil
}

// SolveMaxBudgets answers SolveMax for every budget in one shot against
// the session's cached pool: the pool's set-cover family is folded once,
// one solver's scratch is reused across the sweep, TrainF is each
// greedy's own covered tally, and the EstimatedF measurements are one
// batched coverage query on the evaluation pool. Results are identical
// to calling SolveMax per budget.
func (s *Session) SolveMaxBudgets(ctx context.Context, budgets []int, realizations int64) ([]*MaxSolution, error) {
	results, fs, err := maxaf.SolveMaxBudgetsOn(ctx, s.core, budgets, realizations)
	if err != nil {
		return nil, err
	}
	return proto.MaxSolutionsFrom(results, fs), nil
}

// AcceptanceProbability estimates f(invited) as a coverage query against
// the session's evaluation pool (grown to at least trials draws), so
// repeated measurements share draws.
func (s *Session) AcceptanceProbability(ctx context.Context, invited []Node, trials int64) (float64, error) {
	set, err := server.InvitedSet(s.p.in.Graph(), invited)
	if err != nil {
		return 0, err
	}
	return s.core.Eval().EstimateF(ctx, set, trials)
}

// Pmax estimates p_max = f(V) from the session's evaluation pool: it is
// the pool's type-1 fraction over exactly trials draws. For an estimate
// carrying the paper's (ε₀, 1/N) stopping-rule guarantee — and for
// incremental refinement — use EstimatePmax.
func (s *Session) Pmax(ctx context.Context, trials int64) (float64, error) {
	return s.core.Eval().FractionType1(ctx, trials)
}

// PmaxEstimate is the outcome of EstimatePmax: the Algorithm 2 estimate
// together with its draw accounting.
type PmaxEstimate struct {
	// Value is the p_max estimate; with Truncated false it is within
	// relative error eps0 of p_max with probability ≥ 1 − 1/N.
	Value float64
	// Draws is the number of stopping-rule draws the estimate consumed;
	// Reused counts those answered from the session's retained ledger
	// (draws paid for by earlier estimates), Sampled the net-new draws.
	Draws   int64
	Reused  int64
	Sampled int64
	// Truncated reports that the draw budget ran out before the rule
	// converged; Value is then the plain Monte-Carlo mean over the budget
	// and carries no relative-error guarantee.
	Truncated bool
}

// EstimatePmax runs the paper's Algorithm 2 (the Dagum et al. stopping
// rule) at relative error eps0 ∈ (0,1) (default 0.1) with failure
// probability 1/n (default n = 100000), drawing at most maxDraws samples
// (≤ 0 selects the default cap of 2000000). The session's estimator
// retains its draw ledger, so repeated calls reuse every draw already
// paid for and a tighter eps0 extends the sequence instead of
// restarting — the refined estimate is identical to a cold estimate at
// the tighter accuracy. Deterministic per seed, independent of the
// worker count. Solve's internal p_max step shares the same ledger.
func (s *Session) EstimatePmax(ctx context.Context, eps0, n float64, maxDraws int64) (*PmaxEstimate, error) {
	e0, bigN, budget := server.PmaxDefaults(eps0, n, maxDraws)
	res, err := s.core.EstimatePmax(ctx, e0, bigN, budget)
	if err != nil {
		return nil, err
	}
	return pmaxEstimateFrom(res), nil
}

func pmaxEstimateFrom(res engine.PmaxResult) *PmaxEstimate {
	return &PmaxEstimate{
		Value:     res.Estimate,
		Draws:     res.Draws,
		Reused:    res.Reused,
		Sampled:   res.Sampled,
		Truncated: res.Truncated,
	}
}

// ServerConfig configures a Server.
type ServerConfig struct {
	// MaxPoolBytes bounds the total memory of cached per-pair state (pool
	// arenas, offset tables, set-cover families). When a query pushes the
	// total over the budget, the least-recently-used pairs' pools are
	// evicted until it fits; evicted pairs are re-derived on their next
	// query with byte-identical pools, so eviction never changes an
	// answer. 0 disables eviction.
	MaxPoolBytes int64
	// Shards is the number of locks the pair map is sharded across
	// (default 16); queries for pairs on distinct shards never contend on
	// session lookup.
	Shards int
	// Seed roots every pair's randomness: all results are pure functions
	// of (Seed, s, t). Workers bounds sampling parallelism per query
	// and the number of pairs ApplyDelta migrates at once (0 = all
	// CPUs), without affecting any result.
	Seed    int64
	Workers int
	// SpillDir, when non-empty, gives eviction a disk tier: instead of
	// discarding an evicted pair's pools, the server snapshots them as
	// one checksummed record appended to a segment log in this directory
	// (which must exist), and the pair's next query restores the pools
	// from bytes instead of resampling draw by draw. Snapshots carry
	// their stream identity (seed and namespace); records that fail
	// validation — corruption, format-version skew, or a different Seed
	// — are ignored and the pair resamples, with byte-identical answers
	// either way. Files of the earlier one-file-per-pair format are not
	// read, and are removed when the log opens. See also Server.SpillAll
	// (shutdown flush) and Server.Warm (startup preload).
	SpillDir string
	// Metrics enables the observability layer: per-kind request latency
	// histograms, per-stage query tracing, and scrape-time series of
	// every ServerStats value (registered from the table that fills
	// ServerStats), reachable via Server.Obs, Server.WriteMetrics,
	// Server.MetricsSnapshot and Server.WriteStatusz.
	// Off (the default) the query path pays nothing — the tracer hooks
	// compile to nil-check no-ops. Instrumentation never changes an
	// answer: results stay pure functions of (Seed, s, t).
	Metrics bool
	// SlowQueryThreshold, with Metrics, logs every query slower than the
	// threshold as one line of JSON (kind, total, per-stage spans) to
	// SlowQueryLog (default os.Stderr). 0 disables slow-query logging.
	SlowQueryThreshold time.Duration
	SlowQueryLog       io.Writer
	// SpillTTL, when positive, expires spill records: a pair not spilled
	// again within the TTL loses its record (at Warm, after ApplyDelta
	// and periodically while serving), and the log's compaction reclaims
	// its bytes, bounding the spill directory. An expired pair resamples
	// on its next query — a latency cost, never a correctness one.
	SpillTTL time.Duration
	// MaxInflight, when positive, enables admission control: at most
	// MaxInflight queries execute at once, at most MaxQueue more wait
	// for a slot, and anything beyond fast-rejects with ErrOverloaded —
	// under overload the server sheds load in O(1) instead of queueing
	// unboundedly. Internal work (warming, delta migration) is never
	// gated. 0 disables the gate.
	MaxInflight int
	MaxQueue    int
}

// Server serves active-friending queries for arbitrary (s,t) pairs on
// one graph — the paper's online setting, where many friending requests
// are in flight against one social network at once. Pair sessions are
// created on demand, cached, and evicted least-recently-used under
// ServerConfig.MaxPoolBytes. Safe for concurrent use.
//
//	sv := activefriending.NewServer(g, activefriending.ServerConfig{
//		MaxPoolBytes: 256 << 20, Seed: 1,
//	})
//	sol, _ := sv.Solve(ctx, s, t, activefriending.Options{Alpha: 0.3})
//	f, _ := sv.AcceptanceProbability(ctx, s, t, sol.Invited, 20000)
//	fmt.Println(sv.Stats().BytesHeld)
type Server struct {
	sv *server.Server

	handlerOnce sync.Once
	handler     http.Handler
}

// ErrOverloaded is the admission fast-reject: ServerConfig.MaxInflight
// queries are executing and the MaxQueue wait slots are full. The query
// did not run; retrying with backoff is sound.
var ErrOverloaded = server.ErrOverloaded

// IsOverloaded reports whether err is an admission rejection.
func IsOverloaded(err error) bool { return errors.Is(err, server.ErrOverloaded) }

// Handler returns the server's HTTP query endpoint: POST one request
// line — or an NDJSON batch — of the afserve wire protocol and receive
// the same reply bytes the stdin/stdout transport produces (see
// internal/proto/httpapi for the status-code mapping: 429 on
// ErrOverloaded, 400/413 on malformed or oversized requests). Mount it
// wherever the application serves HTTP:
//
//	sv := activefriending.NewServer(g, activefriending.ServerConfig{
//		Seed: 1, MaxInflight: 8, MaxQueue: 64,
//	})
//	http.Handle("/v1/query", sv.Handler())
//	go http.ListenAndServe(":8080", nil)
//	// curl -d '{"op":"solvemax","s":3,"t":91,"budget":5}' localhost:8080/v1/query
//
// The handler is created once and reused; Server.ServeHTTP serves the
// same endpoint directly.
func (sv *Server) Handler() http.Handler {
	sv.handlerOnce.Do(func() {
		sv.handler = httpapi.New(proto.NewDispatcher(sv.sv))
	})
	return sv.handler
}

// ServeHTTP implements http.Handler by delegating to Handler, so a
// *Server can itself be mounted on a mux.
func (sv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sv.Handler().ServeHTTP(w, r)
}

// NewServer returns a server for g with the paper's degree-normalized
// weight convention.
func NewServer(g *Graph, cfg ServerConfig) *Server {
	var o *obs.Obs
	if cfg.Metrics {
		o = obs.New()
		if cfg.SlowQueryThreshold > 0 {
			w := cfg.SlowQueryLog
			if w == nil {
				w = os.Stderr
			}
			o.SetSlowLog(cfg.SlowQueryThreshold, w)
		}
	}
	return &Server{sv: server.New(g, weights.NewDegree(g), server.Config{
		MaxPoolBytes: cfg.MaxPoolBytes,
		Shards:       cfg.Shards,
		Seed:         cfg.Seed,
		Workers:      cfg.Workers,
		SpillDir:     cfg.SpillDir,
		SpillTTL:     cfg.SpillTTL,
		MaxInflight:  cfg.MaxInflight,
		MaxQueue:     cfg.MaxQueue,
		Obs:          o,
	})}
}

// Obs is the observability bundle a Metrics-enabled Server carries: a
// metrics registry plus a slowest-trace tracer. The serving binaries
// hand it to the HTTP endpoint (internal/obs/httpserve); library users
// usually want the rendered forms (WriteMetrics, MetricsSnapshot,
// WriteStatusz) instead.
type Obs = obs.Obs

// MetricSample is one flattened metric series at scrape time.
type MetricSample = obs.Sample

// Obs returns the server's observability bundle; nil unless the server
// was built with ServerConfig.Metrics.
func (sv *Server) Obs() *Obs { return sv.sv.Obs() }

// WriteMetrics renders the Prometheus text exposition of every
// registered series. A no-op without ServerConfig.Metrics.
func (sv *Server) WriteMetrics(w io.Writer) error {
	o := sv.sv.Obs()
	if o == nil {
		return nil
	}
	return o.Registry.WritePrometheus(w)
}

// MetricsSnapshot returns every registered series as flat samples —
// the machine-readable form afserve's stats op ships alongside
// ServerStats. Nil without ServerConfig.Metrics.
func (sv *Server) MetricsSnapshot() []MetricSample {
	o := sv.sv.Obs()
	if o == nil {
		return nil
	}
	return o.Registry.Snapshot()
}

// WriteStatusz renders the human-readable status page: the stats
// ledger, per-kind and per-stage latency quantiles, and the slowest
// retained traces. Works without Metrics too (the ledger lines only).
func (sv *Server) WriteStatusz(w io.Writer) { sv.sv.WriteStatusz(w) }

// SpillAll snapshots every cached pair's pools to ServerConfig.SpillDir
// without evicting them — the graceful-shutdown flush. A successor
// process serving the same graph with the same Seed then answers its
// first queries from disk-warm pools (lazily on first query, or eagerly
// via Warm). A no-op when no SpillDir is configured.
func (sv *Server) SpillAll() error { return sv.sv.SpillAll() }

// Warm admits every pair with a record in the spill log in
// ServerConfig.SpillDir and returns the number of pairs whose pools
// were actually restored from disk. Records that fail validation still
// admit their pair — cold, and
// ledgered in ServerStats.SpillLoadErrors — but are not counted.
// Admission runs through the normal cache path, so the memory budget is
// enforced and ServerStats ledgers the loads. A no-op without a
// SpillDir.
func (sv *Server) Warm() (int, error) { return sv.sv.Warm() }

// Solve runs RAF for the pair (s, t) against its cached session.
// Options.Seed and Options.Workers are ignored: the server's per-pair
// streams govern, so the result is a pure function of (ServerConfig.Seed,
// s, t) and the solve parameters.
func (sv *Server) Solve(ctx context.Context, s, t Node, opts Options) (*Solution, error) {
	res, err := sv.sv.Solve(ctx, s, t, opts.coreConfig())
	if err != nil {
		return nil, err
	}
	return proto.SolutionFrom(res), nil
}

// SolveMax solves the budgeted maximum variant for (s, t) against the
// pair's cached pools; see Session.SolveMax for the TrainF/EstimatedF
// distinction.
func (sv *Server) SolveMax(ctx context.Context, s, t Node, budget int, realizations int64) (*MaxSolution, error) {
	res, f, err := sv.sv.SolveMax(ctx, s, t, budget, realizations)
	if err != nil {
		return nil, err
	}
	return proto.MaxSolutionFrom(res, f), nil
}

// SolveMaxBudgets answers a whole SolveMax budget sweep for (s, t) in one
// shot: the pair's pool is folded into a set-cover family once, one
// solver is reused across budgets, TrainF is each greedy's own covered
// tally and the EstimatedF measurements are one batched coverage query
// on the evaluation pool. Results are identical to calling SolveMax per
// budget.
func (sv *Server) SolveMaxBudgets(ctx context.Context, s, t Node, budgets []int, realizations int64) ([]*MaxSolution, error) {
	results, fs, err := sv.sv.SolveMaxBudgets(ctx, s, t, budgets, realizations)
	if err != nil {
		return nil, err
	}
	return proto.MaxSolutionsFrom(results, fs), nil
}

// TopKOptions parameterizes one batched ranking request.
type TopKOptions struct {
	// Budget is the invitation budget each candidate is solved under
	// (default 10).
	Budget int
	// Realizations is the full per-candidate effort: the pool size a
	// winner is scored at (≤ 0 selects the package default, 50000).
	Realizations int64
	// MaxDraws bounds the whole batch's realization-draw bill; the
	// scheduler concentrates it on the leading candidates. 0 means
	// unlimited, which scores every candidate at full effort and
	// returns byte-identical answers to independent SolveMax calls.
	MaxDraws int64
}

// TopKCandidate is one candidate target's standing after a TopK run.
type TopKCandidate = proto.TopKCandidate

// TopKResult is a finished batched ranking (the protocol's topk wire
// type). It retains the schedule it ran, so TopKRefine can resume it;
// the retained state is unexported and never marshaled.
type TopKResult = proto.TopKResult

// TopK ranks candidate targets for one source as a single scheduled
// batch and returns the best k, spending at most opts.MaxDraws
// realization draws across the whole batch. A successive-halving
// schedule scores every surviving candidate at a growing pool size and
// freezes the bottom half each round, so the draw bill concentrates on
// the leaders and stays sublinear in len(targets); each candidate rides
// the server's ordinary pair cache (byte budget, eviction, spill tier
// and graph deltas all apply). With an unlimited budget the answers are
// byte-identical to calling SolveMax once per target — partial-effort
// scores are prefixes of full-effort ones, so scheduling never changes
// what full effort would conclude, only how cheaply the batch gets
// there.
func (sv *Server) TopK(ctx context.Context, source Node, targets []Node, k int, opts TopKOptions) (*TopKResult, error) {
	res, err := sv.sv.TopK(ctx, server.TopKDefaults(server.TopKQuery{
		S:            source,
		Targets:      targets,
		K:            k,
		Budget:       opts.Budget,
		Realizations: opts.Realizations,
		MaxDraws:     opts.MaxDraws,
	}))
	if err != nil {
		return nil, err
	}
	return proto.TopKResultFrom(res), nil
}

// TopKRefine resumes a finished TopK run with extraDraws more budget:
// the schedule re-plans at the enlarged budget and re-runs against the
// same warm pair cache, so only the incremental draws are paid — the
// anytime contract. The refined result equals what a cold TopK at the
// combined budget would return.
func (sv *Server) TopKRefine(ctx context.Context, prev *TopKResult, extraDraws int64) (*TopKResult, error) {
	inner := proto.TopKState(prev)
	if inner == nil {
		return nil, errors.New("activefriending: TopKRefine needs a result returned by TopK")
	}
	res, err := sv.sv.TopKRefine(ctx, inner, extraDraws)
	if err != nil {
		return nil, err
	}
	return proto.TopKResultFrom(res), nil
}

// AcceptanceProbability estimates f(invited) for the pair (s, t) against
// its cached evaluation pool.
func (sv *Server) AcceptanceProbability(ctx context.Context, s, t Node, invited []Node, trials int64) (float64, error) {
	set, err := server.InvitedSet(sv.sv.Graph(), invited)
	if err != nil {
		return 0, err
	}
	return sv.sv.EstimateF(ctx, s, t, set, trials)
}

// Graph returns the served graph at the current epoch (the result of
// the last ApplyDelta, or the construction graph before any delta).
func (sv *Server) Graph() *Graph { return sv.sv.Graph() }

// Epochs returns the number of graph epochs the server has served: 1 at
// construction, +1 per effective ApplyDelta.
func (sv *Server) Epochs() int { return sv.sv.Epochs() }

// Edge is one undirected edge (U, V) of the social graph.
type Edge = graph.Edge

// Delta is a batch graph mutation: edges to add and edges to remove,
// applied atomically by Server.ApplyDelta to produce the next epoch's
// graph. Adding a present edge or removing an absent one is a no-op
// that dirties nothing; listing one edge in both sets is an error.
type Delta = graph.Delta

// DeltaSummary reports what one ApplyDelta did.
type DeltaSummary = proto.DeltaSummary

// ApplyDelta mutates the served graph: the delta's edges are added and
// removed atomically, producing the next epoch, and every cached pair
// is carried across it by repair — draw groups whose sampled walks
// never consulted a changed node keep their bytes, only damaged groups
// are re-drawn — so queries after ApplyDelta are byte-identical to a
// server built fresh on the mutated graph, at a fraction of the
// resampling bill (ServerStats ledgers both sides). A pair is repaired
// by the first query that touches it after the delta (ServerStats'
// PairsStale counts the pairs still waiting); one still waiting when
// the next delta lands is repaired inside that call, up to
// ServerConfig.Workers at once, and only that repair is reported in the
// result. Pairs whose (s, t) become adjacent are dropped; spill records
// from earlier epochs are adopted and repaired when loaded. In-flight
// queries finish at the epoch they started on; queries issued after
// ApplyDelta returns see the new epoch. A context cancelled before the
// new epoch is committed returns its error with nothing changed.
//
//	sv := activefriending.NewServer(g, activefriending.ServerConfig{Seed: 1})
//	sol, _ := sv.Solve(ctx, s, t, activefriending.Options{Alpha: 0.3})
//	res, _ := sv.ApplyDelta(ctx, &activefriending.Delta{
//		Add:    []activefriending.Edge{{U: 3, V: 17}},
//		Remove: []activefriending.Edge{{U: 4, V: 9}},
//	})
//	fmt.Println(res.PairsMigrated)              // pairs carried to the new epoch
//	sol2, _ := sv.Solve(ctx, s, t, activefriending.Options{Alpha: 0.3}) // new epoch
func (sv *Server) ApplyDelta(ctx context.Context, d *Delta) (*DeltaSummary, error) {
	res, err := sv.sv.ApplyDelta(ctx, d, nil)
	if err != nil {
		return nil, err
	}
	return proto.DeltaSummaryFrom(res), nil
}

// Pmax estimates p_max for the pair (s, t) from its evaluation pool (the
// type-1 fraction over exactly trials draws); see EstimatePmax for the
// stopping-rule estimate.
func (sv *Server) Pmax(ctx context.Context, s, t Node, trials int64) (float64, error) {
	return sv.sv.Pmax(ctx, s, t, trials)
}

// EstimatePmax runs Algorithm 2 for the pair (s, t) through its retained
// estimator ledger (see Session.EstimatePmax for parameter defaults and
// the refinement contract). The ledger survives eviction via the spill
// tier, so a refined request after a restart reuses the draws a previous
// process paid for; the cumulative reuse is ledgered in
// ServerStats.PmaxDrawsReused.
func (sv *Server) EstimatePmax(ctx context.Context, s, t Node, eps0, n float64, maxDraws int64) (*PmaxEstimate, error) {
	e0, bigN, budget := server.PmaxDefaults(eps0, n, maxDraws)
	res, err := sv.sv.PmaxEstimate(ctx, s, t, e0, bigN, budget)
	if err != nil {
		return nil, err
	}
	return pmaxEstimateFrom(res), nil
}

// ServerKindStats is one query kind's hit/miss tally in ServerStats.
type ServerKindStats = server.KindStats

// ServerStats is the server's observability ledger — the payload of the
// protocol's stats op.
type ServerStats = server.Stats

// Stats returns a snapshot of the server's ledger.
func (sv *Server) Stats() ServerStats { return sv.sv.Stats() }

// SessionStats exposes the session's sampling ledger, making pool reuse
// observable: after an α-sweep, PoolDraws equals the pool size rather
// than sweeps × pool size.
type SessionStats struct {
	// PoolDraws is the number of realizations sampled into pools (solve
	// and evaluation combined); PmaxDraws is the number of Bernoulli
	// draws in the p_max estimator's retained ledger (each counted once,
	// however many estimates consumed it); TotalDraws counts every draw
	// made through the engine, including transient one-shot estimator
	// draws belonging to neither ledger.
	PoolDraws  int64
	PmaxDraws  int64
	TotalDraws int64
	// SolvePoolSize and EvalPoolSize are the cached pool sizes.
	SolvePoolSize int64
	EvalPoolSize  int64
}

// Stats returns the session's current sampling ledger.
func (s *Session) Stats() SessionStats {
	eng := s.core.Engine()
	return SessionStats{
		PoolDraws:     eng.PoolDraws(),
		PmaxDraws:     eng.PmaxDraws(),
		TotalDraws:    eng.Draws(),
		SolvePoolSize: s.core.PoolSize(),
		EvalPoolSize:  s.core.Eval().Size(),
	}
}
