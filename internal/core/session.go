package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ltm"
	"repro/internal/mc"
	"repro/internal/rng"
	"repro/internal/setcover"
	"repro/internal/snapshot"
)

// Session is the state of one (s, t) pair, shared by every query on it:
// the realization pool RAF and the budgeted variant solve on
// (Algorithms 3–4; grown incrementally, never resampled), the
// Algorithm 2 p_max draw ledger (engine.PmaxEstimator — a solve needing
// a tighter ε₀ or a bigger budget extends the existing draw sequence
// instead of re-running the stopping rule from scratch), the exact
// V_max (Lemma 7), and an evaluation pool over a decorrelated stream
// family that measures f of chosen sets (Corollary 1). An α-sweep
// through a Session samples the pool exactly once and the p_max stream
// at most up to the tightest ε₀ requested. V_max is one O(V+E) DFS over
// the whole graph (see Vmax), which is not cheap: on the 7,115-node Wiki
// analog it costs ~0.7 ms on a 2-vCPU Xeon. RAF at α < 1 needs only
// |V_max|, so the session caches the count apart from the set: only
// α = 1 builds the set, and Snapshot persists the count, so a restored
// pair's solves run no DFS at all.
//
// The session's seed and worker count govern every solve; Config.Seed and
// Config.Workers are ignored by Session.RAF. Safe for concurrent use.
type Session struct {
	in      *ltm.Instance
	eng     *engine.Engine
	pools   *engine.Session
	eval    *engine.Session
	pmax    *engine.PmaxEstimator
	seed    int64
	workers int

	mu      sync.Mutex
	vmax    *graph.NodeSet // cached V_max; nil until Vmax builds it
	vmaxLen int            // cached |V_max|; -1 until known
	rec     []byte         // the snapshot the pools were restored from; their sections alias it
}

// NewSession returns a session for the instance. Seed fixes all
// randomness; workers bounds sampling parallelism (0 = all CPUs) without
// affecting any result.
func NewSession(in *ltm.Instance, seed int64, workers int) *Session {
	eng := engine.New(in)
	return &Session{
		in:      in,
		eng:     eng,
		pools:   eng.NewSession(seed, workers),
		eval:    eng.NewEvalSession(seed, workers),
		pmax:    eng.NewPmaxEstimator(seed, workers),
		seed:    seed,
		workers: workers,
		vmaxLen: -1,
	}
}

// Engine returns the session's realization engine (for estimators and
// sampling diagnostics).
func (s *Session) Engine() *engine.Engine { return s.eng }

// RepairTo carries the session's sampled state across a graph delta:
// given the epoch-N+1 instance (same (s, t), built by ltm.NewInstance
// on the post-delta graph) and the delta's dirty node set, it returns a
// new session whose realization pool, p_max ledger and evaluation pool adopt every
// draw group the delta left undamaged and resample only the rest —
// byte-identical to a cold session on the new instance, at a fraction
// of the draw bill (see engine.Session.RepairTo). The new session's engine is bound to lin and
// graphFP (both may be zero when the caller keeps no lineage), so stale
// spill blobs restored into it later are adopted and repaired too. The
// receiver is not mutated; the cached V_max and its count are dropped —
// the delta may have changed them, and recomputing them is one O(V+E)
// DFS.
func (s *Session) RepairTo(ctx context.Context, in2 *ltm.Instance, lin *engine.Lineage, graphFP uint64, dirty []graph.Node) (*Session, engine.RepairStats, error) {
	ne := engine.New(in2)
	if lin != nil {
		ne.Bind(lin, graphFP)
	}
	pools, st, err := s.pools.RepairTo(ctx, ne, dirty)
	if err != nil {
		return nil, engine.RepairStats{}, err
	}
	pmax, pst, err := s.pmax.RepairTo(ctx, ne, dirty)
	if err != nil {
		return nil, engine.RepairStats{}, err
	}
	st.Add(pst)
	eval, est, err := s.eval.RepairTo(ctx, ne, dirty)
	if err != nil {
		return nil, engine.RepairStats{}, err
	}
	st.Add(est)
	return &Session{
		in:      in2,
		eng:     ne,
		pools:   pools,
		eval:    eval,
		pmax:    pmax,
		seed:    s.seed,
		workers: s.workers,
		vmaxLen: -1,
		rec:     s.record(), // adopted groups' touch lists still alias it
	}, st, nil
}

// PmaxEstimator returns the session's chunked Algorithm 2 estimator —
// its draw ledger persists across solves, so refinement savings are
// observable through it.
func (s *Session) PmaxEstimator() *engine.PmaxEstimator { return s.pmax }

// Eval returns the session's evaluation pool: draws from a stream family
// decorrelated from the solve pool's, for measuring f of the sets solves
// choose without the bias of the pool they were optimized on.
func (s *Session) Eval() *engine.Session { return s.eval }

// Instance returns the session's problem instance.
func (s *Session) Instance() *ltm.Instance { return s.in }

// MemBytes returns the bytes held by the session's cached pools (solve
// and evaluation) and their regrow tables plus the p_max estimator's
// draw ledger — the sizing input for memory-budgeted eviction of cold
// sessions. A restored session's pools alias the snapshot buffer they
// were decoded from (RestoreBytes), which stays alive whole — its p_max
// and VMAX bytes too — while any section still points into it: MemBytes
// then counts the buffer once instead of the aliasing sections.
func (s *Session) MemBytes() int64 {
	rec := s.record()
	pools, a := s.pools.MemBytesOutside(rec)
	eval, b := s.eval.MemBytesOutside(rec)
	held := pools + eval + s.pmax.MemBytes()
	if a || b {
		held += int64(cap(rec))
	}
	return held
}

func (s *Session) record() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// ReleaseDerived drops the derived state of the solve and evaluation
// pools (see engine.Session.ReleaseDerived), keeping every sampled draw.
// A server calls it on a pair a delta left stale: the caches answer only
// at the old epoch, and repair builds the new epoch's pools without them.
func (s *Session) ReleaseDerived() {
	s.pools.ReleaseDerived()
	s.eval.ReleaseDerived()
}

// HeldDraws returns the draws the session holds: its solve pool, its
// evaluation pool and its p_max ledger. A session restored from a
// snapshot and not grown since holds exactly the snapshot's draws.
func (s *Session) HeldDraws() int64 {
	return s.pools.Size() + s.eval.Size() + s.pmax.Draws()
}

// Pool returns the session's cached realization pool grown to at least l
// draws.
func (s *Session) Pool(ctx context.Context, l int64) (*engine.Pool, error) {
	return s.pools.Pool(ctx, l)
}

// Snapshot serializes the session's solve pool, the p_max estimator's
// draw ledger and the evaluation pool, in that order (see
// engine.Session.Snapshot and engine.PmaxEstimator.Snapshot), so a
// restored session reuses every pooled and stopping-rule draw instead
// of resampling it. When |V_max| is known, a VMAX section carrying it
// and the instance fingerprint follows, so a restored session's α < 1
// solves skip the DFS; the set itself is not written (only α = 1 needs
// it, and rebuilds it with identical results).
func (s *Session) Snapshot(w io.Writer) error {
	if err := s.pools.Snapshot(w); err != nil {
		return err
	}
	if err := s.pmax.Snapshot(w); err != nil {
		return err
	}
	if err := s.eval.Snapshot(w); err != nil {
		return err
	}
	n := s.knownVmaxLen()
	if n < 0 {
		return nil
	}
	return snapshot.WriteVmax(w, &snapshot.VmaxState{StreamEpoch: rng.StreamEpoch, Fingerprint: s.eng.Fingerprint(), Count: int64(n)})
}

// Restore is RestoreBytes over a stream: it reads r to its end into one
// buffer, which the session then owns.
func (s *Session) Restore(r io.Reader) error {
	data, err := snapshot.ReadAll(r)
	if err != nil {
		return err
	}
	return s.RestoreBytes(data)
}

// RestoreBytes loads a Snapshot into a freshly created session, decoding
// in place from data the solve pool, the p_max section when one follows,
// the evaluation pool, and the VMAX section when one follows; bytes
// after them are ignored. The pools alias data, so the session keeps it
// (and MemBytes counts it): data must not be modified afterwards. Each
// section's stream identity must match the session's seed. A pool that
// fails to load — corrupt, truncated or mismatched — returns an error,
// and the session may then hold part of the snapshot: the caller
// discards it for a fresh session, which resamples lazily with
// byte-identical results, since pools and the estimator ledger are pure
// functions of (seed, draws). The p_max section is optional and
// best-effort: one that is framed but unreadable or mismatched is
// skipped and leaves only the estimator cold. The VMAX section is
// optional in the same way; its count is adopted only when its
// fingerprint is this session's instance, so a blob adopted from an
// ancestor epoch (which a delta may have changed V_max since) leaves the
// count unknown.
func (s *Session) RestoreBytes(data []byte) error {
	s.mu.Lock()
	s.rec = data
	s.mu.Unlock()
	n, err := s.pools.RestoreBytes(data)
	if err != nil {
		return err
	}
	rest := data[n:]
	if snapshot.IsPmax(rest) {
		n, err := s.pmax.RestoreBytes(rest)
		if err != nil {
			// The stopping-rule draws are resampled on the next solve —
			// identically, so the fallback changes no answer.
			s.pmax = s.eng.NewPmaxEstimator(s.seed, s.workers)
		}
		rest = rest[n:]
	}
	if n, err = s.eval.RestoreBytes(rest); err != nil {
		return fmt.Errorf("core: evaluation pool: %w", err)
	}
	rest = rest[n:]
	if !snapshot.IsVmax(rest) {
		return nil
	}
	// Best-effort like the p_max section: a count that fails to load is
	// recomputed, identically, on the next solve.
	st, _, err := snapshot.DecodeVmaxNext(rest)
	if err == nil && st.Fingerprint == s.eng.Fingerprint() && st.Count <= int64(s.in.Graph().NumNodes()) {
		s.mu.Lock()
		s.vmaxLen = int(st.Count)
		s.mu.Unlock()
	}
	return nil
}

// PoolSize returns the cached pool size (0 before the first solve).
func (s *Session) PoolSize() int64 { return s.pools.Size() }

// Vmax returns the cached exact V_max (Lemma 7) of the instance,
// building it on first use.
func (s *Session) Vmax() (*graph.NodeSet, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.vmax == nil {
		vm, err := Vmax(s.in)
		if err != nil {
			return nil, err
		}
		s.vmax = vm
		s.vmaxLen = vm.Len()
	}
	return s.vmax, nil
}

// VmaxLen returns |V_max|, running the DFS only when the count is
// unknown — neither computed before nor restored from a snapshot. It
// caches the count, not the set.
func (s *Session) VmaxLen() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.vmaxLen < 0 {
		vm, err := Vmax(s.in)
		if err != nil {
			return 0, err
		}
		s.vmaxLen = vm.Len()
	}
	return s.vmaxLen, nil
}

// VmaxKnown reports whether |V_max| is cached, so Snapshot writes it.
func (s *Session) VmaxKnown() bool { return s.knownVmaxLen() >= 0 }

func (s *Session) knownVmaxLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vmaxLen
}

// EstimatePmax returns the Algorithm 2 estimate at accuracy eps0 and
// confidence n under a draw budget (0 = unbounded), through the
// session's chunked estimator: draws already in the ledger are reused,
// so a request no tighter than an earlier one samples nothing, and a
// tighter or better-budgeted request extends the existing draw sequence
// instead of restarting. The result — including whether the budget
// truncated the rule — is a pure function of (seed, eps0, n, maxDraws),
// independent of the worker count and of earlier requests.
func (s *Session) EstimatePmax(ctx context.Context, eps0, n float64, maxDraws int64) (engine.PmaxResult, error) {
	res, err := s.pmax.Estimate(ctx, eps0, n, maxDraws)
	if err != nil {
		if errors.Is(err, mc.ErrZeroEstimate) {
			return res, fmt.Errorf("%w: %v", ErrTargetUnreachable, err)
		}
		return res, err
	}
	return res, nil
}

// poolSizeFromTheory converts the Eq. 16 threshold l* to a draw count.
// The clamp must run BEFORE the float→int64 conversion: converting a
// float64 beyond the int64 range is implementation-defined in Go, and the
// theoretical l* is astronomically large whenever p* is tiny. The
// negated comparison also routes NaN to the clamp.
func poolSizeFromTheory(lTheory float64) int64 {
	if !(lTheory <= math.MaxInt64/2) {
		return math.MaxInt64 / 2
	}
	return int64(math.Ceil(lTheory))
}

// Framework runs Algorithm 3 against the session's cached pool, growing
// it to at least l realizations first.
func (s *Session) Framework(ctx context.Context, beta float64, l int64) (*graph.NodeSet, *engine.Pool, *setcover.Solution, error) {
	pool, err := s.pools.Pool(ctx, l)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: sampling pool: %w", err)
	}
	invited, sol, err := FrameworkFromPool(ctx, s.in, beta, pool)
	if err != nil {
		return nil, nil, nil, err
	}
	return invited, pool, sol, nil
}

// RAF runs Algorithm 4 using the session's cached pool, V_max and p_max
// state. cfg.Seed and cfg.Workers are ignored in favor of the session's.
func (s *Session) RAF(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	res := &Result{}

	// Special case α = 1 (Sec. III-C): V_max is the unique minimum
	// invitation set achieving p_max and is computable in polynomial time.
	if cfg.Alpha == 1 {
		vm, err := s.Vmax()
		if err != nil {
			return nil, err
		}
		if vm.Len() == 0 {
			return nil, fmt.Errorf("%w: V_max is empty", ErrTargetUnreachable)
		}
		res.Invited = vm
		res.VmaxSize = vm.Len()
		return res, nil
	}

	// Union-bound dimension: |V_max| by default (Sec. III-C), n when the
	// reduction is disabled.
	dim := s.in.Graph().NumNodes()
	if !cfg.DisableVmaxReduction {
		n, err := s.VmaxLen()
		if err != nil {
			return nil, err
		}
		res.VmaxSize = n
		if res.VmaxSize == 0 {
			return nil, fmt.Errorf("%w: V_max is empty", ErrTargetUnreachable)
		}
		dim = res.VmaxSize
	}

	// Step 1: solve the equation system with coupling c = dim.
	params, err := SolveEquationSystem(cfg.Alpha, cfg.Eps, float64(dim))
	if err != nil {
		return nil, err
	}
	res.Params = params

	// Step 2: estimate p_max (Algorithm 2) through the session's chunked
	// estimator — a solve needing no more accuracy than an earlier one
	// reuses its draws outright, a tighter one extends them.
	pm, err := s.EstimatePmax(ctx, params.Eps0, cfg.N, cfg.MaxPmaxDraws)
	if err != nil {
		return nil, err
	}
	res.PStar = pm.Estimate
	res.PmaxDraws = pm.Draws
	res.PmaxReused = pm.Reused
	res.PmaxTruncated = pm.Truncated

	// Step 3: size the pool (Eq. 16 with the |V_max| refinement), apply
	// practical caps, and run the framework (Algorithm 3) on the shared
	// pool.
	lTheory, err := mc.RealizationThreshold(params.Eps0, params.Eps1, pm.Estimate, dim, cfg.N)
	if err != nil {
		return nil, err
	}
	res.LTheory = lTheory
	l := poolSizeFromTheory(lTheory)
	if cfg.OverrideL > 0 {
		l = cfg.OverrideL
	} else if cfg.MaxRealizations > 0 && l > cfg.MaxRealizations {
		l = cfg.MaxRealizations
	}

	invited, pool, sol, err := s.Framework(ctx, params.Beta, l)
	if err != nil {
		return nil, err
	}
	res.LUsed = pool.Total()
	res.Invited = invited
	res.PoolType1 = pool.NumType1()
	res.Demand = sol.Demand
	res.Covered = sol.Covered
	return res, nil
}
