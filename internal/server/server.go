// Package server is the graph-level serving layer: one Server owns a
// graph plus a weight scheme and answers Solve / SolveMax / EstimateF /
// Pmax queries for arbitrary (s,t) pairs — the paper's online setting,
// where many friending queries are in flight against one social network
// at once.
//
// Each pair is one core.Session — its solve pool, p_max ledger, V_max
// and decorrelated evaluation pool — created on demand and cached in a
// map sharded across a fixed number of locks (hash of the pair), so
// queries for distinct pairs never contend on session lookup. Cached
// sessions are evicted least-recently-used under a configurable byte
// budget, sized by core.Session.MemBytes.
//
// Every result is a pure function of (seed, s, t): each pair's streams
// derive from rng.DeriveStream(seed, nsPair, pack(s,t)), so an evicted
// pair re-admitted later re-derives byte-identical pools. Eviction is a
// latency event, never a correctness event — an answer after any
// eviction schedule equals the never-evicted answer.
//
// With Config.SpillDir set, eviction gains a second tier: instead of
// discarding a victim's pools, the server snapshots them (internal/
// snapshot) — together with the pair's Algorithm 2 p_max estimator
// ledger and |V_max| — as one record appended to a segment log in the
// directory (see spillstore.go), and a later query for the pair restores
// the state from bytes instead of resampling it. Snapshots are
// checksummed and carry their stream identity, so a corrupted, truncated
// or configuration-skewed record is rejected and the pair silently
// falls back to resampling — with identical answers, by the same purity
// argument. SpillAll flushes every live pair at shutdown; Warm preloads
// every pair the log holds at startup, so a restarted server answers its
// first queries from disk-warm pools.
//
// The graph itself may mutate: ApplyDelta applies a batch of edge
// additions and removals, producing the next epoch's graph and its
// degree weights, and carries every live pair across it by *repair*
// instead of discard — draw groups whose walks never consulted the
// delta's dirty nodes keep their bytes, only damaged groups are
// re-drawn (see engine.Session.RepairTo) — and a pair whose (s,t) the
// delta dissolves (the nodes become adjacent) is dropped. The repair is
// lazy: the delta leaves each pair stale at its old epoch, and the
// first query that touches it repairs it across the lineage's dirty
// union, in that query's own request, so a delta costs about what its
// graph rebuild costs. A pair no query touched before the next delta is
// repaired inside that delta, so at most two epochs are ever live. The
// server keeps the epoch lineage (engine.Lineage), so spill records
// written at an earlier epoch, stale pairs' included, are adopted and
// repaired on load rather than rejected. A query is answered at the
// epoch current when it was admitted or a later one; queries that begin
// after ApplyDelta returns see the new epoch.
package server

import (
	"cmp"
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ltm"
	"repro/internal/maxaf"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/snapshot"
	"repro/internal/weights"
)

// nsPair namespaces the per-pair seed derivation so pair streams never
// collide with the engine's own pool/eval/estimate namespaces.
const nsPair uint64 = 0x50616972 // "Pair"

// DefaultShards is the pair-map lock count used when Config.Shards ≤ 0.
const DefaultShards = 16

// Config parameterizes a Server.
type Config struct {
	// MaxPoolBytes bounds the total bytes of cached pair state (pool
	// arenas, offset tables, set-cover families) as measured by
	// engine MemBytes accounting. When a completed query pushes the total
	// over the budget, least-recently-used pairs are evicted until it
	// fits. 0 disables eviction.
	MaxPoolBytes int64
	// Shards is the number of locks the pair map is sharded across
	// (default DefaultShards). Distinct pairs on distinct shards never
	// contend on session lookup.
	Shards int
	// Seed roots every pair's derived streams; results are pure functions
	// of (Seed, s, t). Workers bounds sampling parallelism per query
	// and the number of pairs ApplyDelta migrates at once (0 = all
	// CPUs), without affecting any result.
	Seed    int64
	Workers int
	// SpillDir, when non-empty, turns eviction into a spill: a victim
	// pair's pools are snapshotted as one record appended to a segment
	// log in this directory (spill-NNNNNN.afseg files) before the memory
	// is released, and the pair's next query restores them from bytes
	// instead of resampling. The directory must exist; the log opens on
	// first use. Segments from a previous process with the same Seed are
	// picked up transparently (or eagerly via Warm); records that fail
	// checksum, version or stream-identity validation are ignored and
	// the pair resamples — answers are identical either way. Spill files
	// of the earlier one-file-per-pair format are not read, and are
	// removed when the log opens.
	SpillDir string
	// SpillTTL, when positive, expires spill records: a pair not spilled
	// again within the TTL loses its record — at Warm, after ApplyDelta,
	// and periodically as spills are written — and its bytes go with its
	// segment's compaction. An expired pair simply resamples on its next
	// query, which changes no answer; expiry is ledgered in
	// Stats.SpillFilesExpired. 0 keeps records forever.
	SpillTTL time.Duration
	// MaxInflight bounds the number of queries executing at once; 0
	// disables admission control. MaxQueue bounds the queries allowed to
	// wait for a free slot when the limit is reached — anything beyond
	// the queue is fast-rejected with ErrOverloaded (never queued
	// unboundedly). The gate covers the public query entry points only;
	// PairHandle/Warm/ApplyDelta traffic is never gated.
	MaxInflight int
	MaxQueue    int
	// Obs, when non-nil, enables observability: every query records its
	// latency into a per-kind histogram and a per-stage trace in
	// Obs.Registry/Obs.Tracer, and every ledgerRows row is mirrored as a
	// scrape-time series. Nil (the default) disables all of it at zero
	// hot-path cost. An Obs should serve one Server: mirrors registered
	// by a later server with the same registry replace the earlier ones.
	Obs *obs.Obs
}

// Kind labels a query kind in the hit/miss ledger.
type Kind int

const (
	KindSolve Kind = iota
	KindSolveMax
	KindEstimateF
	KindPmax
	KindPmaxEst // Algorithm 2 stopping-rule estimates (PmaxEstimate)
	KindAcquire // harness Pair() acquisitions
	KindTopK    // batched top-k ranking (per-candidate session acquisitions)
	numKinds
)

// kindInfo gives each kind its ledger label and the Stats field of its
// hit/miss tally; KindAcquire's tally is on /metrics only.
var kindInfo = [numKinds]struct{ label, field string }{
	KindSolve:     {"solve", "Solve"},
	KindSolveMax:  {"solvemax", "SolveMax"},
	KindEstimateF: {"estimatef", "AcceptanceProbability"},
	KindPmax:      {"pmax", "Pmax"},
	KindPmaxEst:   {"pmaxest", "EstimatePmax"},
	KindAcquire:   {"acquire", ""},
	KindTopK:      {"topk", "TopK"},
}

// String returns the ledger label of the kind.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return "unknown"
	}
	return kindInfo[k].label
}

type pairKey struct{ s, t graph.Node }

// entry is one cached pair and its session. The LRU fields are guarded
// by Server.lruMu.
//
// With a spill directory, a freshly created entry's session may be
// restored from disk. The restore runs behind restoreOnce on the first
// acquirer AFTER the entry is published — off the shard lock, so a slow
// disk never stalls unrelated pairs on the same shard; later acquirers
// of the same pair block on the Once (they would block on the cold
// pool's sampling otherwise). sess is replaced only inside the Once,
// which happens-before every use.
type entry struct {
	key  pairKey
	sess *core.Session
	gen  *generation // the epoch the session was built (or migrated) for

	restoreOnce sync.Once
	loaded      bool  // restored from a spill record; written inside restoreOnce
	loadedDraws int64 // HeldDraws at restore time (-1 after a repaired load); written inside restoreOnce
	loadedVmax  bool  // |V_max| known at restore time; written inside restoreOnce

	elem    *list.Element // position in the LRU list; nil when not listed
	bytes   int64         // bytes currently charged against the budget
	evicted bool          // removed from the map; in-flight holders may remain
	stale   bool          // counted in the PairsStale gauge

	// mig serializes the entry's migration to a later epoch (see
	// current): the first toucher repairs, later ones wait and follow
	// succ, the entry that took this one's place. failed records a repair
	// that failed for good, after which the pair was dropped.
	mig    sync.Mutex
	succ   *entry
	failed error
}

// generation is one epoch of the served graph: the graph, its weight
// scheme, the graph fingerprint that names the epoch in the lineage and
// the epoch's index there (0 for the graph the server was built on).
// ApplyDelta swaps the server's generation pointer atomically; entries
// remember the generation they were built for, so a stale pair is told
// from one at the head, and its repair knows which epochs it spans.
type generation struct {
	g       *graph.Graph
	scheme  weights.Scheme
	graphFP uint64
	epoch   int
}

type shard struct {
	mu sync.Mutex
	m  map[pairKey]*entry
}

// Server serves multi-pair query traffic on one graph. Safe for
// concurrent use.
type Server struct {
	cfg    Config
	shards []shard

	// gen is the current epoch; pin reads it inside the shard critical
	// section on a miss, so the mutual exclusion with ApplyDelta's walk
	// (which stores gen before locking any shard) guarantees every entry
	// the walk does not see was created at the new epoch. lineage records
	// every epoch's dirty set, for repairs of stale pairs and of ancestor
	// spill blobs. deltaMu serializes ApplyDelta calls.
	gen     atomic.Pointer[generation]
	lineage *engine.Lineage
	deltaMu sync.Mutex

	// ledger holds every counter of Stats; see ledgerRows.
	ledger ledger

	// slots and maxQueue are the admission gate (slots nil with
	// MaxInflight ≤ 0; see admit).
	slots    chan struct{}
	maxQueue int64

	// spill is the spill tier, nil without a SpillDir; lastExpiry is the
	// unix-nano time of the last TTL expiry pass, CAS-guarded so at most
	// one goroutine runs a pass per interval.
	spill      *spillStore
	lastExpiry atomic.Int64

	// Open flights of each coalesced query kind; see run. EstimateF is
	// never coalesced and has no table.
	solveFlights   flights[solveParams, *core.Result]
	maxFlights     flights[maxParams, maxAnswer]
	sweepFlights   flights[sweepParams, sweepAnswer]
	pmaxFlights    flights[pmaxParams, float64]
	pmaxEstFlights flights[pmaxEstParams, engine.PmaxResult]
	topKFlights    flights[topKParams, *TopKResult]

	// lruMu guards the recency list and every write of the byte ledger
	// (slot ctrBytesHeld; readers load it lock-free). It is only ever
	// held for O(1) bookkeeping plus eviction passes; pool sampling,
	// solving and spill I/O run outside it. Lock order: lruMu may acquire
	// a shard lock (eviction); shard locks may acquire session-internal
	// locks (spill restore); neither ever acquires lruMu.
	lruMu sync.Mutex
	lru   *list.List // front = most recently used; values are *entry

	// obs is the server's observability binding; nil when Config.Obs is
	// nil, and every instrumentation site is a nil-check no-op then.
	obs *serverObs
}

// New returns a server for the graph under the given weight scheme.
func New(g *graph.Graph, scheme weights.Scheme, cfg Config) *Server {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	sv := &Server{cfg: cfg, shards: make([]shard, cfg.Shards), lru: list.New()}
	if cfg.SpillDir != "" {
		sv.spill = newSpillStore(cfg.SpillDir)
	}
	if cfg.MaxInflight > 0 {
		sv.slots = make(chan struct{}, cfg.MaxInflight)
		sv.maxQueue = max(int64(cfg.MaxQueue), 0)
	}
	gfp := engine.GraphFingerprint(g, scheme)
	sv.gen.Store(&generation{g: g, scheme: scheme, graphFP: gfp})
	sv.lineage = engine.NewLineage(gfp)
	for i := range sv.shards {
		sv.shards[i].m = make(map[pairKey]*entry)
	}
	if cfg.Obs != nil && cfg.Obs.Registry != nil {
		sv.obs = newServerObs(sv, cfg.Obs)
	}
	return sv
}

// Graph returns the served graph at the current epoch.
func (sv *Server) Graph() *graph.Graph { return sv.gen.Load().g }

// Epochs returns the number of graph epochs the server has served: 1 at
// construction, +1 per effective ApplyDelta.
func (sv *Server) Epochs() int { return sv.lineage.Epochs() }

func packPair(k pairKey) uint64 {
	return uint64(uint32(k.s))<<32 | uint64(uint32(k.t))
}

func (sv *Server) shardFor(k pairKey) *shard {
	// Derive is a full-avalanche mix, so the low bits index uniformly.
	h := uint64(rng.Derive(0, packPair(k)))
	return &sv.shards[h%uint64(len(sv.shards))]
}

// pairSeed derives the pair's root seed. Eviction and re-admission
// re-derive the same value, which is what makes a cache miss a latency
// event rather than a correctness event.
func (sv *Server) pairSeed(k pairKey) int64 {
	return rng.DeriveStream(sv.cfg.Seed, nsPair, packPair(k))
}

// acquire returns the pair's cached entry at (or past) the generation
// ctx's query was admitted at, creating it on a miss and migrating a
// stale one (see ready), and records the hit/miss under kind. The
// caller must pair it with release. A trace on ctx gets an acquire span
// covering lookup, creation, any one-time spill restore and any repair
// the acquisition triggered.
func (sv *Server) acquire(ctx context.Context, kind Kind, s, t graph.Node) (*entry, error) {
	sp := obs.TraceFrom(ctx).StartSpan(obs.StageAcquire)
	defer sp.End()
	e, err := sv.pin(kind, s, t)
	if err != nil {
		return nil, err
	}
	return sv.ready(ctx, kind, e)
}

// ready settles a pinned entry for reading at the generation ctx's
// query was admitted at: it runs the entry's spill restore, then
// migrates it if it is older (see current). A pair whose migration
// dropped it — the pair was dissolved, or its repair failed — is pinned
// again, so it rebuilds cold. Only a cancelled repair fails the call,
// leaving the pair stale for its next toucher.
func (sv *Server) ready(ctx context.Context, kind Kind, e *entry) (*entry, error) {
	at := sv.admittedGen(ctx)
	for {
		sv.ensureRestored(e)
		cur, err := sv.current(ctx, e, at, nil)
		if err == nil || ctx.Err() != nil {
			return cur, err
		}
		if e, err = sv.pin(kind, e.key.s, e.key.t); err != nil {
			return nil, err
		}
	}
}

// pin is acquire without the spill restore: the map lookup or insert,
// the hit/miss tally and the move to the LRU front, all cheap. The
// caller must run ensureRestored before reading the entry's sessions.
func (sv *Server) pin(kind Kind, s, t graph.Node) (*entry, error) {
	k := pairKey{s, t}
	sh := sv.shardFor(k)
	sh.mu.Lock()
	e, ok := sh.m[k]
	if !ok {
		// Reading the generation inside the critical section is what
		// pins the entry to an epoch ApplyDelta cannot have finished
		// walking past: the walk stores the new generation before taking
		// any shard lock, so an entry built here either predates the walk
		// on this shard (and is marked stale by it) or already sees the
		// new epoch.
		gen := sv.gen.Load()
		in, err := ltm.NewInstance(gen.g, gen.scheme, s, t)
		if err != nil {
			sh.mu.Unlock()
			return nil, err
		}
		e = &entry{key: k, sess: sv.newSession(k, in, gen), gen: gen}
		sh.m[k] = e
		sv.ledger[ctrSessionsCreated].Add(1)
	}
	sh.mu.Unlock()
	tally := ctrHits
	if !ok {
		tally = ctrMisses
	}
	sv.ledger[tally+counter(kind)].Add(1)
	sv.lruMu.Lock()
	if e.elem != nil {
		sv.lru.MoveToFront(e.elem)
	} else if !e.evicted {
		e.elem = sv.lru.PushFront(e)
	}
	sv.lruMu.Unlock()
	return e, nil
}

// newSession returns the pair's cold session at generation gen, its
// engine bound to the lineage so ancestor-epoch spill blobs are adopted
// and repaired on restore.
func (sv *Server) newSession(k pairKey, in *ltm.Instance, gen *generation) *core.Session {
	cs := core.NewSession(in, sv.pairSeed(k), sv.cfg.Workers)
	cs.Engine().Bind(sv.lineage, gen.graphFP)
	return cs
}

// release re-measures the entry's resident bytes, settles the ledger and
// evicts cold pairs if the budget is exceeded. Called after every query,
// when the pools have grown to their final size. The measurement happens
// under lruMu: measured outside, a stale (smaller) reading from one of
// two concurrent queries on the same pair could settle last and leave
// the ledger under-charged. MemBytes only takes session-internal locks,
// which are never held while acquiring lruMu, so the nesting is safe.
func (sv *Server) release(e *entry) {
	// Spill the victims' pools outside lruMu: snapshotting takes only
	// session-internal locks, and disk writes must not serialize the
	// whole server. An in-flight holder may still grow a victim while it
	// is written; Snapshot sees a consistent (possibly larger) pool,
	// which restores to the same answers.
	for _, v := range sv.settle(e) {
		sv.writeSpill(v)
	}
}

// settle is release without the spill writes: it settles the entry's
// bytes and evicts, returning the victims for the caller to spill.
func (sv *Server) settle(e *entry) []*entry {
	sv.lruMu.Lock()
	defer sv.lruMu.Unlock()
	if e.evicted {
		// Evicted while this query was in flight: its bytes were already
		// written off; the session dies with the last in-flight holder.
		return nil
	}
	mem := e.sess.MemBytes()
	sv.ledger[ctrBytesHeld].Add(mem - e.bytes)
	e.bytes = mem
	return sv.evictLocked()
}

// evictLocked evicts least-recently-used entries until the byte ledger
// fits the budget, returning the victims so the caller can spill them
// after dropping lruMu. Caller holds lruMu. An eviction is counted only
// when the pair actually leaves the cache, keeping SessionsLive ==
// SessionsCreated − SessionsEvicted at quiescence.
func (sv *Server) evictLocked() []*entry {
	if sv.cfg.MaxPoolBytes <= 0 {
		return nil
	}
	var victims []*entry
	for sv.ledger[ctrBytesHeld].Load() > sv.cfg.MaxPoolBytes && sv.lru.Len() > 0 {
		el := sv.lru.Back()
		victim := el.Value.(*entry)
		sv.uncacheLocked(victim)
		sh := sv.shardFor(victim.key)
		sh.mu.Lock()
		if sh.m[victim.key] == victim {
			delete(sh.m, victim.key)
			sv.ledger[ctrSessionsEvicted].Add(1)
		}
		sh.mu.Unlock()
		if sv.spill != nil {
			victims = append(victims, victim)
		}
	}
	return victims
}

// uncacheLocked takes e out of the LRU list and the budget: its bytes
// are written off and it leaves the PairsStale gauge. In-flight holders
// keep using it. A no-op for an entry already uncached. Caller holds
// lruMu.
func (sv *Server) uncacheLocked(e *entry) {
	if e.evicted {
		return
	}
	e.evicted = true
	sv.ledger[ctrBytesHeld].Add(-e.bytes)
	e.bytes = 0
	if e.stale {
		e.stale = false
		sv.ledger[ctrPairsStale].Add(-1)
	}
	if e.elem != nil {
		sv.lru.Remove(e.elem)
		e.elem = nil
	}
}

// ensureRestored runs the entry's one-time spill restore. Every reader
// of e.sess must pass through it (acquire does; writeSpill does
// for SpillAll's sake): a concurrent Do blocks until the first finishes,
// so nobody can observe the session while a failed restore's reset is
// replacing it. A no-op once done, or without a spill directory.
func (sv *Server) ensureRestored(e *entry) {
	if sv.spill != nil {
		e.restoreOnce.Do(func() { sv.restoreSpill(e) })
	}
}

// writeSpill appends the entry's session to the spill log as the
// pair's latest record. Spilling is best-effort on the eviction path —
// on error the pair's previous record still serves, the eviction
// degrades to a plain discard, and the failure is ledgered in
// SpillWriteErrors — but the error is returned so SpillAll can surface
// it.
func (sv *Server) writeSpill(e *entry) error {
	sv.ensureRestored(e)
	// A pair restored from disk and neither grown nor given its |V_max|
	// since would rewrite a byte-identical record (pools and the p_max
	// ledger are pure functions of (seed, draws)): skip the redundant
	// write — warming a spill log larger than the byte budget would
	// otherwise rewrite every over-budget record it just read.
	if e.loaded && e.sess.HeldDraws() == e.loadedDraws && e.sess.VmaxKnown() == e.loadedVmax {
		return nil
	}
	n, err := sv.spill.put(e.key, e.sess.Snapshot)
	if err != nil {
		sv.ledger[ctrSpillWriteErrors].Add(1)
		return err
	}
	sv.ledger[ctrSpills].Add(1)
	sv.ledger[ctrSpillBytes].Add(n)
	sv.maybeExpireSpills()
	return nil
}

// expireSpills deletes the spill records older than Config.SpillTTL and
// ledgers them in SpillFilesExpired. Removing the record of a pair that
// is still live (or about to be queried) is answer-invariant: pools are
// pure functions of (Seed, s, t), so the pair merely resamples instead
// of restoring. A no-op when SpillTTL ≤ 0 or there is no SpillDir.
func (sv *Server) expireSpills() {
	if sv.spill == nil || sv.cfg.SpillTTL <= 0 {
		return
	}
	if n := sv.spill.expire(sv.cfg.SpillTTL); n > 0 {
		sv.ledger[ctrSpillFilesExpired].Add(int64(n))
	}
}

// maybeExpireSpills is the periodic entry point, hung off the spill
// write path (the log only grows when something is written to it): at
// most one pass per TTL/4, floored at a second, claimed by CAS on
// lastExpiry so concurrent evictions never pile up on the index walk.
func (sv *Server) maybeExpireSpills() {
	ttl := sv.cfg.SpillTTL
	if ttl <= 0 {
		return
	}
	interval := max(ttl/4, time.Second)
	now := time.Now().UnixNano()
	last := sv.lastExpiry.Load()
	if now-last < int64(interval) || !sv.lastExpiry.CompareAndSwap(last, now) {
		return
	}
	sv.expireSpills()
}

// noteLoadError ledgers one rejected or unreadable spill record, split by
// cause so operators can tell disk rot (checksum) from rollout skew
// (version), misconfiguration (stream identity: wrong seed or
// namespace), and topology drift past the lineage's memory (instance).
func (sv *Server) noteLoadError(err error) {
	cause := ctrSpillLoadErrOther
	// The sentinels in cause-slot order, checksum first.
	for i, sentinel := range []error{snapshot.ErrChecksum, snapshot.ErrVersion, engine.ErrStreamMismatch, engine.ErrInstanceMismatch} {
		if errors.Is(err, sentinel) {
			cause = ctrSpillLoadErrChecksum + counter(i)
			break
		}
	}
	sv.ledger[cause].Add(1)
}

// restoreSpill loads the pair's latest spill record, if any, into its
// freshly created session. Every failure mode counts as one load error
// (split by cause, see noteLoadError) and leaves the pair wholly cold (a
// failed restore's session is replaced by a fresh one, so the ledger
// matches reality exactly); the pair then resamples lazily with
// byte-identical pools. Restore validates the checksum, format version
// and stream identity (seed and namespace) before adopting any bytes; a
// blob written at an ancestor epoch is adopted and repaired through the
// engine's bound lineage, and the repair bill is ledgered here. Runs
// inside the entry's restoreOnce.
func (sv *Server) restoreSpill(e *entry) {
	loc, ok := sv.spill.pin(e.key)
	if !ok {
		return
	}
	defer sv.spill.unpin(loc)
	// Restore runs once per entry and has no request context (SpillAll
	// and Warm reach it too), so the load is timed straight into the
	// stage histogram rather than as a span.
	if so := sv.obs; so != nil {
		defer func(start time.Time) {
			so.stage[obs.StageSpillLoad].Observe(time.Since(start).Nanoseconds())
		}(time.Now())
	}
	// One positioned read into an exactly-sized buffer; the session
	// decodes every section in place and keeps the buffer.
	buf := make([]byte, loc.n)
	_, err := loc.seg.f.ReadAt(buf, loc.off)
	if err == nil {
		err = e.sess.RestoreBytes(buf)
	}
	if err != nil {
		// Drop whatever part of the record did load (a fresh session is
		// cheap and answer-invariant), so SpillLoads/SpillDrawsSaved
		// count exactly the pairs that really came from disk.
		e.sess = sv.newSession(e.key, e.sess.Instance(), e.gen)
		sv.noteLoadError(err)
		return
	}
	e.loaded = true
	e.loadedDraws = e.sess.HeldDraws()
	e.loadedVmax = e.sess.VmaxKnown()
	sv.ledger[ctrSpillLoads].Add(1)
	sv.ledger[ctrSpillLoadBytes].Add(loc.n)
	sv.ledger[ctrSpillDrawsSaved].Add(e.loadedDraws)
	// An ancestor-epoch blob was adopted and repaired on the way in; the
	// session's engine is fresh (created with the entry), so its repair
	// ledger is exactly this load's bill.
	eng := e.sess.Engine()
	if rd, rs := eng.RepairDrawsResampled(), eng.RepairDrawsSaved(); rd > 0 || rs > 0 {
		sv.noteRepair(engine.RepairStats{Resampled: int(eng.RepairChunksResampled()), DrawsResampled: rd, DrawsSaved: rs})
		// Draws a repair re-made did not come from disk.
		sv.ledger[ctrSpillDrawsSaved].Add(-rd)
		// The record is at an ancestor epoch: the pair's next spill must
		// rewrite it, or every later load would repair it again.
		e.loadedDraws = -1
	}
}

// SpillAll snapshots every live pair to SpillDir without evicting — the
// graceful-shutdown flush: a successor process with the same Seed (see
// Warm) then answers its first queries from disk-warm pools. A
// successor knows the current graph but not this process's epoch
// lineage, so a pair a delta left stale is repaired to the current
// epoch before it is written (a pair whose repair fails is dropped, not
// written). The log is synced once, at the end. A no-op without a
// SpillDir. Returns the first write or sync error; pairs after an error
// are still attempted.
func (sv *Server) SpillAll() error {
	if sv.spill == nil {
		return nil
	}
	// A log that cannot open fails every write below, each ledgered.
	openErr := sv.spill.open()
	var firstErr error
	for i := range sv.shards {
		sh := &sv.shards[i]
		sh.mu.Lock()
		entries := make([]*entry, 0, len(sh.m))
		for _, e := range sh.m {
			entries = append(entries, e)
		}
		sh.mu.Unlock()
		for _, e := range entries {
			sv.ensureRestored(e)
			e, err := sv.current(context.Background(), e, sv.gen.Load(), nil)
			if err != nil {
				continue
			}
			if err := sv.writeSpill(e); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("spilling pair (%d,%d): %w", e.key.s, e.key.t, err)
			}
		}
	}
	if openErr != nil {
		return cmp.Or(firstErr, openErr)
	}
	if err := sv.spill.sync(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("syncing the spill log: %w", err)
	}
	return firstErr
}

// Warm admits every pair with a record in the spill log, in (s, t)
// order, and returns the number of pairs whose pools were actually
// restored from disk (records that fail validation admit a cold pair,
// ledgered in SpillLoadErrors, and are not counted). Records past
// Config.SpillTTL expire first. Admission runs through the normal cache
// path, so the byte budget is enforced (warming more state than fits
// simply re-spills the coldest pairs) and Stats ledgers the loads. A
// no-op without a SpillDir.
func (sv *Server) Warm() (int, error) {
	if sv.spill == nil {
		return 0, nil
	}
	if err := sv.spill.open(); err != nil {
		return 0, err
	}
	sv.expireSpills()
	n := 0
	for _, k := range sv.spill.keys() {
		h, err := sv.Pair(k.s, k.t)
		if err != nil {
			continue
		}
		if h.e.loaded {
			n++
		}
		h.Done()
	}
	return n, nil
}

// Solve runs RAF for (s,t) against the pair's cached session. cfg.Seed
// and cfg.Workers are ignored in favor of the server's per-pair streams.
// Like every public query method it runs through the query pipeline (see
// run): admission control (Config.MaxInflight), and coalescing of
// concurrent identical calls into one execution.
func (sv *Server) Solve(ctx context.Context, s, t graph.Node, cfg core.Config) (*core.Result, error) {
	return run(ctx, sv, KindSolve, &sv.solveFlights, solveParamsOf(s, t, cfg), func(ctx context.Context) (*core.Result, error) {
		return withPair(ctx, sv, KindSolve, s, t, func(e *entry) (*core.Result, error) {
			res, err := e.sess.RAF(ctx, cfg)
			if err != nil {
				return nil, err
			}
			sv.ledger[ctrPmaxDrawsReused].Add(res.PmaxReused)
			return res, nil
		})
	})
}

// maxAnswer is one SolveMax answer: the solver result and the
// decorrelated estimate of its set.
type maxAnswer struct {
	res *maxaf.Result
	f   float64
}

// SolveMax runs the budgeted maximum variant for (s,t) against the
// pair's cached solve pool (realizations ≤ 0 selects the default size)
// and re-measures the chosen set on the pair's decorrelated evaluation
// pool; see maxaf.SolveMaxOn. Concurrent identical calls coalesce.
func (sv *Server) SolveMax(ctx context.Context, s, t graph.Node, budget int, realizations int64) (*maxaf.Result, float64, error) {
	a, err := run(ctx, sv, KindSolveMax, &sv.maxFlights, maxParams{s, t, budget, realizations}, func(ctx context.Context) (maxAnswer, error) {
		return withPair(ctx, sv, KindSolveMax, s, t, func(e *entry) (maxAnswer, error) {
			res, f, err := maxaf.SolveMaxOn(ctx, e.sess, budget, realizations)
			return maxAnswer{res, f}, err
		})
	})
	return a.res, a.f, err
}

// sweepAnswer is one SolveMaxBudgets answer: the solver results and the
// decorrelated estimates of their sets, by budget.
type sweepAnswer struct {
	res []*maxaf.Result
	fs  []float64
}

// SolveMaxBudgets answers a whole budget sweep for (s,t) in one shot
// against the pair's cached pools; see maxaf.SolveMaxBudgetsOn. Results are
// identical to calling SolveMax per budget. Concurrent identical calls
// coalesce.
func (sv *Server) SolveMaxBudgets(ctx context.Context, s, t graph.Node, budgets []int, realizations int64) ([]*maxaf.Result, []float64, error) {
	p := sweepParams{s, t, fmt.Sprint(budgets), realizations}
	a, err := run(ctx, sv, KindSolveMax, &sv.sweepFlights, p, func(ctx context.Context) (sweepAnswer, error) {
		return withPair(ctx, sv, KindSolveMax, s, t, func(e *entry) (sweepAnswer, error) {
			res, fs, err := maxaf.SolveMaxBudgetsOn(ctx, e.sess, budgets, realizations)
			return sweepAnswer{res, fs}, err
		})
	})
	return a.res, a.fs, err
}

// EstimateF estimates f(invited) for (s,t) as a coverage query against
// the pair's cached evaluation pool, grown to at least trials draws.
// EstimateF is gated but never coalesced.
func (sv *Server) EstimateF(ctx context.Context, s, t graph.Node, invited *graph.NodeSet, trials int64) (float64, error) {
	return run(ctx, sv, KindEstimateF, nil, struct{}{}, func(ctx context.Context) (float64, error) {
		return withPair(ctx, sv, KindEstimateF, s, t, func(e *entry) (float64, error) {
			return e.sess.Eval().EstimateF(ctx, invited, trials)
		})
	})
}

// Pmax estimates p_max for (s,t) from the pair's evaluation pool — the
// cheap fixed-budget estimate (the pool's type-1 fraction over exactly
// trials draws). For an estimate with the paper's (ε₀, 1/N) stopping-rule
// guarantee, use PmaxEstimate. Concurrent identical calls coalesce.
func (sv *Server) Pmax(ctx context.Context, s, t graph.Node, trials int64) (float64, error) {
	return run(ctx, sv, KindPmax, &sv.pmaxFlights, pmaxParams{s, t, trials}, func(ctx context.Context) (float64, error) {
		return withPair(ctx, sv, KindPmax, s, t, func(e *entry) (float64, error) {
			return e.sess.Eval().FractionType1(ctx, trials)
		})
	})
}

// PmaxEstimate runs the Algorithm 2 stopping rule for (s,t) at relative
// error eps0 and failure probability 1/n under a draw budget (0 =
// unbounded), through the pair's retained estimator ledger: repeated or
// refined requests for one pair reuse every draw already paid for (the
// reuse is ledgered in Stats().PmaxDrawsReused), and the estimator state
// rides the spill tier across eviction and restarts. The result is a
// pure function of (Seed, s, t, eps0, n, maxDraws). Concurrent identical
// calls coalesce.
func (sv *Server) PmaxEstimate(ctx context.Context, s, t graph.Node, eps0, n float64, maxDraws int64) (engine.PmaxResult, error) {
	p := pmaxEstParams{s, t, math.Float64bits(eps0), math.Float64bits(n), maxDraws}
	return run(ctx, sv, KindPmaxEst, &sv.pmaxEstFlights, p, func(ctx context.Context) (engine.PmaxResult, error) {
		return withPair(ctx, sv, KindPmaxEst, s, t, func(e *entry) (engine.PmaxResult, error) {
			res, err := e.sess.EstimatePmax(ctx, eps0, n, maxDraws)
			sv.ledger[ctrPmaxDrawsReused].Add(res.Reused)
			return res, err
		})
	})
}

// PairHandle exposes a pair's cached session for harness use (the eval
// experiments drive core.Session directly). Call Done after a batch of
// operations so the server can settle the byte ledger and evict.
type PairHandle struct {
	sv *Server
	e  *entry
}

// Pair returns a handle on the (s,t) session, creating it on demand.
func (sv *Server) Pair(s, t graph.Node) (*PairHandle, error) {
	e, err := sv.acquire(context.Background(), KindAcquire, s, t)
	if err != nil {
		return nil, err
	}
	return &PairHandle{sv: sv, e: e}, nil
}

// Core returns the pair's session.
func (h *PairHandle) Core() *core.Session { return h.e.sess }

// Eval returns the pair's evaluation pool, Core().Eval().
func (h *PairHandle) Eval() *engine.Session { return h.e.sess.Eval() }

// Instance returns the pair's problem instance.
func (h *PairHandle) Instance() *ltm.Instance { return h.e.sess.Instance() }

// Done settles the pair's byte accounting and runs eviction. The handle
// stays usable afterwards (an evicted pair keeps working for in-flight
// holders; the server just stops charging for it).
func (h *PairHandle) Done() { h.sv.release(h.e) }
