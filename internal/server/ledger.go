package server

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
)

// KindStats is the hit/miss tally for one query kind: a hit found the
// pair's session cached; a miss created it (including re-creation after
// eviction).
type KindStats struct {
	Hits   int64
	Misses int64
}

// Stats is the server's observability ledger and, marshaled, the
// protocol's stats reply (proto and the public facade alias it), so
// field names, order and types are wire format. Each field is filled by
// one ledgerRows row: a new value is one field plus one row.
type Stats struct {
	// SessionsLive counts cached pair sessions; SessionsCreated and
	// SessionsEvicted are lifetime counters (a pair recreated after
	// eviction counts as created again), so at quiescence SessionsLive
	// == SessionsCreated − SessionsEvicted. BytesHeld is the accounted
	// size of cached pair state; after an eviction pass it never exceeds
	// Config.MaxPoolBytes (a snapshot during a pass may see it above).
	SessionsLive    int
	SessionsCreated int64
	SessionsEvicted int64
	BytesHeld       int64
	// Spills counts evictions (and SpillAll flushes) that appended a
	// pair's record to the spill log in Config.SpillDir, totalling
	// SpillBytes (record headers included); SpillLoads counts
	// re-admissions restored from a spill record (SpillLoadBytes read),
	// and SpillDrawsSaved the pool draws those loads did not resample.
	// SpillLoadErrors sums the records rejected or unreadable, by cause:
	// checksum, format version, stream identity (wrong seed), instance
	// (a graph the epoch lineage does not know), and other.
	// SpillWriteErrors counts failed appends (the previous record still
	// serves), SpillFilesExpired the records Config.SpillTTL expired. An
	// affected pair resamples, which changes no answer.
	Spills               int64
	SpillBytes           int64
	SpillLoads           int64
	SpillLoadBytes       int64
	SpillDrawsSaved      int64
	SpillLoadErrors      int64
	SpillLoadErrChecksum int64
	SpillLoadErrVersion  int64
	SpillLoadErrStream   int64
	SpillLoadErrInstance int64
	SpillLoadErrOther    int64
	SpillWriteErrors     int64
	SpillFilesExpired    int64
	// DeltasApplied counts deltas that changed the graph or its weights,
	// PairsDropped the pairs they dissolved (s and t became adjacent).
	// PairsStale counts cached pairs not at the current epoch: left
	// behind by a delta, they are repaired on their first touch.
	// PoolsRepaired counts pair migrations and stale-spill loads carried
	// across epochs by repair, re-drawing RepairChunksResampled chunks
	// (RepairDrawsResampled draws) and adopting RepairDrawsSaved draws;
	// each is booked when its repair runs.
	DeltasApplied         int64
	PairsDropped          int64
	PairsStale            int
	PoolsRepaired         int64
	RepairChunksResampled int64
	RepairDrawsResampled  int64
	RepairDrawsSaved      int64
	// PmaxDrawsReused totals the Algorithm 2 stopping-rule draws answered
	// from a pair's retained estimator ledger instead of resampled.
	// Coalesced counts queries that joined an identical in-flight query
	// (same kind, pair, parameters and epoch); see flights.do.
	PmaxDrawsReused int64
	Coalesced       int64
	// Inflight and Queued are the admission gate's occupancy; Admitted
	// and Rejected are lifetime counters (a query whose context ends
	// while queued counts in neither). All zero with admission off.
	Inflight int
	Queued   int
	Admitted int64
	Rejected int64
	// Per-kind hit/miss tallies (kindInfo); TopK counts the candidate
	// session acquisitions of batched ranking rounds.
	Solve                 KindStats
	SolveMax              KindStats
	AcceptanceProbability KindStats
	Pmax                  KindStats
	EstimatePmax          KindStats
	TopK                  KindStats
	// Panics counts query executions that panicked; their callers got
	// ErrInternal (see run).
	Panics int64
}

// counter names one atomic slot of the server's ledger. Bumping a
// ledger value is a single atomic add on its slot.
type counter int

const (
	ctrSessionsCreated counter = iota
	ctrSessionsEvicted
	ctrBytesHeld
	ctrSpills
	ctrSpillBytes
	ctrSpillLoads
	ctrSpillLoadBytes
	ctrSpillDrawsSaved
	ctrSpillLoadErrChecksum
	ctrSpillLoadErrVersion
	ctrSpillLoadErrStream
	ctrSpillLoadErrInstance
	ctrSpillLoadErrOther
	ctrSpillWriteErrors
	ctrSpillFilesExpired
	ctrDeltasApplied
	ctrPairsDropped
	ctrPairsStale
	ctrPoolsRepaired
	ctrRepairChunks
	ctrRepairDraws
	ctrRepairSaved
	ctrPmaxDrawsReused
	ctrCoalesced
	ctrInflight
	ctrQueued
	ctrAdmitted
	ctrRejected
	ctrPanics
	ctrHits                                   // kind k's hits are slot ctrHits+k
	ctrMisses   = ctrHits + counter(numKinds) // and its misses ctrMisses+k
	numCounters = ctrMisses + counter(numKinds)
)

type ledger [numCounters]atomic.Int64

// ledgerRow declares one ledger value for every reader: the Stats field
// it fills, its metric series and the /statusz line (group) it prints
// on — each "" for none; kind tallies print on the per-kind lines. It
// reads its atomic slot, or read when that is set.
type ledgerRow struct {
	field, name, help, group string
	labels                   []string
	gauge                    bool
	slot                     counter
	read                     func(*Server) int64
}

// ledgerRows is the single declaration of the ledger: Stats, the
// scrape-time metric mirrors and the /statusz ledger lines all loop
// over it. Series of one metric family expose in table order.
var ledgerRows = append([]ledgerRow{
	{field: "SessionsLive", name: "af_sessions_live", help: "currently cached pair sessions", gauge: true, group: "sessions", read: (*Server).sessionsLive},
	{field: "SessionsCreated", name: "af_sessions_created_total", help: "pair sessions created (recreation after eviction included)", group: "sessions", slot: ctrSessionsCreated},
	{field: "SessionsEvicted", name: "af_sessions_evicted_total", help: "pair sessions evicted", group: "sessions", slot: ctrSessionsEvicted},
	{field: "BytesHeld", name: "af_bytes_held", help: "accounted bytes of cached pair state", gauge: true, group: "sessions", slot: ctrBytesHeld},
	{field: "Spills", name: "af_spills_total", help: "evictions and flushes that wrote a spill record", group: "spill", slot: ctrSpills},
	{field: "SpillBytes", name: "af_spill_bytes_total", help: "bytes appended to the spill log", group: "spill", slot: ctrSpillBytes},
	{field: "SpillLoads", name: "af_spill_loads_total", help: "pair admissions restored from a spill record", group: "spill", slot: ctrSpillLoads},
	{field: "SpillLoadBytes", name: "af_spill_load_bytes_total", help: "bytes read from spill records", group: "spill", slot: ctrSpillLoadBytes},
	{field: "SpillDrawsSaved", name: "af_spill_draws_saved_total", help: "pool draws spill restores avoided", group: "spill", slot: ctrSpillDrawsSaved},
	{field: "SpillLoadErrors", read: func(sv *Server) (n int64) {
		for c := ctrSpillLoadErrChecksum; c <= ctrSpillLoadErrOther; c++ {
			n += sv.ledger[c].Load()
		}
		return n
	}},
	{field: "SpillLoadErrChecksum", name: "af_spill_load_errors_total", help: loadErrHelp, labels: []string{"cause", "checksum"}, group: "spill", slot: ctrSpillLoadErrChecksum},
	{field: "SpillLoadErrVersion", name: "af_spill_load_errors_total", help: loadErrHelp, labels: []string{"cause", "version"}, group: "spill", slot: ctrSpillLoadErrVersion},
	{field: "SpillLoadErrStream", name: "af_spill_load_errors_total", help: loadErrHelp, labels: []string{"cause", "stream"}, group: "spill", slot: ctrSpillLoadErrStream},
	{field: "SpillLoadErrInstance", name: "af_spill_load_errors_total", help: loadErrHelp, labels: []string{"cause", "instance"}, group: "spill", slot: ctrSpillLoadErrInstance},
	{field: "SpillLoadErrOther", name: "af_spill_load_errors_total", help: loadErrHelp, labels: []string{"cause", "other"}, group: "spill", slot: ctrSpillLoadErrOther},
	{field: "SpillWriteErrors", name: "af_spill_write_errors_total", help: "failed spill snapshot writes", group: "spill", slot: ctrSpillWriteErrors},
	{field: "SpillFilesExpired", name: "af_spill_files_expired_total", help: "spill records expired by the TTL", group: "spill", slot: ctrSpillFilesExpired},
	{field: "DeltasApplied", name: "af_deltas_applied_total", help: "graph deltas that changed the graph or weights", group: "deltas", slot: ctrDeltasApplied},
	{field: "PairsDropped", name: "af_pairs_dropped_total", help: "pairs dissolved by a delta", group: "deltas", slot: ctrPairsDropped},
	{field: "PairsStale", name: "af_pairs_stale", help: "cached pairs not at the current epoch, repaired on first touch", gauge: true, group: "deltas", slot: ctrPairsStale},
	{field: "PoolsRepaired", name: "af_pools_repaired_total", help: "pair migrations and spill loads that repaired pools across epochs", group: "deltas", slot: ctrPoolsRepaired},
	{field: "RepairChunksResampled", name: "af_repair_chunks_resampled_total", help: "pool chunks re-drawn by delta repair", group: "deltas", slot: ctrRepairChunks},
	{field: "RepairDrawsResampled", name: "af_repair_draws_resampled_total", help: "pool draws re-drawn by delta repair", group: "deltas", slot: ctrRepairDraws},
	{field: "RepairDrawsSaved", name: "af_repair_draws_saved_total", help: "pool draws adopted verbatim by delta repair", group: "deltas", slot: ctrRepairSaved},
	{name: "af_graph_epochs", help: "graph epochs served (1 + effective deltas)", gauge: true, group: "deltas", read: func(sv *Server) int64 { return int64(sv.Epochs()) }},
	{field: "PmaxDrawsReused", name: "af_pmax_draws_reused_total", help: "stopping-rule draws answered from retained estimator ledgers", group: "reuse", slot: ctrPmaxDrawsReused},
	{field: "Coalesced", name: "af_coalesced_total", help: "queries that joined an identical in-flight query", group: "reuse", slot: ctrCoalesced},
	// Admission series read zero with the gate off, but always exist.
	{field: "Inflight", name: "af_inflight", help: "queries currently executing (holding an admission slot)", gauge: true, group: "admission", slot: ctrInflight},
	{field: "Queued", name: "af_queue_depth", help: "queries waiting for an admission slot", gauge: true, group: "admission", slot: ctrQueued},
	{field: "Admitted", name: "af_admitted_total", help: "queries admitted past the in-flight gate", group: "admission", slot: ctrAdmitted},
	{field: "Rejected", name: "af_rejected_total", help: "queries fast-rejected by admission control", group: "admission", slot: ctrRejected},
	{field: "Panics", name: "af_panics_total", help: "query executions that panicked (answered with ErrInternal)", group: "faults", slot: ctrPanics},
}, kindRows()...)

const loadErrHelp = "spill records rejected or unreadable, by cause"

// kindRows declares every kind's hit and miss rows.
func kindRows() (rows []ledgerRow) {
	for k := KindSolve; k < numKinds; k++ {
		for i, result := range []string{"hit", "miss"} {
			r := ledgerRow{name: "af_requests_total", help: "session acquisitions by kind and cache outcome",
				labels: []string{"kind", k.String(), "result", result}, slot: [2]counter{ctrHits, ctrMisses}[i] + counter(k)}
			if f := kindInfo[k].field; f != "" {
				r.field = f + [2]string{".Hits", ".Misses"}[i]
			}
			rows = append(rows, r)
		}
	}
	return rows
}

func (r *ledgerRow) value(sv *Server) int64 {
	if r.read != nil {
		return r.read(sv)
	}
	return sv.ledger[r.slot].Load()
}

// series names the row as /metrics does, without the af_ prefix.
func (r *ledgerRow) series() string {
	s := strings.TrimPrefix(r.name, "af_")
	var kv []string
	for j := 0; j+1 < len(r.labels); j += 2 {
		kv = append(kv, fmt.Sprintf("%s=%q", r.labels[j], r.labels[j+1]))
	}
	if kv != nil {
		s += "{" + strings.Join(kv, ",") + "}"
	}
	return s
}

func (sv *Server) sessionsLive() int64 {
	n := 0
	for i := range sv.shards {
		sh := &sv.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return int64(n)
}

// kindCounts returns kind's hit and miss tallies.
func (sv *Server) kindCounts(k Kind) (hits, misses int64) {
	return sv.ledger[ctrHits+counter(k)].Load(), sv.ledger[ctrMisses+counter(k)].Load()
}

// Stats returns a snapshot of the server's ledger.
func (sv *Server) Stats() Stats {
	var st Stats
	for i := range ledgerRows {
		if r := &ledgerRows[i]; r.field != "" {
			f := reflect.ValueOf(&st).Elem()
			for _, name := range strings.Split(r.field, ".") {
				f = f.FieldByName(name)
			}
			f.SetInt(r.value(sv))
		}
	}
	return st
}

// registerLedger mirrors every metric row into reg as a scrape-time
// CounterFunc/GaugeFunc, so the query hot path pays nothing for it.
func (sv *Server) registerLedger(reg *obs.Registry) {
	for i := range ledgerRows {
		r := &ledgerRows[i]
		f := func() float64 { return float64(r.value(sv)) }
		switch {
		case r.name == "":
		case r.gauge:
			reg.GaugeFunc(r.name, r.help, f, r.labels...)
		default:
			reg.CounterFunc(r.name, r.help, f, r.labels...)
		}
	}
}

// writeLedger prints one /statusz line per row group,
// "group: series=value ...", each series named as on /metrics.
func (sv *Server) writeLedger(w io.Writer) {
	group, sep := "", ""
	for i := range ledgerRows {
		r := &ledgerRows[i]
		if r.group == "" {
			continue
		}
		if r.group != group {
			fmt.Fprintf(w, "%s%s:", sep, r.group)
			group, sep = r.group, "\n"
		}
		fmt.Fprintf(w, " %s=%d", r.series(), r.value(sv))
	}
	fmt.Fprintln(w)
}
