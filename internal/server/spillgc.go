package server

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/graph"
)

// sweepExpiredSpillsLocked removes spill files whose mtime is older than
// Config.SpillTTL and ledgers them in SpillFilesExpired. Callers must
// hold deltaMu: the sweep must not race ApplyDelta's own spill-dir walk
// (sweepDissolvedSpills), and serializing through the same mutex keeps
// "one directory walker at a time" an invariant rather than a hope.
//
// Expiry keys on mtime alone — rename(2) stamps a fresh mtime on every
// rewrite, so a file's age is exactly the time since its pair last
// changed. Removing the file of a pair that is still live (or about to
// be queried) is answer-invariant: pools are pure functions of
// (Seed, s, t), so the pair merely resamples from scratch instead of
// restoring. TTL'd GC trades that resample cost for a bounded spill dir.
// A no-op when SpillTTL ≤ 0 or there is no SpillDir.
func (sv *Server) sweepExpiredSpillsLocked() int {
	ttl := sv.cfg.SpillTTL
	if ttl <= 0 || sv.cfg.SpillDir == "" {
		return 0
	}
	des, err := os.ReadDir(sv.cfg.SpillDir)
	if err != nil {
		return 0
	}
	cutoff := time.Now().Add(-ttl)
	n := 0
	for _, de := range des {
		var s, t graph.Node
		// Same exact-name discipline as Warm: only files that re-render
		// to their own name are spill blobs; tmp debris and foreign files
		// are not ours to expire.
		if c, err := fmt.Sscanf(de.Name(), spillPattern, &s, &t); err != nil || c != 2 ||
			de.Name() != fmt.Sprintf(spillPattern, s, t) {
			continue
		}
		info, err := de.Info()
		if err != nil || !info.ModTime().Before(cutoff) {
			continue
		}
		if os.Remove(filepath.Join(sv.cfg.SpillDir, de.Name())) == nil {
			n++
		}
	}
	if n > 0 {
		sv.ledger[ctrSpillFilesExpired].Add(int64(n))
	}
	return n
}

// maybeSweepExpiredSpills is the periodic entry point, hung off the
// spill-write path: at most one sweep per TTL/4 (floored at a second),
// claimed by CAS on lastSweep so concurrent evictions never pile up on
// the directory walk, and gated by TryLock on deltaMu so a sweep never
// waits behind — or deadlocks under — a running ApplyDelta (which calls
// writeSpill while holding deltaMu and sweeps on its own way out).
func (sv *Server) maybeSweepExpiredSpills() {
	ttl := sv.cfg.SpillTTL
	if ttl <= 0 || sv.cfg.SpillDir == "" {
		return
	}
	interval := ttl / 4
	if interval < time.Second {
		interval = time.Second
	}
	now := time.Now().UnixNano()
	last := sv.lastSweep.Load()
	if now-last < int64(interval) || !sv.lastSweep.CompareAndSwap(last, now) {
		return
	}
	if !sv.deltaMu.TryLock() {
		return
	}
	defer sv.deltaMu.Unlock()
	sv.sweepExpiredSpillsLocked()
}
