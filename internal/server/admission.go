package server

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrOverloaded is the typed fast-reject: the in-flight query limit is
// reached and the wait queue is full. Transports map it to their own
// overload shape (HTTP 429, a pipe error reply); callers can test for
// it with errors.Is and retry with backoff — rejection never corrupts
// state, the query simply did not run.
var ErrOverloaded = errors.New("server: overloaded (in-flight limit reached and wait queue full)")

// admission is the server's in-flight gate: at most cap(slots) queries
// execute at once, at most maxQueue more wait for a slot, and everything
// beyond that is rejected immediately with ErrOverloaded. A nil
// *admission (Config.MaxInflight ≤ 0) disables the gate at zero cost.
//
// The gate is the first step of the query pipeline (run), which every
// public query entry point passes through — Solve, SolveMax,
// SolveMaxBudgets, EstimateF, Pmax, PmaxEstimate and TopK (and through
// it TopKRefine, which delegates ungated and must not hold two slots) —
// and it admits before coalescing, so "in flight" counts client
// requests, including ones that will join an identical leader. Internal traffic (PairHandle acquisitions,
// Warm, ApplyDelta migrations) is never gated: admission protects the
// server from clients, not from itself.
type admission struct {
	slots    chan struct{}
	maxQueue int64

	inflight atomic.Int64 // currently executing (holding a slot)
	queued   atomic.Int64 // currently waiting for a slot
	admitted atomic.Int64 // lifetime admits (fast-path + dequeued)
	rejected atomic.Int64 // lifetime fast-rejects
}

func newAdmission(maxInflight, maxQueue int) *admission {
	if maxInflight <= 0 {
		return nil
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &admission{
		slots:    make(chan struct{}, maxInflight),
		maxQueue: int64(maxQueue),
	}
}

// admit blocks until a slot is free, the queue overflows (ErrOverloaded)
// or ctx is done (its error). Every nil return must be paired with
// release.
func (a *admission) admit(ctx context.Context) error {
	if a == nil {
		return nil
	}
	select {
	case a.slots <- struct{}{}:
		a.inflight.Add(1)
		a.admitted.Add(1)
		return nil
	default:
	}
	// Saturated: join the bounded wait queue or fast-reject. The counter
	// is optimistic — increment, then check — so a burst past the bound
	// rejects deterministically instead of over-admitting.
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		a.rejected.Add(1)
		return ErrOverloaded
	}
	defer a.queued.Add(-1)
	select {
	case a.slots <- struct{}{}:
		a.inflight.Add(1)
		a.admitted.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (a *admission) release() {
	if a == nil {
		return
	}
	a.inflight.Add(-1)
	<-a.slots
}

// admit gates one query on the server's admission limiter; see admission.
func (sv *Server) admit(ctx context.Context) error { return sv.adm.admit(ctx) }

func (sv *Server) admitDone() { sv.adm.release() }
