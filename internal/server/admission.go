package server

import (
	"context"
	"errors"
)

// ErrOverloaded is the typed fast-reject: the in-flight query limit is
// reached and the wait queue is full. Transports map it to their own
// overload shape (HTTP 429, a pipe error reply); callers can test for
// it with errors.Is and retry with backoff — rejection never corrupts
// state, the query simply did not run.
var ErrOverloaded = errors.New("server: overloaded (in-flight limit reached and wait queue full)")

// admit is the server's in-flight gate and the first step of the query
// pipeline (run): at most cap(sv.slots) queries execute at once, at
// most sv.maxQueue more wait for a slot, and the rest fast-reject with
// ErrOverloaded. It blocks until a slot is free, the queue overflows or
// ctx ends (its error); a nil return must be paired with admitDone. A
// nil slots channel (Config.MaxInflight ≤ 0) disables the gate at zero
// cost. It admits before coalescing, so "in flight" counts client
// requests, joiners included. Internal traffic (PairHandle, Warm,
// ApplyDelta migrations) is never gated, and TopKRefine delegates to
// TopK ungated so it never holds two slots.
func (sv *Server) admit(ctx context.Context) error {
	if sv.slots == nil {
		return nil
	}
	select {
	case sv.slots <- struct{}{}:
		sv.ledger[ctrInflight].Add(1)
		sv.ledger[ctrAdmitted].Add(1)
		return nil
	default:
	}
	// Saturated: join the bounded wait queue or fast-reject. The counter
	// is optimistic — increment, then check — so a burst past the bound
	// rejects deterministically instead of over-admitting.
	if sv.ledger[ctrQueued].Add(1) > sv.maxQueue {
		sv.ledger[ctrQueued].Add(-1)
		sv.ledger[ctrRejected].Add(1)
		return ErrOverloaded
	}
	defer sv.ledger[ctrQueued].Add(-1)
	select {
	case sv.slots <- struct{}{}:
		sv.ledger[ctrInflight].Add(1)
		sv.ledger[ctrAdmitted].Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (sv *Server) admitDone() {
	if sv.slots == nil {
		return
	}
	sv.ledger[ctrInflight].Add(-1)
	<-sv.slots
}
