package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/weights"
)

// waitFor polls until cond holds, failing the test after ~5s — used to
// observe a goroutine reaching the wait queue, which has no ordering
// edge with the spawning test otherwise.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}

func newAdmissionServer(tb testing.TB, maxInflight, maxQueue int) *Server {
	g := testGraph(40, 60)
	return New(g, weights.NewDegree(g), Config{
		Seed:        7,
		Workers:     2,
		MaxInflight: maxInflight,
		MaxQueue:    maxQueue,
	})
}

// TestAdmissionFastReject pins the gate's semantics deterministically by
// occupying slots directly: with every slot held and the queue full,
// the next admit rejects immediately with ErrOverloaded instead of
// queuing unboundedly, and the ledger accounts every transition.
func TestAdmissionFastReject(t *testing.T) {
	sv := newAdmissionServer(t, 2, 1)
	ctx := context.Background()

	// Occupy both slots.
	if err := sv.admit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sv.admit(ctx); err != nil {
		t.Fatal(err)
	}
	if st := sv.Stats(); st.Inflight != 2 || st.Admitted != 2 {
		t.Fatalf("after two admits: %+v", st)
	}

	// Third query queues (the queue has one seat)...
	queuedErr := make(chan error, 1)
	go func() { queuedErr <- sv.admit(ctx) }()
	waitFor(t, func() bool { return sv.Stats().Queued == 1 })

	// ...and the fourth fast-rejects: saturated slots, full queue.
	if err := sv.admit(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("fourth admit: err = %v, want ErrOverloaded", err)
	}
	if st := sv.Stats(); st.Rejected != 1 || st.Queued != 1 || st.Inflight != 2 {
		t.Fatalf("after fast-reject: %+v", st)
	}

	// A gated query surfaces the same rejection through its public entry
	// point — the queue seat is still taken, so it cannot wait.
	if _, err := sv.Pmax(ctx, 0, 5, 1000); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Pmax under saturation: err = %v, want ErrOverloaded", err)
	}

	// Releasing a slot admits the queued waiter.
	sv.admitDone()
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued admit: %v", err)
	}
	if st := sv.Stats(); st.Inflight != 2 || st.Queued != 0 || st.Admitted != 3 {
		t.Fatalf("after dequeue: %+v", st)
	}

	sv.admitDone()
	sv.admitDone()
	if st := sv.Stats(); st.Inflight != 0 || st.Queued != 0 || st.Admitted != 3 || st.Rejected != 2 {
		t.Fatalf("final ledger: %+v", st)
	}
	// With the gate clear, queries run again — rejection never corrupts.
	if _, err := sv.Pmax(ctx, 0, 5, 1000); err != nil {
		t.Fatalf("Pmax after release: %v", err)
	}
}

// TestAdmissionCancelWhileQueued: a queued query whose context is
// canceled leaves with ctx.Err(), vacating its queue seat without
// consuming a slot — counted neither admitted nor rejected.
func TestAdmissionCancelWhileQueued(t *testing.T) {
	sv := newAdmissionServer(t, 1, 4)
	if err := sv.admit(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	queuedErr := make(chan error, 1)
	go func() { queuedErr <- sv.admit(ctx) }()
	waitFor(t, func() bool { return sv.Stats().Queued == 1 })
	cancel()
	if err := <-queuedErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled admit: err = %v, want context.Canceled", err)
	}
	if st := sv.Stats(); st.Queued != 0 || st.Admitted != 1 || st.Rejected != 0 {
		t.Fatalf("after cancellation: %+v", st)
	}
	sv.admitDone()
}

// TestAdmissionDisabled: MaxInflight ≤ 0 disables the gate entirely —
// queries run ungated and the ledger stays zero.
func TestAdmissionDisabled(t *testing.T) {
	g := testGraph(40, 60)
	sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2})
	if sv.slots != nil {
		t.Fatal("gate constructed with MaxInflight = 0")
	}
	if _, err := sv.Pmax(context.Background(), 0, 5, 1000); err != nil {
		t.Fatal(err)
	}
	if st := sv.Stats(); st.Inflight != 0 || st.Queued != 0 || st.Admitted != 0 || st.Rejected != 0 {
		t.Fatalf("disabled gate has a ledger: %+v", st)
	}
}

// TestAdmissionConcurrent hammers the gate from many goroutines across
// every gated query kind (run under -race in CI). The invariants: the
// ledger is exhaustive (admitted + rejected = attempts, nothing
// canceled here), occupancy returns to zero, and admitted answers are
// correct — rejection sheds load without corrupting anything.
func TestAdmissionConcurrent(t *testing.T) {
	sv := newAdmissionServer(t, 2, 2)
	g := sv.Graph()
	pairs := validPairs(g, 4)
	if len(pairs) < 2 {
		t.Skip("not enough pairs")
	}

	const workers = 16
	const perWorker = 8
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				pk := pairs[(w+i)%len(pairs)]
				var err error
				switch i % 3 {
				case 0:
					_, err = sv.Pmax(ctx, pk.s, pk.t, 2000)
				case 1:
					_, err = sv.PmaxEstimate(ctx, pk.s, pk.t, 0.25, 50, 20000)
				default:
					_, err = sv.Solve(ctx, pk.s, pk.t, solveCfg)
				}
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)

	var okCount, rejected int
	for err := range errs {
		switch {
		case err == nil:
			okCount++
		case errors.Is(err, ErrOverloaded):
			rejected++
		default:
			t.Errorf("unexpected error: %v", err)
		}
	}
	st := sv.Stats()
	if st.Inflight != 0 || st.Queued != 0 {
		t.Errorf("gate still occupied after drain: %+v", st)
	}
	if int(st.Admitted) != okCount || int(st.Rejected) != rejected {
		t.Errorf("ledger (admitted %d, rejected %d) disagrees with callers (%d ok, %d rejected)",
			st.Admitted, st.Rejected, okCount, rejected)
	}
	if okCount == 0 {
		t.Error("every query rejected: the gate admits nothing")
	}

	// Answers from the contended server match an ungated reference.
	ref := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2})
	for _, pk := range pairs[:2] {
		want, err1 := ref.Pmax(ctx, pk.s, pk.t, 2000)
		got, err2 := sv.Pmax(ctx, pk.s, pk.t, 2000)
		if err1 != nil || err2 != nil || got != want {
			t.Errorf("pmax(%d,%d) = %v/%v, want %v/%v", pk.s, pk.t, got, err2, want, err1)
		}
	}
}
