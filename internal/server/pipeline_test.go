package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/maxaf"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/weights"
)

// holdShards locks every shard of the pair map, so any query that
// reaches acquire blocks there — inside its flight, after admission —
// until the returned release runs. It lets a test hold a query open
// without relying on scheduler luck. Nothing that locks a shard (Stats
// included) may run while the shards are held.
func holdShards(sv *Server) (release func()) {
	for i := range sv.shards {
		sv.shards[i].mu.Lock()
	}
	return func() {
		for i := range sv.shards {
			sv.shards[i].mu.Unlock()
		}
	}
}

// gatedEntry is one public query entry point of the server.
type gatedEntry struct {
	name      string
	kind      Kind
	coalesces bool
	call      func(ctx context.Context, sv *Server, p pairKey, targets []graph.Node) error
}

var gatedEntries = []gatedEntry{
	{"Solve", KindSolve, true, func(ctx context.Context, sv *Server, p pairKey, _ []graph.Node) error {
		_, err := sv.Solve(ctx, p.s, p.t, solveCfg)
		return err
	}},
	{"SolveMax", KindSolveMax, true, func(ctx context.Context, sv *Server, p pairKey, _ []graph.Node) error {
		_, _, err := sv.SolveMax(ctx, p.s, p.t, 3, 2000)
		return err
	}},
	{"SolveMaxBudgets", KindSolveMax, true, func(ctx context.Context, sv *Server, p pairKey, _ []graph.Node) error {
		_, _, err := sv.SolveMaxBudgets(ctx, p.s, p.t, []int{1, 3}, 2000)
		return err
	}},
	{"EstimateF", KindEstimateF, false, func(ctx context.Context, sv *Server, p pairKey, _ []graph.Node) error {
		_, err := sv.EstimateF(ctx, p.s, p.t, graph.NewNodeSetOf(sv.Graph().NumNodes(), p.t), 2000)
		return err
	}},
	{"Pmax", KindPmax, true, func(ctx context.Context, sv *Server, p pairKey, _ []graph.Node) error {
		_, err := sv.Pmax(ctx, p.s, p.t, 2000)
		return err
	}},
	{"PmaxEstimate", KindPmaxEst, true, func(ctx context.Context, sv *Server, p pairKey, _ []graph.Node) error {
		_, err := sv.PmaxEstimate(ctx, p.s, p.t, 0.25, 50, 20000)
		return err
	}},
	{"TopK", KindTopK, true, func(ctx context.Context, sv *Server, p pairKey, targets []graph.Node) error {
		_, err := sv.TopK(ctx, TopKQuery{S: p.s, Targets: targets, K: 1, Budget: 2, Realizations: 2000})
		return err
	}},
}

// TestGatedEntryPoints checks every gated query entry point for three
// behaviours: it fast-rejects with ErrOverloaded when the gate is
// saturated; two concurrent identical calls coalesce into one execution
// (except EstimateF, which is never coalesced); and the execution is
// ledgered under the entry point's own kind.
func TestGatedEntryPoints(t *testing.T) {
	g := testGraph(40, 60)
	p := validPairs(g, 1)[0]
	targets := []graph.Node{}
	for _, q := range validPairs(g, 40) {
		if q.s == p.s && len(targets) < 2 {
			targets = append(targets, q.t)
		}
	}
	other := validPairs(g, 2)[1]
	ctx := context.Background()
	for _, e := range gatedEntries {
		t.Run(e.name, func(t *testing.T) {
			// Saturated gate: the only slot is held by a query blocked
			// inside its flight, and the queue has no seat.
			sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2, MaxInflight: 1, MaxQueue: 0})
			release := holdShards(sv)
			holder := make(chan error, 1)
			go func() {
				_, err := sv.Pmax(ctx, other.s, other.t, 1000)
				holder <- err
			}()
			waitFor(t, func() bool { return sv.ledger[ctrInflight].Load() == 1 })
			err := e.call(ctx, sv, p, targets)
			release()
			if !errors.Is(err, ErrOverloaded) {
				t.Errorf("saturated gate: err = %v, want ErrOverloaded", err)
			}
			if err := <-holder; err != nil {
				t.Fatalf("holder: %v", err)
			}

			// Two identical calls overlapping in time.
			sv = New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2, MaxInflight: 8, MaxQueue: 8})
			release = holdShards(sv)
			errs := make(chan error, 2)
			go func() { errs <- e.call(ctx, sv, p, targets) }()
			waitFor(t, func() bool { return sv.ledger[ctrInflight].Load() == 1 })
			go func() { errs <- e.call(ctx, sv, p, targets) }()
			if e.coalesces {
				waitFor(t, func() bool { return sv.ledger[ctrCoalesced].Load() == 1 })
			} else {
				waitFor(t, func() bool { return sv.ledger[ctrInflight].Load() == 2 })
			}
			release()
			for i := 0; i < 2; i++ {
				if err := <-errs; err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
			}
			st := sv.Stats()
			want := int64(0)
			if e.coalesces {
				want = 1
			}
			if st.Coalesced != want {
				t.Errorf("Coalesced = %d, want %d", st.Coalesced, want)
			}
			for k := KindSolve; k < numKinds; k++ {
				hits, misses := sv.kindCounts(k)
				n := hits + misses
				switch {
				case k == e.kind && n == 0:
					t.Errorf("kind %v: no acquisitions ledgered", k)
				case k != e.kind && n != 0:
					t.Errorf("kind %v: %d acquisitions ledgered for a %s call", k, n, e.name)
				}
			}
		})
	}
}

// TestRequestHistogramCountsRequests: af_request_seconds and
// af_request_errors_total count requests, not executions — a query
// rejected by the admission gate and a joiner that shares an identical
// query's flight each record their own sample.
func TestRequestHistogramCountsRequests(t *testing.T) {
	g := testGraph(40, 60)
	pairs := validPairs(g, 2)
	ctx := context.Background()
	samples := func(sv *Server) (n int64, errs int64) {
		return sv.obs.reqHist[KindPmax].Snapshot().Count(), sv.obs.reqErrs[KindPmax].Value()
	}

	t.Run("rejected", func(t *testing.T) {
		sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2, MaxInflight: 1, MaxQueue: 0, Obs: obs.New()})
		release := holdShards(sv)
		holder := make(chan error, 1)
		go func() {
			_, err := sv.EstimateF(ctx, pairs[1].s, pairs[1].t, graph.NewNodeSetOf(g.NumNodes(), pairs[1].t), 1000)
			holder <- err
		}()
		waitFor(t, func() bool { return sv.ledger[ctrInflight].Load() == 1 })
		_, err := sv.Pmax(ctx, pairs[0].s, pairs[0].t, 1000)
		release()
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("err = %v, want ErrOverloaded", err)
		}
		if err := <-holder; err != nil {
			t.Fatal(err)
		}
		if n, errs := samples(sv); n != 1 || errs != 1 {
			t.Errorf("pmax request samples = %d, errors = %d; want 1, 1", n, errs)
		}
	})

	t.Run("joiner", func(t *testing.T) {
		sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2, Obs: obs.New()})
		release := holdShards(sv)
		errs := make(chan error, 2)
		call := func() {
			_, err := sv.Pmax(ctx, pairs[0].s, pairs[0].t, 1000)
			errs <- err
		}
		go call()
		go call()
		waitFor(t, func() bool { return sv.ledger[ctrCoalesced].Load() == 1 })
		release()
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		if n, errs := samples(sv); n != 2 || errs != 0 {
			t.Errorf("pmax request samples = %d, errors = %d; want 2, 0", n, errs)
		}
		// Stages are fed by the one execution only.
		if n := sv.obs.stage[obs.StageAcquire].Snapshot().Count(); n != 1 {
			t.Errorf("acquire stage samples = %d, want 1", n)
		}
	})
}

// TestWarmPmaxAllocs bounds the allocations of a warm (cached) Pmax on
// an uninstrumented server: the pipeline keys flights by typed
// parameter values and carries typed results, so neither a rendered
// key string nor a boxed answer is paid per request.
func TestWarmPmaxAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	g := testGraph(40, 60)
	p := validPairs(g, 1)[0]
	sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2})
	ctx := context.Background()
	if _, err := sv.Pmax(ctx, p.s, p.t, 2000); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sv.Pmax(ctx, p.s, p.t, 2000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("warm Pmax allocates %v times per call, want ≤ 4", allocs)
	}
}

// TestRunPanicAnswersJoiners: a panic in a flight's execution is
// contained to that flight. The leader and a coalesced joiner both get
// ErrInternal carrying the panic value (not a zero value with a nil
// error), the process survives, and Stats.Panics counts it once.
func TestRunPanicAnswersJoiners(t *testing.T) {
	g := testGraph(40, 60)
	sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 1})
	var fl flights[int, int]
	ctx := context.Background()
	started, release := make(chan struct{}), make(chan struct{})
	errs := make(chan error, 2)
	go func() {
		_, err := run(ctx, sv, KindPmax, &fl, 1, func(context.Context) (int, error) {
			close(started)
			<-release
			panic("boom")
		})
		errs <- err
	}()
	<-started
	go func() {
		v, err := run(ctx, sv, KindPmax, &fl, 1, func(context.Context) (int, error) { return 1, nil })
		if err == nil {
			err = errors.New("joiner got a nil error")
		} else if v != 0 {
			err = errors.New("joiner got a value with its error")
		}
		errs <- err
	}()
	waitFor(t, func() bool { return sv.Stats().Coalesced == 1 })
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrInternal) || !strings.Contains(err.Error(), "boom") {
			t.Errorf("caller %d: err = %v, want ErrInternal wrapping the panic value", i, err)
		}
	}
	if n := sv.Stats().Panics; n != 1 {
		t.Errorf("Stats.Panics = %d, want 1", n)
	}
	// The server keeps answering after the contained panic.
	if _, err := sv.Pmax(ctx, 0, 5, 1000); err != nil {
		t.Fatalf("query after a contained panic: %v", err)
	}
}

// TestRunContainsWorkerPanic: a panic on a parallel.For worker inside a
// query's execution reaches run's recover on the caller's goroutine, so
// it answers that query with ErrInternal instead of killing the process.
func TestRunContainsWorkerPanic(t *testing.T) {
	g := testGraph(40, 60)
	sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2})
	ctx := context.Background()
	_, err := run(ctx, sv, KindPmax, nil, 0, func(ctx context.Context) (int, error) {
		return 0, parallel.For(ctx, 8, 2, func(i int) {
			if i == 3 {
				panic("worker boom")
			}
		})
	})
	if !errors.Is(err, ErrInternal) || !strings.Contains(err.Error(), "worker boom") {
		t.Errorf("err = %v, want ErrInternal wrapping the worker's panic value", err)
	} else if strings.Contains(err.Error(), "goroutine ") {
		t.Errorf("err = %v, want the panic value without the worker's stack", err)
	}
	if n := sv.Stats().Panics; n != 1 {
		t.Errorf("Stats.Panics = %d, want 1", n)
	}
	if _, err := sv.Pmax(ctx, 0, 5, 1000); err != nil {
		t.Fatalf("query after a contained worker panic: %v", err)
	}
}

// solveMaxReply renders a SolveMax reply, float bits included.
func solveMaxReply(res *maxaf.Result, f float64, err error) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("%v|%x|%x", res.Invited.Members(), math.Float64bits(res.CoveredFraction), math.Float64bits(f))
}

// openFlights counts the SolveMax flights in progress.
func openFlights(sv *Server) int {
	sv.maxFlights.mu.Lock()
	defer sv.maxFlights.mu.Unlock()
	return len(sv.maxFlights.m)
}

// TestFlightCancelledLeader: the caller that opened a flight leaving on
// its own cancellation does not fail a joiner still waiting on it; the
// joiner's answer equals a clean run's bytes. A leader left alone does
// cancel its execution, and the flight is closed.
func TestFlightCancelledLeader(t *testing.T) {
	g := testGraph(40, 60)
	p := validPairs(g, 1)[0]
	ctx := context.Background()
	want := solveMaxReply(New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2}).SolveMax(ctx, p.s, p.t, 3, 4000))

	sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2})
	release := holdShards(sv)
	lctx, cancel := context.WithCancel(ctx)
	leader := make(chan error, 1)
	go func() {
		_, _, err := sv.SolveMax(lctx, p.s, p.t, 3, 4000)
		leader <- err
	}()
	waitFor(t, func() bool { return openFlights(sv) == 1 })
	joiner := make(chan string, 1)
	go func() { joiner <- solveMaxReply(sv.SolveMax(ctx, p.s, p.t, 3, 4000)) }()
	waitFor(t, func() bool { return sv.ledger[ctrCoalesced].Load() == 1 })
	cancel()
	release()
	if got := <-joiner; got != want {
		t.Fatalf("joiner of a cancelled leader answered %q, want %q", got, want)
	}
	<-leader // its own cancellation or the shared answer: either is sound

	// Alone, a cancelled leader's execution stops.
	sv = New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2})
	release = holdShards(sv)
	lctx, cancel = context.WithCancel(ctx)
	go func() {
		_, _, err := sv.SolveMax(lctx, p.s, p.t, 3, 4000)
		leader <- err
	}()
	waitFor(t, func() bool { return openFlights(sv) == 1 })
	cancel()
	waitFor(t, func() bool { return openFlights(sv) == 0 })
	release()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("a cancelled leader alone got %v, want context.Canceled", err)
	}
}

// TestFlightCancelledJoiner: a joiner whose context ends returns its own
// error at once, without waiting for the flight, while the leader
// finishes with a clean run's answer.
func TestFlightCancelledJoiner(t *testing.T) {
	g := testGraph(40, 60)
	p := validPairs(g, 1)[0]
	ctx := context.Background()
	want := solveMaxReply(New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2}).SolveMax(ctx, p.s, p.t, 3, 4000))

	sv := New(g, weights.NewDegree(g), Config{Seed: 7, Workers: 2})
	release := holdShards(sv)
	leader := make(chan string, 1)
	go func() { leader <- solveMaxReply(sv.SolveMax(ctx, p.s, p.t, 3, 4000)) }()
	waitFor(t, func() bool { return openFlights(sv) == 1 })
	jctx, cancel := context.WithCancel(ctx)
	joiner := make(chan error, 1)
	go func() {
		_, _, err := sv.SolveMax(jctx, p.s, p.t, 3, 4000)
		joiner <- err
	}()
	waitFor(t, func() bool { return sv.ledger[ctrCoalesced].Load() == 1 })
	cancel()
	select {
	case err := <-joiner:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled joiner got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		release()
		t.Fatal("a cancelled joiner still waits on the flight")
	}
	release()
	if got := <-leader; got != want {
		t.Fatalf("leader answered %q after its joiner left, want %q", got, want)
	}
}
