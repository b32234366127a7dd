package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// flightKey identifies one coalescable query within its kind's flight
// table: the kind's comparable parameter value (pair included) and the
// graph generation the query started on. Keying on the generation
// pointer is what keeps coalescing delta-epoch safe: a query that
// begins after ApplyDelta returns reads the new generation, so it can
// never adopt an answer computed (or still being computed) at the
// previous epoch, while in-flight queries of the old epoch keep
// coalescing among themselves.
type flightKey[P comparable] struct {
	gen    *generation
	params P
}

// flight is one in-flight computation; joiners wait on done and share
// its result.
type flight[T any] struct {
	done sync.WaitGroup
	val  T
	err  error
}

// flights is one query kind's table of open flights, keyed by that
// kind's parameter type P and carrying its result type T.
type flights[P comparable, T any] struct {
	mu sync.Mutex
	m  map[flightKey[P]]*flight[T]
}

// do funnels concurrent identical queries into a single execution. The
// first caller runs fn; every caller that arrives while the flight is
// open waits for it and shares the result — ledgered in
// Stats().Coalesced — so two racing clients no longer both pay a cold
// pool. Sharing is sound because every answer is a pure function of
// (Seed, s, t, params) at a fixed graph epoch: the joiner receives
// exactly the bytes it would have computed. The flight is removed when
// the computation finishes, so a later non-overlapping duplicate
// recomputes — cheaply, against the now-warm pools.
//
// One sharp edge is inherited from every singleflight: joiners share the
// winning caller's execution, including its context. A joiner whose own
// context is live can therefore see the winner's cancellation error;
// retrying is always sound (purity), and the retried query reuses the
// pools the aborted flight already grew.
func (fs *flights[P, T]) do(sv *Server, params P, fn func() (T, error)) (T, error) {
	key := flightKey[P]{gen: sv.gen.Load(), params: params}
	fs.mu.Lock()
	if c, ok := fs.m[key]; ok {
		fs.mu.Unlock()
		sv.ledger[ctrCoalesced].Add(1)
		c.done.Wait()
		return c.val, c.err
	}
	if fs.m == nil {
		fs.m = make(map[flightKey[P]]*flight[T])
	}
	c := &flight[T]{}
	c.done.Add(1)
	fs.m[key] = c
	fs.mu.Unlock()
	defer func() {
		fs.mu.Lock()
		delete(fs.m, key)
		fs.mu.Unlock()
		c.done.Done()
	}()
	c.val, c.err = fn()
	return c.val, c.err
}

// Flight parameters, one comparable type per coalesced kind. Floats are
// keyed by their bit patterns so that a NaN parameter still equals
// itself and its flight can be deleted; slice parameters are rendered
// exactly with fmt.Sprint.
type (
	solveParams struct {
		s, t          graph.Node
		alpha, eps, n uint64
		cfg           core.Config // Alpha, Eps and N zeroed: keyed as bits above
	}
	maxParams struct {
		s, t         graph.Node
		budget       int
		realizations int64
	}
	sweepParams struct {
		s, t         graph.Node
		budgets      string
		realizations int64
	}
	pmaxParams struct {
		s, t   graph.Node
		trials int64
	}
	pmaxEstParams struct {
		s, t     graph.Node
		eps0, n  uint64
		maxDraws int64
	}
	topKParams struct {
		s                      graph.Node
		targets                string
		k, budget              int
		realizations, maxDraws int64
	}
)

func solveParamsOf(s, t graph.Node, cfg core.Config) solveParams {
	p := solveParams{s: s, t: t, alpha: math.Float64bits(cfg.Alpha), eps: math.Float64bits(cfg.Eps), n: math.Float64bits(cfg.N)}
	cfg.Alpha, cfg.Eps, cfg.N = 0, 0, 0
	p.cfg = cfg
	return p
}

// ErrInternal marks a query whose execution panicked. The panic is
// contained to that execution: its leader and every coalesced joiner
// receive an error wrapping ErrInternal and the panic value, the server
// keeps serving, and Stats.Panics counts it.
var ErrInternal = errors.New("server: internal error")

// PanicError counts a recovered panic in Stats.Panics and returns the
// ErrInternal error its request answers with. run calls it for the
// gated queries; a transport calls it for a panic in an op run does not
// cover, such as a graph delta or a stats read.
func (sv *Server) PanicError(p any) error {
	sv.ledger[ctrPanics].Add(1)
	return fmt.Errorf("%w: panic: %v", ErrInternal, parallel.PanicValue(p))
}

// run is the one pipeline every gated query passes through. It times
// the request from entry, admits it through the gate, then joins an
// identical open flight in fl or opens one that executes fn under a
// trace (fl nil: the kind is never coalesced). Every request — leader,
// joiner or rejected — records exactly one latency sample and, on
// error, one error count; the stage histograms see only the execution.
// A panic in fn, or in a parallel.For worker fn runs (For re-panics it
// on fn's goroutine), is recovered inside the execution, so the flight
// completes with ErrInternal instead of unwinding past its joiners.
func run[P comparable, T any](ctx context.Context, sv *Server, kind Kind, fl *flights[P, T], params P, fn func(context.Context) (T, error)) (v T, err error) {
	if so := sv.obs; so != nil {
		defer so.observeRequest(kind, time.Now(), &err)
	}
	if err = sv.admit(ctx); err != nil {
		return v, err
	}
	defer sv.admitDone()
	// exec is one execution of fn, traced when observability is on (the
	// finished trace feeds the stage histograms).
	exec := func() (v T, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = sv.PanicError(p)
			}
		}()
		if so := sv.obs; so != nil {
			tr := so.o.Tracer.Start(kind.String())
			defer so.finishTrace(tr)
			return fn(obs.WithTrace(ctx, tr))
		}
		return fn(ctx)
	}
	if fl == nil {
		return exec()
	}
	return fl.do(sv, params, exec)
}

// withPair brackets fn with the (s,t) pair's acquire, ledgered under
// kind, and its release, which settles the byte ledger and evicts once
// fn has grown the pools to their final size.
func withPair[T any](ctx context.Context, sv *Server, kind Kind, s, t graph.Node, fn func(*entry) (T, error)) (T, error) {
	e, err := sv.acquire(ctx, kind, s, t)
	if err != nil {
		var zero T
		return zero, err
	}
	defer sv.release(e)
	return fn(e)
}
