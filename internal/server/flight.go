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

// flight is one in-flight computation. Its execution runs under a
// context detached from its callers' cancellation (the leader's values,
// its trace among them, are kept) and cancelled once the last waiting
// caller has left, so one client's disconnect never fails another's
// answer. done is closed when the execution finishes; waiters is
// guarded by flights.mu.
type flight[T any] struct {
	val     T
	err     error
	waiters int
	done    chan struct{}
	cancel  context.CancelFunc // nil when the leader's context cannot be cancelled
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
// Every caller leaves on its own cancellation with its own ctx.Err(): a
// joiner stops waiting at once, and a cancelled leader stops counting as
// a waiter (it still returns only when fn does, as fn runs on its
// goroutine). The execution is cancelled only when no caller is left to
// want its answer. gen is the generation the query was admitted at.
func (fs *flights[P, T]) do(ctx context.Context, sv *Server, gen *generation, params P, fn func(context.Context) (T, error)) (T, error) {
	key := flightKey[P]{gen: gen, params: params}
	fs.mu.Lock()
	if c, ok := fs.m[key]; ok {
		c.waiters++
		fs.mu.Unlock()
		sv.ledger[ctrCoalesced].Add(1)
		select {
		case <-c.done:
			return c.val, c.err
		case <-ctx.Done():
			fs.leave(key, c)
			var zero T
			return zero, ctx.Err()
		}
	}
	if fs.m == nil {
		fs.m = make(map[flightKey[P]]*flight[T])
	}
	c := &flight[T]{waiters: 1, done: make(chan struct{})}
	fctx := ctx
	if ctx.Done() != nil {
		fctx, c.cancel = context.WithCancel(context.WithoutCancel(ctx))
		defer context.AfterFunc(ctx, func() { fs.leave(key, c) })()
	}
	fs.m[key] = c
	fs.mu.Unlock()
	defer func() {
		fs.mu.Lock()
		if fs.m[key] == c {
			delete(fs.m, key)
		}
		fs.mu.Unlock()
		if c.cancel != nil {
			c.cancel()
		}
		close(c.done)
	}()
	c.val, c.err = fn(fctx)
	return c.val, c.err
}

// leave drops one waiter from flight c. The last one out closes the
// flight to newcomers and cancels its execution.
func (fs *flights[P, T]) leave(key flightKey[P], c *flight[T]) {
	fs.mu.Lock()
	c.waiters--
	last := c.waiters == 0
	if last && fs.m[key] == c {
		delete(fs.m, key)
	}
	fs.mu.Unlock()
	if last && c.cancel != nil {
		c.cancel()
	}
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
// the request from entry, admits it through the gate, reads the
// generation it is answered at (carried on ctx; see admittedGen), then
// joins an identical open flight in fl or opens one that executes fn
// under a trace (fl nil: the kind is never coalesced). Every request —
// leader, joiner or rejected — records exactly one latency sample and,
// on error, one error count; the stage histograms see only the
// execution. A panic in fn, or in a parallel.For worker fn runs (For
// re-panics it on fn's goroutine), is recovered inside the execution,
// so the flight completes with ErrInternal instead of unwinding past
// its joiners.
func run[P comparable, T any](ctx context.Context, sv *Server, kind Kind, fl *flights[P, T], params P, fn func(context.Context) (T, error)) (v T, err error) {
	if so := sv.obs; so != nil {
		defer so.observeRequest(kind, time.Now(), &err)
	}
	if err = sv.admit(ctx); err != nil {
		return v, err
	}
	defer sv.admitDone()
	gen := sv.gen.Load()
	ctx = context.WithValue(ctx, admittedKey{}, gen)
	// exec is one execution of fn, traced when observability is on (the
	// finished trace feeds the stage histograms).
	exec := func(ctx context.Context) (v T, err error) {
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
		return exec(ctx)
	}
	return fl.do(ctx, sv, gen, params, exec)
}

// admittedKey carries, on a query's context, the generation current when
// the query was admitted.
type admittedKey struct{}

// admittedGen returns the generation ctx's query was admitted at, or the
// current one for a context that never passed through run (PairHandle,
// Warm). A query answers at this epoch or a later one, never an older.
func (sv *Server) admittedGen(ctx context.Context) *generation {
	if gen, ok := ctx.Value(admittedKey{}).(*generation); ok {
		return gen
	}
	return sv.gen.Load()
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
