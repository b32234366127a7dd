// Package parallel provides small worker-pool helpers (stdlib only) used to
// parallelize Monte-Carlo sampling and per-pair experiment work while
// keeping results deterministic: work items are indexed and each worker
// receives an independently derived random stream, so the output is a pure
// function of (seed, item index) regardless of scheduling.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the worker count used when a Config asks for 0:
// the number of usable CPUs.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// WorkerPanic is the value For re-panics with on the caller's goroutine
// when fn panicked on a worker goroutine: the original panic value and
// the worker's stack at the panic.
type WorkerPanic struct {
	Value any
	Stack []byte
}

// Error reports the panic value followed by the worker's stack, so an
// unrecovered re-panic prints both.
func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("%v [recovered from a parallel.For worker]\n\n%s", p.Value, p.Stack)
}

// PanicValue returns the original value of a panic recovered from For:
// a WorkerPanic's Value, or r itself.
func PanicValue(r any) any {
	if p, ok := r.(*WorkerPanic); ok {
		return p.Value
	}
	return r
}

// For runs fn(i) for every i in [0, n) across the given number of workers
// (0 means DefaultWorkers). It blocks until all items complete or ctx is
// cancelled, returning ctx.Err() in the latter case. fn must be safe for
// concurrent invocation on distinct indices.
//
// A panic in fn stops the loop: no item is handed out after it, and once
// every worker has exited For re-panics on the caller's goroutine — with
// the original value when workers == 1, else with a *WorkerPanic holding
// the first panic's value and stack — so a caller's recover sees it.
func For(ctx context.Context, n, workers int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	var next int64 = -1
	var panicked atomic.Pointer[WorkerPanic] // the first panic
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &WorkerPanic{Value: r, Stack: debug.Stack()})
				}
			}()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n || ctx.Err() != nil || panicked.Load() != nil {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
	return ctx.Err()
}

// ForChunks splits total items into fixed-size chunks and runs
// fn(chunk, start, n) for every chunk across the given workers. Because
// work is partitioned by chunk index — not by worker id — any per-chunk
// state (e.g. an RNG stream derived from the chunk index) makes the
// overall result a pure function of total, independent of the worker
// count. The final chunk may be short.
func ForChunks(ctx context.Context, total, chunkSize int64, workers int, fn func(chunk int, start, n int64)) error {
	if total <= 0 {
		return nil
	}
	if chunkSize <= 0 {
		panic("parallel: ForChunks chunk size must be positive")
	}
	chunks := int((total + chunkSize - 1) / chunkSize)
	return For(ctx, chunks, workers, func(c int) {
		start := int64(c) * chunkSize
		n := chunkSize
		if start+n > total {
			n = total - start
		}
		fn(c, start, n)
	})
}

// SumUint64 runs trials of fn across workers and sums the uint64 results.
// fn receives the worker id (for RNG stream derivation) and the number of
// trials that worker must run; the split is deterministic. It is intended
// for Monte-Carlo counting loops where per-trial closure dispatch would
// dominate.
func SumUint64(ctx context.Context, trials int64, workers int, fn func(worker int, n int64) uint64) (uint64, error) {
	if trials <= 0 {
		return 0, nil
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if int64(workers) > trials {
		workers = int(trials)
	}
	if workers == 1 {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return fn(0, trials), nil
	}
	per := trials / int64(workers)
	rem := trials % int64(workers)
	results := make([]uint64, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		n := per
		if int64(w) < rem {
			n++
		}
		go func(w int, n int64) {
			defer wg.Done()
			if ctx.Err() != nil {
				return
			}
			results[w] = fn(w, n)
		}(w, n)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var total uint64
	for _, r := range results {
		total += r
	}
	return total, nil
}
