package parallel

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForVisitsAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		const n = 1000
		var mask [n]int32
		err := For(context.Background(), n, workers, func(i int) {
			atomic.AddInt32(&mask[i], 1)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range mask {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEmpty(t *testing.T) {
	called := false
	if err := For(context.Background(), 0, 4, func(int) { called = true }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("fn called for n=0")
	}
}

func TestForCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := For(ctx, 100, 1, func(int) { t.Error("fn ran after cancel") })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

// TestForPanicRepanicsOnCaller: a panicking item re-panics on the
// caller's goroutine with its value (and, from a worker, the worker's
// stack). For returns only after every worker has exited, and hands out
// no items after the panic.
func TestForPanicRepanicsOnCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 1000
		var started, finished atomic.Int32
		panicking := make(chan struct{})
		r := func() (r any) {
			defer func() { r = recover() }()
			_ = For(context.Background(), n, workers, func(i int) {
				started.Add(1)
				if i == 0 {
					close(panicking)
					panic("boom")
				}
				// Outlive the panic, so For must wait for this worker.
				<-panicking
				time.Sleep(5 * time.Millisecond)
				finished.Add(1)
			})
			return nil
		}()
		if got := PanicValue(r); got != "boom" {
			t.Fatalf("workers=%d: recovered %v, want the item's panic value", workers, r)
		}
		if wp, ok := r.(*WorkerPanic); workers > 1 && (!ok || !strings.Contains(string(wp.Stack), "TestForPanicRepanicsOnCaller")) {
			t.Errorf("workers=%d: recovered %#v, want a *WorkerPanic with the worker's stack", workers, r)
		}
		if s, f := started.Load(), finished.Load(); s != f+1 {
			t.Errorf("workers=%d: For returned with %d of %d other items still running", workers, s-1-f, s-1)
		}
		if s := started.Load(); s > 2*int32(workers) {
			t.Errorf("workers=%d: %d items started, want no items handed out after the panic", workers, s)
		}
	}
}

func TestSumUint64(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		got, err := SumUint64(context.Background(), 1000, workers, func(worker int, n int64) uint64 {
			return uint64(n) // each trial contributes 1
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != 1000 {
			t.Errorf("workers=%d: sum = %d, want 1000", workers, got)
		}
	}
}

func TestSumUint64SplitsExactly(t *testing.T) {
	var total int64
	_, err := SumUint64(context.Background(), 1003, 4, func(worker int, n int64) uint64 {
		atomic.AddInt64(&total, n)
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 1003 {
		t.Errorf("trial split sums to %d, want 1003", total)
	}
}

func TestSumUint64Empty(t *testing.T) {
	got, err := SumUint64(context.Background(), 0, 4, func(int, int64) uint64 { return 99 })
	if err != nil || got != 0 {
		t.Errorf("got %d, err %v", got, err)
	}
}

func TestSumUint64Cancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SumUint64(ctx, 100, 2, func(int, int64) uint64 { return 1 })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Errorf("DefaultWorkers = %d", DefaultWorkers())
	}
}

func TestForChunks(t *testing.T) {
	for _, tc := range []struct {
		total, chunkSize int64
		workers          int
	}{
		{1, 4, 1}, {4, 4, 2}, {10, 4, 3}, {1000, 7, 8},
	} {
		var mu sync.Mutex
		seen := map[int][2]int64{}
		err := ForChunks(context.Background(), tc.total, tc.chunkSize, tc.workers, func(chunk int, start, n int64) {
			mu.Lock()
			seen[chunk] = [2]int64{start, n}
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		wantChunks := int((tc.total + tc.chunkSize - 1) / tc.chunkSize)
		if len(seen) != wantChunks {
			t.Fatalf("total=%d chunk=%d: %d chunks, want %d", tc.total, tc.chunkSize, len(seen), wantChunks)
		}
		var sum int64
		for c := 0; c < wantChunks; c++ {
			got, ok := seen[c]
			if !ok {
				t.Fatalf("chunk %d missing", c)
			}
			if got[0] != int64(c)*tc.chunkSize {
				t.Errorf("chunk %d start = %d", c, got[0])
			}
			if got[1] <= 0 || got[1] > tc.chunkSize {
				t.Errorf("chunk %d size = %d", c, got[1])
			}
			sum += got[1]
		}
		if sum != tc.total {
			t.Errorf("chunk sizes sum to %d, want %d", sum, tc.total)
		}
	}
}
