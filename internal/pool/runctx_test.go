package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mica/internal/faults"
)

func TestRunCtxCoversAllItems(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 57
		seen := make([]int32, n)
		err := RunCtx(context.Background(), n, workers, func(_ context.Context, _, i int) error {
			atomic.AddInt32(&seen[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestRunCtxCollectsAllErrors(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := RunCtx(context.Background(), 10, workers, func(_ context.Context, _, i int) error {
			if i%3 == 0 {
				return fmt.Errorf("boom %d", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: nil error for failing items", workers)
		}
		var ie *ItemError
		if !errors.As(err, &ie) {
			t.Fatalf("workers=%d: no *ItemError in %v", workers, err)
		}
		for _, i := range []int{0, 3, 6, 9} {
			if want := fmt.Sprintf("boom %d", i); !containsStr(err.Error(), want) {
				t.Fatalf("workers=%d: error %q missing %q", workers, err, want)
			}
		}
	}
}

func containsStr(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

func TestRunCtxIsolatesPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran int32
		err := RunCtx(context.Background(), 8, workers, func(_ context.Context, _, i int) error {
			if i == 5 {
				panic("worker exploded")
			}
			atomic.AddInt32(&ran, 1)
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic was swallowed", workers)
		}
		var ie *ItemError
		if !errors.As(err, &ie) {
			t.Fatalf("workers=%d: no *ItemError in %v", workers, err)
		}
		if ie.Item != 5 {
			t.Fatalf("workers=%d: panic attributed to item %d, want 5", workers, ie.Item)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: no *PanicError in %v", workers, err)
		}
		if pe.Value != "worker exploded" {
			t.Fatalf("workers=%d: panic value %v", workers, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: panic stack not captured", workers)
		}
		if ran != 7 {
			t.Fatalf("workers=%d: %d other items completed, want 7", workers, ran)
		}
	}
}

func TestRunCtxCancelStopsDispatchAndDrains(t *testing.T) {
	const n = 100
	ctx, cancel := context.WithCancel(context.Background())
	var started, finished int32
	err := RunCtx(ctx, n, 2, func(_ context.Context, _, i int) error {
		atomic.AddInt32(&started, 1)
		if i == 0 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&finished, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if started == n {
		t.Fatalf("cancellation did not stop dispatch (all %d items started)", n)
	}
	if started != finished {
		t.Fatalf("in-flight items not drained: %d started, %d finished", started, finished)
	}
}

func TestRunCtxCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int32
	err := RunCtx(ctx, 50, 4, func(_ context.Context, _, i int) error {
		atomic.AddInt32(&ran, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The dispatcher may race one item in before seeing Done; what it
	// must not do is run the whole batch.
	if ran > 4 {
		t.Fatalf("%d items ran under a pre-cancelled context", ran)
	}
}

func TestRunCtxWorkerAttribution(t *testing.T) {
	err := RunCtx(context.Background(), 6, 3, func(_ context.Context, worker, i int) error {
		if i == 2 {
			return errors.New("bad")
		}
		return nil
	})
	var ie *ItemError
	if !errors.As(err, &ie) {
		t.Fatalf("no *ItemError in %v", err)
	}
	if ie.Worker < 0 || ie.Worker >= 3 {
		t.Fatalf("worker id %d out of range", ie.Worker)
	}
	if !errors.Is(err, ie.Err) {
		t.Fatalf("joined error does not expose the item's cause")
	}
}

func TestRunCtxInjectedCrashIsIsolated(t *testing.T) {
	disarm := faults.Arm(faults.Address{Point: faults.PoolItem, Key: "3", Nth: 0}, faults.Crash)
	defer disarm()
	var ran int32
	err := RunCtx(context.Background(), 6, 2, func(_ context.Context, _, i int) error {
		atomic.AddInt32(&ran, 1)
		return nil
	})
	if err == nil {
		t.Fatal("injected crash vanished")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("injected crash not converted to *PanicError: %v", err)
	}
	var ie *ItemError
	if !errors.As(err, &ie) || ie.Item != 3 {
		t.Fatalf("injected crash misattributed: %v", err)
	}
	if ran != 5 {
		t.Fatalf("%d items completed around the crash, want 5", ran)
	}
}

func TestRunCtxInjectedFail(t *testing.T) {
	disarm := faults.Arm(faults.Address{Point: faults.PoolItem, Key: "1", Nth: 0}, faults.Fail)
	defer disarm()
	err := RunCtx(context.Background(), 3, 1, func(_ context.Context, _, i int) error { return nil })
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want an injected fault", err)
	}
}

func TestRunCtxZeroItems(t *testing.T) {
	err := RunCtx(context.Background(), 0, 4, func(_ context.Context, _, _ int) error {
		t.Fatal("fn called with n=0")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunCtxBoundsLiveWorkers(t *testing.T) {
	const n, workers = 40, 4
	var live, peak int32
	var mu sync.Mutex
	err := RunCtx(context.Background(), n, workers, func(_ context.Context, _, i int) error {
		cur := atomic.AddInt32(&live, 1)
		mu.Lock()
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		atomic.AddInt32(&live, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > workers {
		t.Fatalf("observed %d concurrent items with %d workers", peak, workers)
	}
}

// TestRunCtxWorkerIDsInRange: every call sees a worker id in
// [0, workers), the contract callers index per-worker state with.
func TestRunCtxWorkerIDsInRange(t *testing.T) {
	const n, workers = 30, 3
	var bad int32
	err := RunCtx(context.Background(), n, workers, func(_ context.Context, worker, _ int) error {
		if worker < 0 || worker >= workers {
			atomic.AddInt32(&bad, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("%d calls saw an out-of-range worker id", bad)
	}
}

// TestRunCtxSerialInOrder: with one worker, items run inline on
// worker 0 in index order.
func TestRunCtxSerialInOrder(t *testing.T) {
	var order []int
	err := RunCtx(context.Background(), 5, 1, func(_ context.Context, worker, i int) error {
		if worker != 0 {
			t.Fatalf("serial run used worker %d", worker)
		}
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d items, want 5", len(order))
	}
}
