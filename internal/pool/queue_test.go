package pool

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestQueueRunsAllAccepted: every task TrySubmit accepts runs exactly
// once, and Close drains the accepted backlog before returning.
func TestQueueRunsAllAccepted(t *testing.T) {
	q := NewQueue(4, 64)
	var ran atomic.Int64
	const n = 50
	for i := 0; i < n; i++ {
		if err := q.TrySubmit(func(worker int) { ran.Add(1) }); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	q.Close()
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d tasks, want %d", got, n)
	}
}

// TestQueueSaturation: a full pending buffer rejects with
// ErrQueueSaturated while earlier tasks are still blocked, and
// capacity frees up as they complete.
func TestQueueSaturation(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	q := NewQueue(1, 1)
	defer q.Close()
	// Occupy the single worker...
	if err := q.TrySubmit(func(worker int) { close(started); <-release }); err != nil {
		t.Fatal(err)
	}
	<-started
	// ...and the single buffer slot.
	if err := q.TrySubmit(func(worker int) {}); err != nil {
		t.Fatal(err)
	}
	if err := q.TrySubmit(func(worker int) {}); !errors.Is(err, ErrQueueSaturated) {
		t.Fatalf("submit to full queue: %v, want ErrQueueSaturated", err)
	}
	close(release)
}

// TestQueueClosed: Close rejects later submissions with ErrQueueClosed
// and is idempotent.
func TestQueueClosed(t *testing.T) {
	q := NewQueue(2, 4)
	q.Close()
	q.Close()
	if err := q.TrySubmit(func(worker int) {}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("submit after close: %v, want ErrQueueClosed", err)
	}
}

// TestQueuePanicIsolation: a panicking task is recovered, counted in
// mica_pool_queue_panics_total, and does not take down its worker —
// subsequent tasks still run.
func TestQueuePanicIsolation(t *testing.T) {
	before := metQPanics.Value()
	q := NewQueue(1, 8)
	var ran atomic.Int64
	if err := q.TrySubmit(func(worker int) { panic("boom") }); err != nil {
		t.Fatal(err)
	}
	if err := q.TrySubmit(func(worker int) { ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	q.Close()
	if ran.Load() != 1 {
		t.Fatal("task after a panicking task did not run")
	}
	if got := metQPanics.Value() - before; got != 1 {
		t.Fatalf("mica_pool_queue_panics_total rose by %v, want 1", got)
	}
}

// TestQueueWorkerIDs: worker ids stay in [0, workers), the contract
// that lets submitters pool per-worker state.
func TestQueueWorkerIDs(t *testing.T) {
	const workers = 3
	q := NewQueue(workers, 64)
	var bad atomic.Int64
	for i := 0; i < 30; i++ {
		if err := q.TrySubmit(func(worker int) {
			if worker < 0 || worker >= workers {
				bad.Add(1)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	if bad.Load() != 0 {
		t.Fatal("worker id out of range")
	}
}
