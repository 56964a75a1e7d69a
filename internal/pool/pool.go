// Package pool provides the fixed worker pool shared by the repo's
// parallel pipelines: registry-wide profiling (ProfileBenchmarksCtx),
// the sharded phase and reduced pipelines behind mica.Run and the
// clustering k-sweep (cluster.SelectK). Work items are pulled from one
// shared queue by a bounded set of goroutines, so the number of live
// per-worker states (VMs, memories, analyzer tables, k-means scratch
// buffers) is genuinely bounded by the worker count — not merely
// rate-limited after all goroutines have been spawned.
//
// # Error contract
//
// RunCtx is the fault-tolerant entry point. Its guarantees:
//
//   - Isolation: one item's failure (an error return or a panic) never
//     stops the others — every dispatched item runs to completion, and
//     a panicking item is recovered on its worker and converted into
//     an error, so a single bad work item cannot kill the pipeline.
//   - Attribution: every failure is reported as an *ItemError carrying
//     the item index and worker id; a recovered panic is wrapped as a
//     *PanicError (value + stack) inside it.
//   - Collection: RunCtx returns the errors of ALL failed items joined
//     with errors.Join, not just the first — nil if and only if every
//     item was dispatched and returned nil.
//   - Cancellation: when ctx is cancelled, dispatch stops promptly,
//     in-flight items drain (fn is never abandoned mid-call), and the
//     returned error includes ctx.Err(). Items never dispatched are
//     simply skipped, not errors.
//
// RunCtx is the only batch entry point; Queue is its long-lived
// counterpart for work that arrives over time (the serving daemon's
// job stream).
package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"mica/internal/faults"
)

// ItemError attributes one work item's failure to the item and the
// worker that ran it.
type ItemError struct {
	// Item is the failed item's index in [0, n).
	Item int
	// Worker is the pool worker id that ran the item.
	Worker int
	// Err is the item's error; a recovered panic is a *PanicError.
	Err error
}

func (e *ItemError) Error() string {
	return fmt.Sprintf("pool: item %d (worker %d): %v", e.Item, e.Worker, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *ItemError) Unwrap() error { return e.Err }

// PanicError is a panic recovered on a pool worker, preserved with
// the panicking goroutine's stack so the report reads like the crash
// it replaced.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// RunCtx executes fn(ctx, worker, i) for every i in [0, n) on a fixed
// pool of goroutines pulling from a shared work queue, with the error
// contract documented in the package comment: per-item panic recovery,
// full error collection, and prompt cancellation with in-flight drain.
// workers <= 0 means GOMAXPROCS; the pool never exceeds n. The worker
// id (in [0, workers)) lets callers pool expensive state — a
// profiler's analyzer tables, a k-means scratch buffer — across the
// items one worker processes.
func RunCtx(ctx context.Context, n, workers int, fn func(ctx context.Context, worker, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		// Degenerate pool: run inline, keeping call order and avoiding
		// goroutine overhead for serial configurations. Cancellation is
		// checked between items, matching the dispatcher below.
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return joinWith(ctx.Err(), errs)
			}
			errs[i] = runItem(ctx, 0, i, fn)
		}
		return joinWith(nil, errs)
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range work {
				errs[i] = runItem(ctx, worker, i, fn)
			}
		}(w)
	}
	var ctxErr error
dispatch:
	for i := 0; i < n; i++ {
		select {
		case work <- i:
		case <-ctx.Done():
			ctxErr = ctx.Err()
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	return joinWith(ctxErr, errs)
}

// runItem runs one item with panic recovery and the pool.item fault
// injection point (armed only by tests; one atomic load when not).
func runItem(ctx context.Context, worker, i int, fn func(ctx context.Context, worker, i int) error) (err error) {
	metItems.Inc()
	begin := time.Now()
	defer func() {
		metBusy.Add(time.Since(begin).Seconds())
		if r := recover(); r != nil {
			metPanics.Inc()
			metFailed.Inc()
			err = &ItemError{Item: i, Worker: worker,
				Err: &PanicError{Value: r, Stack: debug.Stack()}}
		} else if err != nil {
			metFailed.Inc()
		}
	}()
	if faults.Enabled() {
		// The injection point sits inside the recovery scope, so a
		// Crash fault exercises the real panic-isolation machinery.
		if kind, ok := faults.Fire(faults.PoolItem, strconv.Itoa(i)); ok {
			return &ItemError{Item: i, Worker: worker,
				Err: faults.Errorf(faults.PoolItem, strconv.Itoa(i), kind)}
		}
	}
	if ferr := fn(ctx, worker, i); ferr != nil {
		return &ItemError{Item: i, Worker: worker, Err: ferr}
	}
	return nil
}

// joinWith joins the non-nil per-item errors (in item order) with an
// optional leading context error.
func joinWith(ctxErr error, errs []error) error {
	all := make([]error, 0, 1)
	if ctxErr != nil {
		all = append(all, ctxErr)
	}
	for _, err := range errs {
		if err != nil {
			all = append(all, err)
		}
	}
	return errors.Join(all...)
}
