package pool

import (
	"errors"
	"runtime"
	"sync"
	"time"
)

// ErrQueueSaturated is returned by Queue.TrySubmit when the pending
// buffer is full — the caller's backpressure signal (a server maps it
// to 429 with Retry-After).
var ErrQueueSaturated = errors.New("pool: queue saturated")

// ErrQueueClosed is returned by Queue.TrySubmit after Close has begun
// — the caller's shutdown signal (a server maps it to 503).
var ErrQueueClosed = errors.New("pool: queue closed")

// Queue is the long-lived counterpart of RunCtx: a fixed set of
// workers draining a bounded task buffer, for server-style workloads
// where work arrives over time instead of as one indexed batch. It
// keeps RunCtx's isolation guarantee — a panicking task is recovered
// on its worker and reported through the task's own completion
// callback, never killing the serving process — and its worker-id
// contract, so callers can pool expensive per-worker state (one
// profiler per worker) exactly as the batch pipelines do.
type Queue struct {
	tasks  chan func(worker int)
	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
}

// NewQueue starts a queue with the given worker count (<= 0 means
// GOMAXPROCS) and pending-task capacity (< 0 means unbuffered).
func NewQueue(workers, capacity int) *Queue {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if capacity < 0 {
		capacity = 0
	}
	q := &Queue{tasks: make(chan func(worker int), capacity)}
	for w := 0; w < workers; w++ {
		q.wg.Add(1)
		go func(worker int) {
			defer q.wg.Done()
			for fn := range q.tasks {
				q.runTask(worker, fn)
			}
		}(w)
	}
	return q
}

// runTask executes one task with panic recovery, isolating the queue's
// workers from a bad task exactly as RunCtx isolates batch items.
func (q *Queue) runTask(worker int, fn func(worker int)) {
	begin := time.Now()
	defer func() {
		metBusy.Add(time.Since(begin).Seconds())
		metQDepth.Add(-1)
		if recover() != nil {
			metQPanics.Inc()
		}
	}()
	fn(worker)
}

// TrySubmit enqueues fn without blocking. It returns ErrQueueSaturated
// when the pending buffer is full and ErrQueueClosed once Close has
// begun; fn runs (exactly once, on some worker) only on a nil return.
func (q *Queue) TrySubmit(fn func(worker int)) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		metQRejects.Inc()
		return ErrQueueClosed
	}
	select {
	case q.tasks <- fn:
		metQTasks.Inc()
		metQDepth.Add(1)
		return nil
	default:
		metQRejects.Inc()
		return ErrQueueSaturated
	}
}

// Len reports the number of pending (not yet started) tasks.
func (q *Queue) Len() int {
	return len(q.tasks)
}

// Close stops accepting new tasks, drains the ones already accepted,
// and returns once every worker has exited. Safe to call more than
// once.
func (q *Queue) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.tasks)
	}
	q.mu.Unlock()
	q.wg.Wait()
}
