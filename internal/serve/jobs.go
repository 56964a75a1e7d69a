package serve

import (
	"fmt"
	"sync"
	"time"

	"mica"
	"mica/internal/obs"
	"mica/internal/pool"
)

// JobStatus is a characterization job's lifecycle state.
type JobStatus string

const (
	// JobQueued: accepted, waiting for a pool worker.
	JobQueued JobStatus = "queued"
	// JobRunning: characterizing on a worker.
	JobRunning JobStatus = "running"
	// JobDone: finished; Result is set.
	JobDone JobStatus = "done"
	// JobFailed: finished with an error; Error is set. Failed jobs do
	// not satisfy later submissions of the same key (they retry).
	JobFailed JobStatus = "failed"
)

// Job is one characterization request's record. Fields are written
// under the manager's lock; handlers read snapshots via view().
type Job struct {
	ID        string
	Key       string // dedup key: benchmark name + config stamp
	Benchmark string
	// bench is the resolved benchmark the job runs — a registry entry
	// or a trace-backed one built from an upload. Carrying it in the
	// job (instead of re-resolving the name at run time) is what lets
	// uploaded traces flow through the same queue as registry names.
	bench    mica.Benchmark
	Status   JobStatus
	Created  time.Time
	Finished time.Time
	Result   *CharacterizationResult
	Error    string
	// Deduped counts later submissions collapsed onto this job.
	Deduped uint64
}

// JobStats is the job-model section of the /stats payload.
type JobStats struct {
	// Submitted counts accepted submissions (including deduplicated
	// ones); Rejected counts submissions refused for backpressure or
	// shutdown.
	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
	// Executed counts characterizations actually run; Deduped counts
	// submissions served by an existing in-flight or completed job —
	// the dedup hit counter (Submitted == Executed + Deduped).
	Executed uint64 `json:"executed"`
	Deduped  uint64 `json:"deduped"`
	Done     uint64 `json:"done"`
	Failed   uint64 `json:"failed"`
	// Queued and Running describe the present moment.
	Queued  int `json:"queued"`
	Running int `json:"running"`
}

// jobManager owns the request/job model: submissions dedup against
// in-flight and completed jobs by config-hash key, accepted jobs run
// on a bounded pool.Queue, and completed jobs are retained (bounded)
// for polling.
type jobManager struct {
	queue  *pool.Queue
	run    func(worker int, b mica.Benchmark) (*CharacterizationResult, error)
	retain int
	met    *serverMetrics

	mu       sync.Mutex
	seq      int
	byID     map[string]*Job
	byKey    map[string]*Job
	finished []string // finished job ids, oldest first, for retention
	running  int
}

func newJobManager(workers, queueCap, retain int, met *serverMetrics,
	run func(worker int, b mica.Benchmark) (*CharacterizationResult, error)) *jobManager {
	if queueCap <= 0 {
		queueCap = 64
	}
	if retain <= 0 {
		retain = 1024
	}
	m := &jobManager{
		run:    run,
		retain: retain,
		met:    met,
		byID:   make(map[string]*Job),
		byKey:  make(map[string]*Job),
	}
	// execute converts a panicking characterization into a job
	// failure; the queue's own recovery is only the backstop.
	m.queue = pool.NewQueue(workers, queueCap)
	return m
}

// submit registers a job for (bench, key), deduplicating against any
// queued, running or done job with the same key. It returns the job
// serving the request and whether the submission was collapsed onto
// an existing one; pool.ErrQueueSaturated and pool.ErrQueueClosed
// pass through for the handler to map onto 429/503.
func (m *jobManager) submit(bench mica.Benchmark, key string) (*Job, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.byKey[key]; ok && j.Status != JobFailed {
		m.met.jobsSubmitted.Inc()
		m.met.jobsDeduped.Inc()
		j.Deduped++
		return j, true, nil
	}
	m.seq++
	j := &Job{
		ID:        fmt.Sprintf("job-%06d", m.seq),
		Key:       key,
		Benchmark: bench.Name(),
		bench:     bench,
		Status:    JobQueued,
		Created:   time.Now(),
	}
	if err := m.queue.TrySubmit(func(worker int) { m.execute(worker, j) }); err != nil {
		m.met.jobsRejected.Inc()
		return nil, false, err
	}
	m.met.jobsSubmitted.Inc()
	m.met.jobsQueued.Add(1)
	m.byID[j.ID] = j
	m.byKey[key] = j
	return j, false, nil
}

// execute runs one job on a queue worker, converting a panicking
// characterization into a job failure (the serving process stays up
// and the job is observable as failed, matching pool.RunCtx's
// isolation contract).
func (m *jobManager) execute(worker int, j *Job) {
	m.mu.Lock()
	j.Status = JobRunning
	m.running++
	m.met.jobsQueued.Add(-1)
	m.met.jobsRunning.Add(1)
	m.met.jobsExecuted.Inc()
	m.mu.Unlock()

	var res *CharacterizationResult
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("characterization panicked: %v", r)
			}
		}()
		res, err = m.run(worker, j.bench)
	}()

	m.mu.Lock()
	defer m.mu.Unlock()
	m.running--
	m.met.jobsRunning.Add(-1)
	j.Finished = time.Now()
	if err != nil {
		j.Status = JobFailed
		j.Error = err.Error()
		m.met.jobsFailed.Inc()
		// Drop the failed key mapping (if this job still owns it) so
		// the next submission retries instead of polling a corpse.
		if m.byKey[j.Key] == j {
			delete(m.byKey, j.Key)
		}
	} else {
		j.Status = JobDone
		j.Result = res
		m.met.jobsDone.Inc()
	}
	m.finished = append(m.finished, j.ID)
	m.evictLocked()
}

// evictLocked drops the oldest finished jobs beyond the retention
// bound, releasing their results and (for done jobs still owning
// their key) their dedup mapping.
func (m *jobManager) evictLocked() {
	for len(m.finished) > m.retain {
		id := m.finished[0]
		m.finished = m.finished[1:]
		j, ok := m.byID[id]
		if !ok {
			continue
		}
		delete(m.byID, id)
		if m.byKey[j.Key] == j {
			delete(m.byKey, j.Key)
		}
	}
}

// get returns a snapshot of job id.
func (m *jobManager) get(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.byID[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// stats snapshots the job counters. They are read from the server's
// mica_serve_jobs_* metrics, so /stats and /metrics report one source;
// every increment happens under m.mu, so the snapshot is consistent.
func (m *jobManager) stats() JobStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	count := func(c *obs.Counter) uint64 { return uint64(c.Value()) }
	return JobStats{
		Submitted: count(m.met.jobsSubmitted),
		Rejected:  count(m.met.jobsRejected),
		Executed:  count(m.met.jobsExecuted),
		Deduped:   count(m.met.jobsDeduped),
		Done:      count(m.met.jobsDone),
		Failed:    count(m.met.jobsFailed),
		Queued:    m.queue.Len(),
		Running:   m.running,
	}
}

// close stops accepting jobs and drains the accepted backlog.
func (m *jobManager) close() { m.queue.Close() }
