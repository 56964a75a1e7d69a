package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mica"
	"mica/internal/serve"
)

// The serve workload starts the real mica-serve daemon and drives it
// from this process through at most two keep-alive connections. A run
// is Slices slices; each cold-starts a fresh daemon on a fresh store,
// runs an open-loop mixed step (similarity and vector reads beside
// characterization jobs and trace uploads, every arrival time drawn
// from the seed) and a closed-loop read-only step, then stops it.
// setup_s is the daemon's cold start and peak_rss_mb its peak resident
// set, one sample per slice; wall_s is the median characterization job
// from submission to done and warm_s the median read of the mixed
// steps, both timed from when the request was due.

type serveConfig struct {
	// Benchmarks limits the daemon's store to these names; nil serves
	// the whole registry.
	Benchmarks []string
	Interval   uint64
	Intervals  int
	MaxK       int
	// Slices is how many daemons one run starts, one after another.
	Slices int
	// ReadRate, JobRate and UploadRate are the mixed step's arrival
	// rates per second.
	ReadRate, JobRate, UploadRate float64
	// RepeatEvery makes every RepeatEvery-th submission repeat an
	// earlier name of the same slice, which the daemon answers by
	// deduplication.
	RepeatEvery int
	// Mixed and Closed are the two steps' lengths in each slice.
	Mixed  time.Duration
	Closed time.Duration
	// Poll is how often an unfinished job is polled.
	Poll time.Duration
	// CheckEvery selects one similarity answer in CheckEvery for the
	// output check; CheckJobs is how many finished jobs are checked.
	CheckEvery, CheckJobs int
	// Drain bounds the wait for a mixed step's jobs to finish.
	Drain time.Duration
}

func defaultServeConfig(seconds int) serveConfig {
	slice := time.Duration(seconds) * time.Second / setupProcs
	return serveConfig{
		Interval: 10_000, Intervals: 20, MaxK: 10,
		Slices:   setupProcs,
		ReadRate: 500, JobRate: 8, UploadRate: 1, RepeatEvery: 5,
		Mixed: slice * 8 / 10, Closed: slice * 2 / 10,
		Poll:       5 * time.Millisecond,
		CheckEvery: 100, CheckJobs: 5,
		Drain: 60 * time.Second,
	}
}

// jobBudget is the instruction budget the daemon's jobs profile with.
func (c serveConfig) jobBudget() uint64 { return c.Interval * uint64(c.Intervals) }

// Request kinds; kindNames are their span names.
const (
	kindSimilar = iota
	kindSimilarPhase
	kindVectors
	kindSubmit
	kindUpload
	kindPoll
	kindScrape
)

var kindNames = [...]string{"serve.similar", "serve.similar_phase", "serve.vectors",
	"serve.characterize", "serve.upload", "serve.poll", "serve.scrape"}

// request is one scheduled request of a mixed step.
type request struct {
	at     time.Duration // due, from the start of the step
	kind   int
	bench  string
	k      int
	upload int  // index of the trace to upload
	repeat bool // a submission repeating an earlier name
	check  bool // the answer is verified after the run
	job    *job // the job a submission starts or a poll follows
	trace  int64
	traced bool
}

// job is one characterization submission followed to completion.
type job struct {
	due    time.Time
	id     string
	bench  string
	repeat bool
	upload bool
	root   int64 // span covering the job
}

// count is how many requests of a family arrive in a mixed step.
func (c serveConfig) count(rate float64) int { return int(math.Round(rate * c.Mixed.Seconds())) }

// submissions returns how many submissions a mixed step makes and how
// many of them name a benchmark not yet submitted in the slice.
func (c serveConfig) submissions() (total, distinct int) {
	total = c.count(c.JobRate)
	if c.RepeatEvery > 0 {
		return total, total - total/c.RepeatEvery
	}
	return total, total
}

// spread picks n of names at even strides, so a fixed subset spans the
// registry's suites; offset shifts the picks.
func spread(names []string, n, offset int) []string {
	n = min(n, len(names))
	out := make([]string, n)
	for i := range out {
		out[i] = names[(i*len(names)/n+offset)%len(names)]
	}
	return out
}

// sliceShare returns slice i's share of a run-wide list: every Slices-th
// element, so the slices cover different parts of the registry.
func (c serveConfig) sliceShare(all []string, i int) []string {
	var out []string
	for j := i; j < len(all); j += c.Slices {
		out = append(out, all[j])
	}
	return out
}

// schedule draws the static requests of slice's mixed step from the
// seed. Each request family has a fixed count per step, so every run
// does the same work, and its arrival times are sorted uniform draws
// over the step: a Poisson process conditioned on its count. Each
// family of each slice has its own random stream, so one family's
// draws never shift another's. Submissions name the slice's share of a
// fixed spread of the registry in seeded order, every RepeatEvery-th
// repeating an earlier one; uploads send the slice's share of the
// recorded traces.
func schedule(seed int64, slice int, names []string, cfg serveConfig) []request {
	stream := func(family uint64) *rand.Rand {
		return rand.New(rand.NewPCG(uint64(seed), uint64(slice)<<8|family))
	}
	arrivals := func(rng *rand.Rand, n int) []time.Duration {
		at := make([]time.Duration, n)
		for i := range at {
			at[i] = time.Duration(rng.Int64N(int64(cfg.Mixed)))
		}
		slices.Sort(at)
		return at
	}
	var reqs []request
	rng := stream(1)
	for _, at := range arrivals(rng, cfg.count(cfg.ReadRate)) {
		kind := kindSimilar
		switch u := rng.IntN(10); {
		case u == 8:
			kind = kindSimilarPhase
		case u == 9:
			kind = kindVectors
		}
		reqs = append(reqs, request{at: at, kind: kind, bench: names[rng.IntN(len(names))], k: 1 + rng.IntN(8)})
	}
	rng = stream(2)
	total, distinct := cfg.submissions()
	jobs := cfg.sliceShare(spread(names, distinct*cfg.Slices, 0), slice)
	order := rng.Perm(len(jobs))
	var submitted []string
	fresh := 0
	for _, at := range arrivals(rng, total) {
		r := request{at: at, kind: kindSubmit}
		if n := len(submitted); cfg.RepeatEvery > 0 && n > 0 && (n+1)%cfg.RepeatEvery == 0 {
			r.bench, r.repeat = submitted[rng.IntN(n)], true
		} else {
			r.bench = jobs[order[fresh%len(order)]]
			fresh++
		}
		submitted = append(submitted, r.bench)
		reqs = append(reqs, r)
	}
	for i, at := range arrivals(stream(3), cfg.count(cfg.UploadRate)) {
		reqs = append(reqs, request{at: at, kind: kindUpload, upload: i*cfg.Slices + slice})
	}
	for at := time.Second; at < cfg.Mixed; at += time.Second {
		reqs = append(reqs, request{at: at, kind: kindScrape})
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].at < reqs[j].at })
	similar := 0
	for i := range reqs {
		reqs[i].trace = int64(slice)<<32 | int64(i+1)
		reqs[i].traced = i%2 == 0
		if k := reqs[i].kind; k == kindSimilar || k == kindSimilarPhase {
			reqs[i].check = cfg.CheckEvery > 0 && similar%cfg.CheckEvery == 0
			similar++
		}
	}
	return reqs
}

// uploadTraces records the traces a run uploads: n benchmarks spread
// over the registry, between the ones submitted by name. Slice i sends
// traces i, i+Slices, ...
func uploadTraces(h *harness, names []string, n int, budget uint64) ([][]byte, []string, error) {
	dir, err := h.tempDir("uploads")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	var data [][]byte
	var labels []string
	for i, name := range spread(names, n, len(names)/(2*max(n, 1))) {
		b, err := mica.BenchmarkByName(name)
		if err != nil {
			return nil, nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("u%d.trc", i))
		if _, err := mica.RecordTrace(b, path, budget); err != nil {
			return nil, nil, err
		}
		img, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		data = append(data, img)
		labels = append(labels, strings.ReplaceAll(name, "/", "-"))
	}
	return data, labels, nil
}

// runServe runs the serve workload and adds its metrics to r.
func runServe(ctx context.Context, h *harness, r *result, cfg serveConfig) ([]span, error) {
	dir, err := h.tempDir("serve")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	bin, err := buildServe(ctx, h, dir)
	if err != nil {
		return nil, err
	}
	names := cfg.Benchmarks
	if names == nil {
		for _, b := range mica.Benchmarks() {
			names = append(names, b.Name())
		}
	}
	schedules := make([][]request, cfg.Slices)
	for i := range schedules {
		schedules[i] = schedule(h.seed, i, names, cfg)
	}
	traces, labels, err := uploadTraces(h, names, cfg.count(cfg.UploadRate)*cfg.Slices, cfg.jobBudget())
	if err != nil {
		return nil, fmt.Errorf("recording upload traces: %w", err)
	}

	var tr *tracer
	if h.traced {
		tr = &tracer{}
	}
	g := newLoadgen(cfg, tr, traces, labels)
	defer g.client.CloseIdleConnections()
	var setups, rss, closedSecs []float64
	var layers []map[string]float64
	for i, static := range schedules {
		store := filepath.Join(dir, fmt.Sprintf("store%d", i))
		d, took, err := startDaemon(h, bin, daemonArgs(h, cfg, store, filepath.Join(dir, fmt.Sprintf("traces%d", i))))
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		l, secs, err := g.slice(ctx, "http://"+d.addr, store, h.seed, i, names, static)
		var mb float64
		if err == nil {
			mb, err = peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
		}
		if serr := d.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, fmt.Errorf("slice %d: %w", i, err)
		}
		rss = append(rss, mb)
		closedSecs = append(closedSecs, secs)
		l["ivstore.store_mb"] = float64(dirBytes(store)) / 1e6
		layers = append(layers, l)
	}

	r.Attempted, r.Failed = g.attempted, g.failed
	for _, e := range g.errs {
		h.logf("serve: %s", e)
	}
	r.addCheck("similar_answers", g.checkSimilar(ctx, cfg))
	r.addCheck("job_results", g.checkJobs(cfg))
	var dedupErr error
	if g.notDeduped > 0 {
		dedupErr = fmt.Errorf("%d repeated submissions were characterized again", g.notDeduped)
	}
	r.addCheck("dedup", dedupErr)
	if len(g.reads) == 0 || len(g.jobs) == 0 {
		r.addCheck("operations", fmt.Errorf("mixed steps completed %d reads and %d jobs", len(g.reads), len(g.jobs)))
	}
	if len(r.failedChecks()) > 0 {
		return nil, nil
	}

	if h.traced {
		for _, k := range sortedKeys(layers[0]) {
			var xs []float64
			for _, l := range layers {
				xs = append(xs, l[k])
			}
			r.metric(k, xs...)
		}
		r.metric("serve.upload_p50_s", median(g.uploads))
		r.metric("serve.gen_late_p99_ms", percentile(g.late, 9900))
		r.metric("trace_overhead_pct", overheadPct(g.readsTraced, g.readsUntraced))
	} else {
		r.metric("setup_s", setups...)
		r.metric("wall_s", g.jobs...)
		r.metric("warm_s", seconds(g.reads)...)
		r.metric("peak_rss_mb", rss...)
	}

	r.addDetail("serve.read_p50_ms", "ms", median(g.reads))
	addTail(r, "serve.read", "ms", g.reads)
	r.addDetail("serve.job_p50_s", "s", median(g.jobs))
	addTail(r, "serve.job", "s", g.jobs)
	r.addDetail("serve.read_qps", "1/s", float64(len(g.closed))/sum(closedSecs))
	r.addDetail("serve.closed_p50_ms", "ms", median(g.closed))
	r.addDetail("serve.upload_s", "s", g.uploads...)
	r.addDetail("serve.dedup_ms", "ms", g.dedups...)
	r.addDetail("serve.gen_late_ms", "ms", g.late...)
	r.addDetail("serve.gen_late_p99_ms", "ms", percentile(g.late, 9900))
	addTail(r, "serve.gen_late", "ms", g.late)
	return tr.closed(), nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func seconds(ms []float64) []float64 {
	out := make([]float64, len(ms))
	for i, v := range ms {
		out[i] = v / 1e3
	}
	return out
}

// addTail reports the highest percentile with enough samples beyond,
// unless a detail of that name is already reported.
func addTail(r *result, prefix, unit string, xs []float64) {
	pct, v, ok := tail(xs)
	if !ok {
		return
	}
	name := fmt.Sprintf("%s_p%s_%s", prefix, strconv.FormatFloat(pct, 'f', -1, 64), unit)
	for _, d := range r.Details {
		if d.Name == name {
			return
		}
	}
	r.addDetail(name, unit, v)
}

func daemonArgs(h *harness, cfg serveConfig, store, traces string) []string {
	args := []string{"-addr", "127.0.0.1:0", "-workers", strconv.Itoa(maxProcs),
		"-interval", strconv.FormatUint(cfg.Interval, 10), "-intervals", strconv.Itoa(cfg.Intervals),
		"-maxk", strconv.Itoa(cfg.MaxK), "-seed", strconv.FormatInt(paperSeed, 10),
		"-tracedir", traces, "-store", store}
	if cfg.Benchmarks != nil {
		args = append(args, "-bench", strings.Join(cfg.Benchmarks, ","))
	}
	return args
}

// buildServe compiles cmd/mica-serve into dir; the build is not timed.
func buildServe(ctx context.Context, h *harness, dir string) (string, error) {
	bin := filepath.Join(dir, "mica-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/mica-serve")
	cmd.Dir = h.root
	cmd.Stdout, cmd.Stderr = h.stderr, h.stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building mica-serve: %w", err)
	}
	return bin, nil
}

// daemon is a running mica-serve process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	exited  chan struct{}
	err     error // the process's exit, valid once exited is closed
	once    sync.Once
	stopErr error
}

// startTimeout bounds a daemon's cold start.
const startTimeout = 120 * time.Second

// startDaemon starts mica-serve and returns once it prints its serving
// line, with the time that took.
func startDaemon(h *harness, bin string, args []string) (*daemon, time.Duration, error) {
	lw := &lineWatch{w: h.stderr, addr: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Dir = h.root
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(maxProcs))
	cmd.Stdout = lw
	cmd.Stderr = h.stderr
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	timer := time.NewTimer(startTimeout)
	defer timer.Stop()
	select {
	case d.addr = <-lw.addr:
		return d, time.Since(start), nil
	case <-d.exited:
		return nil, 0, fmt.Errorf("mica-serve exited before serving: %v", d.err)
	case <-timer.C:
		_ = d.stop()
		return nil, 0, fmt.Errorf("mica-serve not serving after %v", startTimeout)
	}
}

// stop interrupts the daemon, which drains its jobs and closes its
// store, and waits for it to exit. It is safe to call more than once.
func (d *daemon) stop() error {
	d.once.Do(func() {
		_ = d.cmd.Process.Signal(os.Interrupt)
		timer := time.NewTimer(60 * time.Second)
		defer timer.Stop()
		select {
		case <-d.exited:
			d.stopErr = d.err
		case <-timer.C:
			_ = d.cmd.Process.Kill()
			<-d.exited
			d.stopErr = errors.New("mica-serve did not drain within 60s and was killed")
		}
	})
	return d.stopErr
}

// lineWatch forwards the daemon's output and picks the listen address
// out of its "serving ... on http://ADDR" line.
type lineWatch struct {
	w    io.Writer
	buf  []byte
	addr chan string
	sent bool
}

func (l *lineWatch) Write(p []byte) (int, error) {
	l.buf = append(l.buf, p...)
	for {
		i := bytes.IndexByte(l.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(l.buf[:i])
		l.buf = l.buf[i+1:]
		if line != "" {
			fmt.Fprintf(l.w, "mica-serve: %s\n", line)
		}
		if j := strings.Index(line, "http://"); !l.sent && strings.HasPrefix(line, "serving ") && j >= 0 {
			if f := strings.Fields(line[j+len("http://"):]); len(f) > 0 {
				l.addr <- f[0]
				l.sent = true
			}
		}
	}
}

// loadgen is the traffic generator: one dispatcher goroutine feeds two
// sender goroutines that share at most two keep-alive connections. It
// accumulates the samples of every slice.
type loadgen struct {
	cfg    serveConfig
	client *http.Client
	tr     *tracer
	traces [][]byte
	labels []string

	// The current slice's daemon, store and step start; set before
	// its senders start.
	base  string
	store string
	start time.Time

	wake chan struct{}

	mu            sync.Mutex
	polls         pollQueue
	pending       int // jobs submitted and not finished
	reads         []float64
	readsTraced   []float64
	readsUntraced []float64
	closed        []float64
	jobs          []float64
	uploads       []float64
	dedups        []float64
	late          []float64
	queueMax      float64
	attempted     int
	failed        int
	notDeduped    int
	errs          []string
	similar       []similarAnswer
	results       []jobResult
}

func newLoadgen(cfg serveConfig, tr *tracer, traces [][]byte, labels []string) *loadgen {
	transport := &http.Transport{MaxConnsPerHost: maxProcs, MaxIdleConnsPerHost: maxProcs, DisableCompression: true}
	return &loadgen{
		cfg: cfg, tr: tr, traces: traces, labels: labels,
		client: &http.Client{Transport: transport, Timeout: 60 * time.Second},
		wake:   make(chan struct{}, 1),
	}
}

// slice drives one daemon: a scrape, the mixed step, a scrape, then the
// closed step. It returns what the two scrapes say about the daemon's
// layers over the mixed step, and the closed step's length in seconds.
func (g *loadgen) slice(ctx context.Context, base, store string, seed int64, i int, names []string,
	static []request) (map[string]float64, float64, error) {
	g.base, g.store = base, store
	g.mu.Lock()
	g.queueMax = 0
	g.mu.Unlock()
	before, err := g.scrape(ctx)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	g.mixed(ctx, static)
	mixed := time.Since(start).Seconds()
	after, err := g.scrape(ctx)
	if err != nil {
		return nil, 0, err
	}
	start = time.Now()
	g.closedLoop(ctx, seed, i, names)
	closed := time.Since(start).Seconds()
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}

	serverMs := func(endpoint string) float64 {
		s := `mica_serve_request_seconds_sum{endpoint="` + endpoint + `"}`
		n := `mica_serve_request_seconds_count{endpoint="` + endpoint + `"}`
		return ratio(before.delta(after, s), before.delta(after, n)) * 1e3
	}
	hits := before.delta(after, "mica_ivstore_cache_hits_total")
	misses := before.delta(after, "mica_ivstore_cache_misses_total")
	g.mu.Lock()
	queueMax := g.queueMax
	g.mu.Unlock()
	return map[string]float64{
		"pool.idle_frac":               idleFrac(before, after, mixed),
		"phases.characterize_cpu_s":    before.delta(after, seriesCharacter),
		"cluster.sweep_cpu_s":          before.delta(after, seriesSweep),
		"ivstore.decodes":              before.delta(after, "mica_ivstore_cache_decodes_total"),
		"ivstore.hit_ratio":            ratio(hits, hits+misses),
		"ivstore.evictions":            before.delta(after, "mica_ivstore_cache_evictions_total"),
		"ivstore.peak_cache_mb":        after["mica_ivstore_cache_peak_bytes"] / 1e6,
		"serve.similar_server_ms":      serverMs("similar"),
		"serve.vectors_server_ms":      serverMs("vectors"),
		"serve.characterize_server_ms": serverMs("characterize"),
		"serve.queue_max":              queueMax,
		"serve.dedup_ratio":            ratio(before.delta(after, "mica_serve_jobs_deduped_total"), before.delta(after, "mica_serve_jobs_submitted_total")),
		"serve.jobs_executed":          before.delta(after, "mica_serve_jobs_executed_total"),
		"serve.rejected":               before.delta(after, "mica_serve_jobs_rejected_total"),
	}, closed, nil
}

// pollQueue orders follow-up polls by due time.
type pollQueue []*request

func (q pollQueue) Len() int           { return len(q) }
func (q pollQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q pollQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pollQueue) Push(x any)        { *q = append(*q, x.(*request)) }
func (q *pollQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// mixed runs the open-loop step: every static request at its due time,
// plus the polls that follow each job until it is done.
func (g *loadgen) mixed(ctx context.Context, static []request) {
	g.start = time.Now()
	work := make(chan *request)
	var wg sync.WaitGroup
	for range maxProcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range work {
				g.send(ctx, req)
			}
		}()
	}
	timedOut := g.dispatch(ctx, static, work)
	close(work)
	wg.Wait()
	if timedOut {
		g.abandon()
	}
}

// dispatch hands every request to the senders at its due time. It
// reports whether it gave up on unfinished jobs at the drain bound.
func (g *loadgen) dispatch(ctx context.Context, static []request, work chan<- *request) bool {
	i := 0
	var drainBy time.Time
	for {
		g.mu.Lock()
		var next *request
		if i < len(static) {
			next = &static[i]
		}
		fromPolls := len(g.polls) > 0 && (next == nil || g.polls[0].at < next.at)
		if fromPolls {
			next = g.polls[0]
		}
		pending := g.pending
		g.mu.Unlock()

		if next == nil {
			if pending == 0 {
				return false
			}
			if drainBy.IsZero() {
				drainBy = time.Now().Add(g.cfg.Drain)
			}
			if time.Now().After(drainBy) {
				return true
			}
			select {
			case <-g.wake:
			case <-time.After(10 * time.Millisecond):
			case <-ctx.Done():
				return false
			}
			continue
		}
		if wait := time.Until(g.start.Add(next.at)); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-g.wake:
				timer.Stop()
				continue // a new poll may be due sooner
			case <-ctx.Done():
				timer.Stop()
				return false
			}
		}
		if fromPolls {
			g.mu.Lock()
			next = heap.Pop(&g.polls).(*request)
			g.mu.Unlock()
		} else {
			i++
			if next.kind == kindSubmit || next.kind == kindUpload {
				next.job = &job{due: g.start.Add(next.at), bench: next.bench, repeat: next.repeat, upload: next.kind == kindUpload}
				g.mu.Lock()
				g.pending++
				g.mu.Unlock()
			}
		}
		select {
		case work <- next:
		case <-ctx.Done():
			return false
		}
	}
}

// abandon counts the jobs still unfinished after the drain bound as
// failed and drops their polls. It runs once the senders have stopped,
// so no late reply can finish or re-poll one of them afterwards.
func (g *loadgen) abandon() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pending > 0 {
		g.failed += g.pending
		g.errs = append(g.errs, fmt.Sprintf("%d jobs unfinished after %v", g.pending, g.cfg.Drain))
	}
	g.pending = 0
	g.polls = nil
}

func (g *loadgen) fail(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.failed++
	if len(g.errs) < 10 {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
}

// do sends one request and reads the whole response.
func (g *loadgen) do(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, g.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// jobResponse is the part of a job payload the generator reads.
type jobResponse struct {
	ID      string     `json:"id"`
	Status  string     `json:"status"`
	Deduped bool       `json:"deduped"`
	Error   string     `json:"error"`
	Result  *jobResult `json:"result"`
}

type jobResult struct {
	Benchmark string    `json:"benchmark"`
	Insts     uint64    `json:"insts"`
	Chars     []float64 `json:"chars"`
	HPC       []float64 `json:"hpc"`
}

// similarAnswer is a sampled similarity answer and the store of the
// daemon that gave it.
type similarAnswer struct {
	store, bench, space string
	k                   int
	body                []byte
}

func (g *loadgen) send(ctx context.Context, req *request) {
	due := g.start.Add(req.at)
	begin := time.Now()
	g.mu.Lock()
	g.late = append(g.late, float64(begin.Sub(due).Nanoseconds())/1e6)
	g.mu.Unlock()
	tr := g.tr
	if !req.traced {
		tr = nil
	}
	switch req.kind {
	case kindSimilar, kindSimilarPhase, kindVectors:
		q := url.Values{"bench": {req.bench}}
		path := "/api/v1/vectors?"
		if req.kind != kindVectors {
			path = "/api/v1/similar?"
			q.Set("k", strconv.Itoa(req.k))
			if req.kind == kindSimilarPhase {
				q.Set("space", serve.SpacePhase)
			}
		}
		body, status, err := g.do(ctx, http.MethodGet, path+q.Encode(), nil)
		end := time.Now()
		tr.record(kindNames[req.kind], 0, req.trace, begin, end)
		if err != nil || status != http.StatusOK {
			g.fail("%s %s: status %d, %v", kindNames[req.kind], req.bench, status, err)
			g.count()
			return
		}
		ms := float64(end.Sub(due).Nanoseconds()) / 1e6
		g.mu.Lock()
		g.attempted++
		g.reads = append(g.reads, ms)
		if req.traced {
			g.readsTraced = append(g.readsTraced, ms)
		} else {
			g.readsUntraced = append(g.readsUntraced, ms)
		}
		if req.check {
			space := serve.SpacePCA
			if req.kind == kindSimilarPhase {
				space = serve.SpacePhase
			}
			g.similar = append(g.similar, similarAnswer{store: g.store, bench: req.bench, space: space, k: req.k, body: body})
		}
		g.mu.Unlock()
	case kindSubmit, kindUpload:
		j := req.job
		j.root = tr.start("serve.job", 0, req.trace)
		var body []byte
		var status int
		var err error
		if req.kind == kindSubmit {
			payload, _ := json.Marshal(map[string]string{"benchmark": req.bench}) // a map of strings always marshals
			body, status, err = g.do(ctx, http.MethodPost, "/api/v1/characterize", payload)
		} else {
			body, status, err = g.do(ctx, http.MethodPost, "/api/v1/traces?name="+url.QueryEscape(g.labels[req.upload]), g.traces[req.upload])
		}
		end := time.Now()
		tr.record(kindNames[req.kind], j.root, req.trace, begin, end)
		g.count()
		var resp jobResponse
		if err == nil && status == http.StatusAccepted {
			err = json.Unmarshal(body, &resp)
		}
		if err != nil || status != http.StatusAccepted {
			tr.end(j.root)
			g.fail("%s %s: status %d, %v", kindNames[req.kind], req.bench, status, err)
			g.finish()
			return
		}
		j.id = resp.ID
		if j.repeat && !resp.Deduped {
			g.mu.Lock()
			g.notDeduped++
			g.mu.Unlock()
		}
		j.repeat = resp.Deduped
		g.follow(req, j, resp, end)
	case kindPoll:
		body, status, err := g.do(ctx, http.MethodGet, "/api/v1/jobs/"+req.job.id, nil)
		end := time.Now()
		tr.record(kindNames[req.kind], req.job.root, req.trace, begin, end)
		var resp jobResponse
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &resp)
		}
		if err != nil || status != http.StatusOK {
			tr.end(req.job.root)
			g.fail("poll %s: status %d, %v", req.job.id, status, err)
			g.finish()
			return
		}
		g.follow(req, req.job, resp, end)
	case kindScrape:
		body, status, err := g.do(ctx, http.MethodGet, "/metrics", nil)
		if err == nil && status == http.StatusOK {
			q := parseExposition(string(body))["mica_serve_jobs_queued"]
			g.mu.Lock()
			g.queueMax = max(g.queueMax, q)
			g.mu.Unlock()
		}
	}
}

// count adds one attempted operation.
func (g *loadgen) count() {
	g.mu.Lock()
	g.attempted++
	g.mu.Unlock()
}

// finish marks one submitted job as no longer pending.
func (g *loadgen) finish() {
	g.mu.Lock()
	g.pending--
	g.mu.Unlock()
	g.notify()
}

func (g *loadgen) notify() {
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// follow records a finished job or schedules its next poll.
func (g *loadgen) follow(req *request, j *job, resp jobResponse, now time.Time) {
	switch resp.Status {
	case "done":
		g.tr.end(j.root)
		secs := now.Sub(j.due).Seconds()
		g.mu.Lock()
		switch {
		case j.repeat:
			g.dedups = append(g.dedups, secs*1e3)
		case j.upload:
			g.uploads = append(g.uploads, secs)
			g.jobs = append(g.jobs, secs)
		default:
			g.jobs = append(g.jobs, secs)
			if len(g.results) < g.cfg.CheckJobs && resp.Result != nil {
				g.results = append(g.results, *resp.Result)
			}
		}
		g.mu.Unlock()
		g.finish()
	case "failed":
		g.tr.end(j.root)
		g.fail("job %s (%s) failed: %s", j.id, j.bench, resp.Error)
		g.finish()
	default:
		poll := &request{at: now.Add(g.cfg.Poll).Sub(g.start), kind: kindPoll, job: j, trace: req.trace, traced: req.traced}
		g.mu.Lock()
		heap.Push(&g.polls, poll)
		g.mu.Unlock()
		g.notify()
	}
}

// scrape reads the daemon's metrics.
func (g *loadgen) scrape(ctx context.Context) (registry, error) {
	body, status, err := g.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	return parseExposition(string(body)), nil
}

// closedLoop sends similarity reads back to back over the two
// connections for the closed step of slice i.
func (g *loadgen) closedLoop(ctx context.Context, seed int64, i int, names []string) {
	var wg sync.WaitGroup
	deadline := time.Now().Add(g.cfg.Closed)
	for w := range maxProcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(seed), uint64(i)<<8|uint64(10+w)))
			for time.Now().Before(deadline) && ctx.Err() == nil {
				q := url.Values{"bench": {names[rng.IntN(len(names))]}, "k": {strconv.Itoa(1 + rng.IntN(8))}}
				begin := time.Now()
				_, status, err := g.do(ctx, http.MethodGet, "/api/v1/similar?"+q.Encode(), nil)
				if err != nil || status != http.StatusOK {
					g.fail("closed-loop similar %s: status %d, %v", q.Get("bench"), status, err)
					g.count()
					continue
				}
				ms := float64(time.Since(begin).Nanoseconds()) / 1e6
				g.mu.Lock()
				g.attempted++
				g.closed = append(g.closed, ms)
				g.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// checkSimilar recomputes the sampled similarity answers from each
// daemon's store with serve.BuildSimilarity and compares them exactly.
func (g *loadgen) checkSimilar(ctx context.Context, cfg serveConfig) error {
	if len(g.similar) == 0 {
		return errors.New("no similarity answer was sampled")
	}
	byStore := make(map[string][]similarAnswer)
	for _, a := range g.similar {
		byStore[a.store] = append(byStore[a.store], a)
	}
	for _, store := range sortedKeys(byStore) {
		if err := checkStoreAnswers(ctx, store, cfg, byStore[store]); err != nil {
			return err
		}
	}
	return nil
}

func checkStoreAnswers(ctx context.Context, store string, cfg serveConfig, answers []similarAnswer) error {
	st, err := mica.OpenIVStore(store)
	if err != nil {
		return err
	}
	defer st.Close()
	// The daemon clustered its fresh store without a warm state; a
	// fresh clustering here rebuilds the same phase space.
	phase := mica.PhaseConfig{IntervalLen: cfg.Interval, MaxIntervals: cfg.Intervals, MaxK: cfg.MaxK, Seed: paperSeed}
	j, _, err := mica.AnalyzePhasesJointOpenStoreCtx(ctx, st, phase, maxProcs, false)
	if err != nil {
		return err
	}
	sim, err := serve.BuildSimilarity(st, 0.9, j.Occupancy)
	if err != nil {
		return err
	}
	for _, a := range answers {
		want, err := sim.Nearest(a.bench, a.k, a.space)
		if err != nil {
			return err
		}
		var got struct {
			Neighbors []serve.Neighbor `json:"neighbors"`
		}
		if err := json.Unmarshal(a.body, &got); err != nil {
			return err
		}
		if len(got.Neighbors) != len(want) {
			return fmt.Errorf("similar %s k=%d space=%s: %d neighbors, want %d", a.bench, a.k, a.space, len(got.Neighbors), len(want))
		}
		for i := range want {
			if got.Neighbors[i] != want[i] {
				return fmt.Errorf("similar %s k=%d space=%s: neighbor %d is %+v, want %+v", a.bench, a.k, a.space, i, got.Neighbors[i], want[i])
			}
		}
	}
	return nil
}

// checkJobs compares finished jobs with the library's own profile at
// the daemon's budget.
func (g *loadgen) checkJobs(cfg serveConfig) error {
	if len(g.results) == 0 {
		return errors.New("no finished job to check")
	}
	for _, res := range g.results {
		b, err := mica.BenchmarkByName(res.Benchmark)
		if err != nil {
			return err
		}
		want, err := mica.Profile(b, mica.Config{InstBudget: cfg.jobBudget(), Workers: 1})
		if err != nil {
			return err
		}
		if res.Insts != want.Insts || !sameFloats(res.Chars, want.Chars[:]) || !sameFloats(res.HPC, want.HPC[:]) {
			return fmt.Errorf("job for %s differs from mica.Profile at %d instructions", res.Benchmark, cfg.jobBudget())
		}
	}
	return nil
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
