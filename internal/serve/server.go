// Package serve implements characterization-as-a-service: an
// HTTP/JSON layer over the mica library and a warm interval-vector
// store. It serves three query families:
//
//   - Characterization jobs (submit → job id → poll): a registry
//     benchmark name comes in; Table I/II rows, the phase timeline and
//     kiviat data come out, bit-identical to mica.Profile plus a
//     per-benchmark mica.Run. Jobs run on a bounded pool.Queue and are
//     deduplicated — in-flight and completed — by the benchmark name
//     composed with the library's phase-configuration stamp
//     (mica.PhaseConfigKey), so identical concurrent submissions cost
//     one characterization. Recorded trace files can be uploaded
//     (POST /api/v1/traces, bounded and validated before a byte is
//     persisted) and are characterized by the identical job path —
//     an upload is just a benchmark whose instruction stream replays
//     from disk instead of the embedded VM.
//   - Similarity queries, the paper's headline use case: k nearest
//     benchmarks to X in the normalized PCA space (or the joint
//     vocabulary's phase-occupancy space), answered inline from the
//     index built from the warm store at startup.
//   - Store reads: a benchmark's interval vectors, read from its shard
//     file on every request, so one corrupt shard degrades to a 500 on
//     the affected query, never a crash.
//
// Backpressure is explicit: a full job queue answers 429 with
// Retry-After, a closed (shutting down) server answers 503. Every
// endpoint feeds per-endpoint latency/QPS counters surfaced on
// /api/v1/stats together with the store's read counters
// (ivstore.CacheStats).
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"mica"
	"mica/internal/ivstore"
	"mica/internal/obs"
	"mica/internal/phases"
	"mica/internal/pool"
	"mica/internal/stats"
)

// Config parameterizes a Server.
type Config struct {
	// Phase is the server-wide phase-analysis configuration
	// characterization jobs run under; its stamp
	// (mica.PhaseConfigKey) is the dedup key component. The zero
	// value means the library defaults.
	Phase mica.PhaseConfig
	// SkipHPC drops the machine-model half of job profiles.
	SkipHPC bool
	// Workers bounds concurrent characterizations (<= 0 means
	// GOMAXPROCS).
	Workers int
	// QueueCap bounds pending jobs; a full queue answers 429
	// (default 64).
	QueueCap int
	// Retain bounds finished jobs kept for polling (default 1024).
	Retain int
	// PCAVariance is the variance fraction the similarity index's
	// retained components must explain (default 0.9).
	PCAVariance float64
	// Joint, when non-nil, is the store's joint vocabulary; it
	// enables space=phase similarity queries over its occupancy rows.
	Joint *mica.PhaseJointResult
	// TraceDir, when non-empty, enables POST /api/v1/traces: validated
	// uploads are persisted there (durably, content-addressed) and
	// characterized through the normal job path. Empty disables the
	// endpoint (404).
	TraceDir string
	// MaxTraceBytes bounds an uploaded trace's size; larger requests
	// answer 413 (default 64 MiB).
	MaxTraceBytes int64
}

// Server is the HTTP serving layer. Create with New, expose with
// Handler, stop with Close.
type Server struct {
	st    *ivstore.Store
	sim   *Similarity
	jobs  *jobManager
	cfg   Config
	start time.Time

	mux *http.ServeMux
	met *serverMetrics

	closing chan struct{}
	once    sync.Once
}

// CharacterizationResult is a finished job's payload. The numeric
// fields are exactly what the library path (mica.Profile plus a
// per-benchmark mica.Run) produces for the same configuration —
// regression-tested bit-identical.
type CharacterizationResult struct {
	Benchmark string `json:"benchmark"`
	Suite     string `json:"suite"`
	// Insts is the profiled dynamic instruction count.
	Insts uint64 `json:"insts"`
	// Chars is the 47-dimensional microarchitecture-independent
	// vector (Table II order); HPC the machine-model counters (absent
	// under SkipHPC).
	Chars []float64 `json:"chars"`
	HPC   []float64 `json:"hpc,omitempty"`
	// TableI and TableII are the rendered per-benchmark rows.
	TableI  string `json:"table_i"`
	TableII string `json:"table_ii"`
	// Phases summarizes the benchmark's phase structure.
	Phases PhaseSummary `json:"phases"`
	// Kiviat is the paper's kiviat-diagram data for the benchmark,
	// min-max normalized over the store's benchmark population
	// (absent when the benchmark is not in the store).
	Kiviat *KiviatData `json:"kiviat,omitempty"`
}

// PhaseSummary is the phase-analysis section of a job result.
type PhaseSummary struct {
	// K is the BIC-selected phase count over Intervals intervals.
	K         int `json:"k"`
	Intervals int `json:"intervals"`
	// Timeline is one rune per interval, 'A' + phase mod 26 — the
	// same cycle the CLI renders.
	Timeline string `json:"timeline"`
	// Representatives are the weighted simulation points, descending
	// by weight.
	Representatives []RepresentativePoint `json:"representatives"`
}

// RepresentativePoint is one phase's chosen simulation point.
type RepresentativePoint struct {
	Phase    int     `json:"phase"`
	Interval int     `json:"interval"`
	Weight   float64 `json:"weight"`
}

// KiviatData is the kiviat diagram's axes: per-characteristic labels
// and [0,1] values.
type KiviatData struct {
	Labels []string  `json:"labels"`
	Values []float64 `json:"values"`
}

// New builds a Server over an open committed store. The store must
// have been characterized under cfg.Phase, and a cfg.Joint vocabulary
// clustered over exactly its shards, in shard order. The similarity
// index is assembled eagerly (decoding every shard once), so a
// freshly started server answers its first similarity query warm.
func New(st *ivstore.Store, cfg Config) (*Server, error) {
	cfg.Phase = cfg.Phase.WithDefaults()
	if err := cfg.Phase.Options.Validate(); err != nil {
		return nil, err
	}
	if key := mica.PhaseConfigKey(cfg.Phase); st.ConfigHash() != key {
		return nil, fmt.Errorf("serve: store %s was characterized under config %.12s, jobs run under %.12s",
			st.Dir(), st.ConfigHash(), key)
	}
	if cfg.PCAVariance <= 0 {
		cfg.PCAVariance = 0.9
	}
	if cfg.MaxTraceBytes <= 0 {
		cfg.MaxTraceBytes = 64 << 20
	}
	if cfg.TraceDir != "" {
		if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: trace dir: %w", err)
		}
	}
	var occ *stats.Matrix
	if cfg.Joint != nil {
		if !slices.Equal(cfg.Joint.Benchmarks, st.Benchmarks()) {
			return nil, fmt.Errorf("serve: joint vocabulary covers %v, store holds %v",
				cfg.Joint.Benchmarks, st.Benchmarks())
		}
		occ = cfg.Joint.Occupancy
	}
	sim, err := BuildSimilarity(st, cfg.PCAVariance, occ)
	if err != nil {
		return nil, err
	}
	s := &Server{
		st:      st,
		sim:     sim,
		cfg:     cfg,
		start:   time.Now(),
		met:     newServerMetrics(),
		closing: make(chan struct{}),
	}
	s.jobs = newJobManager(cfg.Workers, cfg.QueueCap, cfg.Retain, s.met, s.characterize)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.mux.Handle("GET /api/v1/benchmarks", s.wrap("benchmarks", s.handleBenchmarks))
	s.mux.Handle("POST /api/v1/characterize", s.wrap("characterize", s.handleCharacterize))
	s.mux.Handle("POST /api/v1/traces", s.wrap("traces", s.handleTraceUpload))
	s.mux.Handle("GET /api/v1/jobs/{id}", s.wrap("jobs", s.handleJob))
	s.mux.Handle("GET /api/v1/similar", s.wrap("similar", s.handleSimilar))
	s.mux.Handle("GET /api/v1/vectors", s.wrap("vectors", s.handleVectors))
	s.mux.Handle("GET /api/v1/stats", s.wrap("stats", s.handleStats))
	s.mux.Handle("GET /api/v1/version", s.wrap("version", s.handleVersion))
	s.mux.Handle("GET /metrics", s.wrap("metrics", s.handleMetrics))
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ConfigKey returns the server-wide phase-configuration stamp new
// submissions are deduplicated under.
func (s *Server) ConfigKey() string { return mica.PhaseConfigKey(s.cfg.Phase) }

// Close stops accepting jobs, drains the accepted backlog and
// returns. The caller owns the store and shuts the http.Server down
// itself (mica-serve wires both to signal.NotifyContext).
func (s *Server) Close() {
	s.once.Do(func() { close(s.closing) })
	s.jobs.close()
}

// characterize is the job body: the plain library path, so service
// responses are bit-identical to what a CLI/library user computes for
// the same configuration — whether b is a registry entry or a
// trace-backed benchmark built from an upload (the handlers resolve
// the name; the job carries the benchmark). Its phase analysis is
// the one a per-benchmark mica.Run computes, called directly: a Run
// inside a queue task would count the job's busy time twice in the
// pool metrics.
func (s *Server) characterize(b mica.Benchmark) (*CharacterizationResult, error) {
	name := b.Name()
	profCfg := mica.Config{
		InstBudget: s.cfg.Phase.IntervalLen * uint64(s.cfg.Phase.MaxIntervals),
		SkipHPC:    s.cfg.SkipHPC,
		Workers:    1,
	}
	pr, err := mica.Profile(b, profCfg)
	if err != nil {
		return nil, fmt.Errorf("profiling %s: %w", name, err)
	}
	src, err := b.Source()
	if err != nil {
		return nil, fmt.Errorf("phase analysis of %s: %w", name, err)
	}
	ph, err := phases.Analyze(src, s.cfg.Phase)
	if err != nil {
		return nil, fmt.Errorf("phase analysis of %s: %w", name, err)
	}
	res := &CharacterizationResult{
		Benchmark: name,
		Suite:     b.Suite,
		Insts:     pr.Insts,
		Chars:     append([]float64(nil), pr.Chars[:]...),
		TableI:    mica.RenderTableI([]mica.ProfileResult{pr}),
		TableII:   mica.RenderTableII([]mica.ProfileResult{pr}),
		Phases:    summarizePhases(ph),
	}
	if !s.cfg.SkipHPC {
		res.HPC = append([]float64(nil), pr.HPC[:]...)
	}
	res.Kiviat = s.kiviat(name)
	return res, nil
}

// summarizePhases flattens a phase result into the JSON summary.
func summarizePhases(ph *mica.PhaseResult) PhaseSummary {
	timeline := make([]byte, len(ph.Assign))
	for i, p := range ph.Assign {
		timeline[i] = byte('A' + p%26)
	}
	reps := make([]RepresentativePoint, len(ph.Representatives))
	for i, rep := range ph.Representatives {
		reps[i] = RepresentativePoint{Phase: rep.Phase, Interval: rep.Interval, Weight: rep.Weight}
	}
	return PhaseSummary{
		K:               ph.K,
		Intervals:       len(ph.Intervals),
		Timeline:        string(timeline),
		Representatives: reps,
	}
}

// kiviat builds the paper's kiviat axes for a stored benchmark: the
// key characteristics of its store signature, min-max normalized
// across the store's benchmark population (nil when the benchmark is
// not in the store).
func (s *Server) kiviat(name string) *KiviatData {
	if _, ok := s.sim.NormRow(name); !ok {
		return nil
	}
	cols := mica.KeyCharacteristics()
	sub := s.sim.norm.SelectColumns(cols)
	mm := stats.MinMaxNormalizeColumns(sub)
	labels := make([]string, len(cols))
	for i, c := range cols {
		labels[i] = mica.CharName(c)
	}
	row := mm.Row(s.sim.index[name])
	return &KiviatData{Labels: labels, Values: append([]float64(nil), row...)}
}

// --- HTTP plumbing ---

// statusWriter records the response status for the metrics layer.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// wrap gives a handler the cross-cutting serving behavior: panic
// recovery (a handler bug or a Reader panic fails the one request
// with a 500, never the process) and per-endpoint latency/QPS/error
// accounting.
func (s *Server) wrap(name string, h func(http.ResponseWriter, *http.Request)) http.Handler {
	s.met.register(name)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		begin := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				// Headers may already be out; best-effort error body.
				writeError(sw, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
			}
			s.met.observe(name, time.Since(begin), sw.status >= 400)
		}()
		h(sw, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// BenchmarkInfo is one row of the benchmark listing.
type BenchmarkInfo struct {
	Name string `json:"name"`
	// InStore reports whether the warm store holds the benchmark's
	// interval vectors (similarity and kiviat need it).
	InStore bool `json:"in_store"`
	// Rows is the stored interval count (0 when not in store).
	Rows int `json:"rows"`
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	stored := make(map[string]int, len(s.st.Shards()))
	for _, sh := range s.st.Shards() {
		stored[sh.Name] = sh.Rows
	}
	var out []BenchmarkInfo
	for _, b := range mica.Benchmarks() {
		rows, ok := stored[b.Name()]
		out = append(out, BenchmarkInfo{Name: b.Name(), InStore: ok, Rows: rows})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"benchmarks": out,
		"config_key": s.ConfigKey(),
	})
}

// characterizeRequest is the submit body.
type characterizeRequest struct {
	Benchmark string `json:"benchmark"`
}

// jobResponse is the submit/poll payload.
type jobResponse struct {
	ID        string                  `json:"id"`
	Benchmark string                  `json:"benchmark"`
	ConfigKey string                  `json:"config_key"`
	Status    JobStatus               `json:"status"`
	Deduped   bool                    `json:"deduped,omitempty"`
	Error     string                  `json:"error,omitempty"`
	Result    *CharacterizationResult `json:"result,omitempty"`
}

func (s *Server) handleCharacterize(w http.ResponseWriter, r *http.Request) {
	var req characterizeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	if req.Benchmark == "" {
		writeError(w, http.StatusBadRequest, "missing benchmark name")
		return
	}
	b, err := mica.BenchmarkByName(req.Benchmark)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	s.submitJob(w, b)
}

// submitJob queues benchmark b (registry or trace-backed) under the
// server-wide config stamp and writes the accepted-job response,
// mapping queue backpressure onto 429/503.
func (s *Server) submitJob(w http.ResponseWriter, b mica.Benchmark) {
	key := b.Name() + "|" + s.ConfigKey()
	j, deduped, err := s.jobs.submit(b, key)
	switch {
	case errors.Is(err, pool.ErrQueueSaturated):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "job queue is full, retry later")
		return
	case errors.Is(err, pool.ErrQueueClosed):
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.writeJob(w, http.StatusAccepted, j.ID, deduped)
}

// handleTraceUpload accepts a recorded trace file (the request body is
// the raw trace bytes), validates it end to end — header, CRCs, every
// event — before a byte is persisted, stores it durably under a
// content-addressed name in the trace directory, and submits it as a
// normal characterization job. Re-uploading identical bytes dedups
// onto the same job, exactly like resubmitting a registry name.
func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	if s.cfg.TraceDir == "" {
		writeError(w, http.StatusNotFound, "trace uploads are not enabled (no trace directory configured)")
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxTraceBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("trace exceeds upload limit of %d bytes", s.cfg.MaxTraceBytes))
			return
		}
		writeError(w, http.StatusBadRequest, "reading upload: "+err.Error())
		return
	}
	events, err := mica.ValidateTrace(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid trace: "+err.Error())
		return
	}
	sum := sha256.Sum256(data)
	hash := hex.EncodeToString(sum[:4])
	label := sanitizeTraceLabel(r.URL.Query().Get("name"))
	name := "trace/" + label + "/" + hash
	path := filepath.Join(s.cfg.TraceDir, hash+".trc")
	if err := mica.SaveTrace(path, data); err != nil {
		writeError(w, http.StatusInternalServerError, "persisting trace: "+err.Error())
		return
	}
	w.Header().Set("X-Trace-Events", strconv.FormatUint(events, 10))
	s.submitJob(w, mica.TraceBenchmark(name, path))
}

// sanitizeTraceLabel maps a caller-supplied upload label onto the
// program segment of the "trace/<label>/<hash>" benchmark name:
// letters, digits, dot, dash and underscore pass through; anything
// else (including the name separator '/') becomes '-'. An empty label
// is "upload".
func sanitizeTraceLabel(label string) string {
	if label == "" {
		return "upload"
	}
	if len(label) > 64 {
		label = label[:64]
	}
	out := []byte(label)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
		default:
			out[i] = '-'
		}
	}
	return string(out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.jobs.get(id); !ok {
		writeError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	s.writeJob(w, http.StatusOK, id, false)
}

func (s *Server) writeJob(w http.ResponseWriter, status int, id string, deduped bool) {
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	writeJSON(w, status, jobResponse{
		ID:        j.ID,
		Benchmark: j.Benchmark,
		ConfigKey: s.ConfigKey(),
		Status:    j.Status,
		Deduped:   deduped,
		Error:     j.Error,
		Result:    j.Result,
	})
}

// similarResponse is the similarity payload.
type similarResponse struct {
	Benchmark string     `json:"benchmark"`
	Space     string     `json:"space"`
	K         int        `json:"k"`
	PCAK      int        `json:"pca_components,omitempty"`
	Explained float64    `json:"explained_variance,omitempty"`
	Neighbors []Neighbor `json:"neighbors"`
}

func (s *Server) handleSimilar(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("bench")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing bench parameter")
		return
	}
	space := r.URL.Query().Get("space")
	if space == "" {
		space = SpacePCA
	}
	k := 5
	if ks := r.URL.Query().Get("k"); ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, "invalid k parameter")
			return
		}
		k = v
	}
	neighbors, err := s.sim.Nearest(name, k, space)
	if err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "not in the store") {
			status = http.StatusNotFound
		}
		writeError(w, status, err.Error())
		return
	}
	resp := similarResponse{Benchmark: name, Space: space, K: len(neighbors), Neighbors: neighbors}
	if space == SpacePCA {
		resp.PCAK, resp.Explained = s.sim.Components()
	}
	writeJSON(w, http.StatusOK, resp)
}

// vectorsResponse carries a benchmark's stored interval vectors.
type vectorsResponse struct {
	Benchmark string      `json:"benchmark"`
	From      int         `json:"from"`
	Dims      int         `json:"dims"`
	Vectors   [][]float64 `json:"vectors"`
}

// handleVectors serves a benchmark's interval vectors, read from its
// shard with one ReadShard: a shard that fails to decode is a 500 on
// this request, and the server keeps serving everything else.
func (s *Server) handleVectors(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("bench")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing bench parameter")
		return
	}
	shard, ok := s.st.ShardIndex(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("benchmark %q is not in the store", name))
		return
	}
	rows := s.st.Shards()[shard].Rows
	from, count := 0, rows
	q := r.URL.Query()
	if v := q.Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "invalid from parameter")
			return
		}
		from = n
	}
	if v := q.Get("count"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "invalid count parameter")
			return
		}
		count = n
	}
	// Clamp count against the rows left after from, never as from+count,
	// which overflows for a count near MaxInt.
	from = min(from, rows)
	count = min(count, rows-from)
	data, err := s.st.ReadShard(shard)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "store read failed: "+err.Error())
		return
	}
	out := make([][]float64, count)
	for i := range out {
		out[i] = data.Vecs.Row(from + i)
	}
	writeJSON(w, http.StatusOK, vectorsResponse{
		Benchmark: name,
		From:      from,
		Dims:      s.st.Dims(),
		Vectors:   out,
	})
}

// statsResponse is the /stats payload.
type statsResponse struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	Jobs          JobStats                 `json:"jobs"`
	Store         ivstore.CacheStats       `json:"store_cache"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	uptime := time.Since(s.start)
	eps := make(map[string]EndpointStats, len(s.met.endpoints))
	for _, name := range s.met.endpoints {
		eps[name] = s.met.snapshot(name, uptime)
	}
	writeJSON(w, http.StatusOK, statsResponse{
		UptimeSeconds: uptime.Seconds(),
		Endpoints:     eps,
		Jobs:          s.jobs.stats(),
		Store:         s.st.CacheStats(),
	})
}

// handleVersion reports the running binary's build identity.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, obs.Build())
}

// handleMetrics serves the Prometheus text exposition: the
// process-global registry first (pool, ivstore, trace, pipeline stage
// spans — everything the daemon's jobs exercise), then this server's
// own registry (endpoints, job queue). The two registries have
// disjoint name sets, so the concatenation is a valid exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.Default().WritePrometheus(w); err != nil {
		return
	}
	_ = s.met.reg.WritePrometheus(w)
}
