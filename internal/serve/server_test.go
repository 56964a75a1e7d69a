package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mica"
	"mica/internal/isa"
	"mica/internal/ivstore"
	"mica/internal/trace"
)

// testPhase is the tiny phase grid the serve tests run under: a few
// thousand instructions per benchmark so the suite stays seconds-scale.
var testPhase = mica.PhaseConfig{IntervalLen: 2000, MaxIntervals: 10, MaxK: 4, Seed: 1}

// testBenchmarks is a small cross-suite slice of the registry.
var testBenchmarks = []string{
	"MiBench/sha/large",
	"SPEC2000/gzip/program",
	"MiBench/FFT/fft-large",
}

// buildTestStore characterizes names into a fresh store directory and
// returns the open committed store.
func buildTestStore(t testing.TB, names []string, phase mica.PhaseConfig) *ivstore.Store {
	t.Helper()
	bs := make([]mica.Benchmark, len(names))
	for i, n := range names {
		b, err := mica.BenchmarkByName(n)
		if err != nil {
			t.Fatal(err)
		}
		bs[i] = b
	}
	st, _, err := mica.CharacterizeToStoreCtx(context.Background(), bs,
		mica.PhasePipelineConfig{Phase: phase},
		mica.StoreOptions{Dir: t.TempDir()})
	if err != nil {
		if st != nil {
			st.Close()
		}
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// startServer stands a Server up over st behind an httptest listener.
func startServer(t testing.TB, st *ivstore.Store, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// getJSON GETs url and decodes the JSON body into out, asserting the
// status code.
func getJSON(t testing.TB, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding body: %v", url, err)
		}
	}
	// Read to EOF: a large body streams out while the handler still
	// runs, and the request is only counted once the handler returns,
	// which the end of the body marks.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
}

// postJSON POSTs body to url and decodes the response.
func postJSON(t testing.TB, url string, body any, wantStatus int, out any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding body: %v", url, err)
		}
	}
	return resp
}

// pollJob polls a job until it leaves the queued/running states.
func pollJob(t testing.TB, base, id string) jobResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var jr jobResponse
		getJSON(t, base+"/api/v1/jobs/"+id, http.StatusOK, &jr)
		if jr.Status == JobDone || jr.Status == JobFailed {
			return jr
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in status %s", id, jr.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeCharacterizeMatchesLibrary: a submitted job's result is
// bit-identical to the direct library path (mica.Profile +
// mica.AnalyzePhases) for the same configuration, and duplicate
// submissions collapse onto one execution.
func TestServeCharacterizeMatchesLibrary(t *testing.T) {
	st := buildTestStore(t, testBenchmarks, testPhase)
	s, ts := startServer(t, st, Config{Phase: testPhase})

	bench := testBenchmarks[0]
	var sub jobResponse
	postJSON(t, ts.URL+"/api/v1/characterize", characterizeRequest{Benchmark: bench}, http.StatusAccepted, &sub)
	if sub.Status == JobFailed {
		t.Fatalf("submission failed: %s", sub.Error)
	}
	done := pollJob(t, ts.URL, sub.ID)
	if done.Status != JobDone {
		t.Fatalf("job finished %s: %s", done.Status, done.Error)
	}
	res := done.Result
	if res == nil {
		t.Fatal("done job has no result")
	}

	// The library path, computed directly.
	b, err := mica.BenchmarkByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	phase := testPhase.WithDefaults()
	pr, err := mica.Profile(b, mica.Config{
		InstBudget: phase.IntervalLen * uint64(phase.MaxIntervals),
		Workers:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ph, err := mica.AnalyzePhases(b, phase)
	if err != nil {
		t.Fatal(err)
	}

	if res.Insts != pr.Insts {
		t.Fatalf("served insts %d, library %d", res.Insts, pr.Insts)
	}
	if !reflect.DeepEqual(res.Chars, pr.Chars[:]) {
		t.Fatal("served characteristic vector diverges from mica.Profile")
	}
	if !reflect.DeepEqual(res.HPC, pr.HPC[:]) {
		t.Fatal("served HPC vector diverges from mica.Profile")
	}
	if want := mica.RenderTableI([]mica.ProfileResult{pr}); res.TableI != want {
		t.Fatal("served Table I diverges from RenderTableI")
	}
	if want := mica.RenderTableII([]mica.ProfileResult{pr}); res.TableII != want {
		t.Fatal("served Table II diverges from RenderTableII")
	}
	if res.Phases.K != ph.K || res.Phases.Intervals != len(ph.Intervals) {
		t.Fatalf("served phases K=%d/%d intervals, library K=%d/%d",
			res.Phases.K, res.Phases.Intervals, ph.K, len(ph.Intervals))
	}
	wantTimeline := make([]byte, len(ph.Assign))
	for i, p := range ph.Assign {
		wantTimeline[i] = byte('A' + p%26)
	}
	if res.Phases.Timeline != string(wantTimeline) {
		t.Fatal("served phase timeline diverges from mica.AnalyzePhases")
	}
	if res.Kiviat == nil || len(res.Kiviat.Labels) != len(mica.KeyCharacteristics()) {
		t.Fatal("stored benchmark's job result is missing kiviat data")
	}

	// A duplicate submission dedups onto the completed job.
	var dup jobResponse
	postJSON(t, ts.URL+"/api/v1/characterize", characterizeRequest{Benchmark: bench}, http.StatusAccepted, &dup)
	if dup.ID != sub.ID || !dup.Deduped {
		t.Fatalf("duplicate submission got job %s (deduped=%v), want dedup onto %s", dup.ID, dup.Deduped, sub.ID)
	}
	js := s.jobs.stats()
	if js.Executed != 1 || js.Deduped != 1 {
		t.Fatalf("job stats %+v, want 1 executed / 1 deduped", js)
	}

	// Unknown benchmarks are a 404, not a job.
	postJSON(t, ts.URL+"/api/v1/characterize", characterizeRequest{Benchmark: "no/such/bench"}, http.StatusNotFound, nil)
}

// TestServeSimilarMatchesLibrary: the similarity endpoint's answers
// are bit-identical to a BuildSimilarity index assembled directly
// from the same store, and bad queries map to 4xx.
func TestServeSimilarMatchesLibrary(t *testing.T) {
	st := buildTestStore(t, testBenchmarks, testPhase)
	_, ts := startServer(t, st, Config{Phase: testPhase})

	direct, err := BuildSimilarity(st, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range testBenchmarks {
		var resp similarResponse
		getJSON(t, fmt.Sprintf("%s/api/v1/similar?bench=%s&k=2", ts.URL, bench), http.StatusOK, &resp)
		want, err := direct.Nearest(bench, 2, SpacePCA)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Neighbors, want) {
			t.Fatalf("%s: served neighbors %+v, library %+v", bench, resp.Neighbors, want)
		}
	}
	getJSON(t, ts.URL+"/api/v1/similar?bench=no/such/bench", http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/api/v1/similar", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/api/v1/similar?bench="+testBenchmarks[0]+"&space=phase", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/api/v1/similar?bench="+testBenchmarks[0]+"&k=bogus", http.StatusBadRequest, nil)
}

// TestServeVectorsMatchesStore: the vectors endpoint returns exactly
// the stored interval vectors.
func TestServeVectorsMatchesStore(t *testing.T) {
	st := buildTestStore(t, testBenchmarks, testPhase)
	_, ts := startServer(t, st, Config{Phase: testPhase})

	bench := testBenchmarks[1]
	i, ok := st.ShardIndex(bench)
	if !ok {
		t.Fatalf("%s not in store", bench)
	}
	data, err := st.ReadShard(i)
	if err != nil {
		t.Fatal(err)
	}
	var resp vectorsResponse
	getJSON(t, fmt.Sprintf("%s/api/v1/vectors?bench=%s", ts.URL, bench), http.StatusOK, &resp)
	if len(resp.Vectors) != data.Vecs.Rows || resp.Dims != data.Vecs.Cols {
		t.Fatalf("served %dx%d, store %dx%d", len(resp.Vectors), resp.Dims, data.Vecs.Rows, data.Vecs.Cols)
	}
	for r, row := range resp.Vectors {
		if !reflect.DeepEqual(row, data.Vecs.Row(r)) {
			t.Fatalf("row %d diverges from store", r)
		}
	}
	var sub vectorsResponse
	getJSON(t, fmt.Sprintf("%s/api/v1/vectors?bench=%s&from=2&count=3", ts.URL, bench), http.StatusOK, &sub)
	if len(sub.Vectors) != 3 || !reflect.DeepEqual(sub.Vectors[0], data.Vecs.Row(2)) {
		t.Fatal("from/count window diverges from store rows")
	}
	// A count near MaxInt is clamped to the rows left after from.
	var tail vectorsResponse
	getJSON(t, fmt.Sprintf("%s/api/v1/vectors?bench=%s&from=1&count=%d", ts.URL, bench, math.MaxInt), http.StatusOK, &tail)
	if len(tail.Vectors) != data.Vecs.Rows-1 || !reflect.DeepEqual(tail.Vectors[0], data.Vecs.Row(1)) {
		t.Fatalf("from=1&count=MaxInt served %d rows, want %d", len(tail.Vectors), data.Vecs.Rows-1)
	}
	getJSON(t, ts.URL+"/api/v1/vectors?bench=no/such/bench", http.StatusNotFound, nil)
}

// TestServeCorruptShard is the satellite-2 regression: corrupting one
// shard under a live server turns queries touching it into 500s on
// the affected requests while every other endpoint keeps serving —
// the Reader's former mid-stream panic no longer kills the process.
func TestServeCorruptShard(t *testing.T) {
	st := buildTestStore(t, testBenchmarks, testPhase)
	_, ts := startServer(t, st, Config{Phase: testPhase})

	victim := testBenchmarks[2]
	i, ok := st.ShardIndex(victim)
	if !ok {
		t.Fatal("victim not in store")
	}
	path := filepath.Join(st.Dir(), st.Shards()[i].File)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// Drop the decoded-shard cache so the corruption is actually hit.
	st.SetCacheBytes(0)

	var errResp map[string]string
	getJSON(t, fmt.Sprintf("%s/api/v1/vectors?bench=%s", ts.URL, victim), http.StatusInternalServerError, &errResp)
	if errResp["error"] == "" {
		t.Fatal("corrupt-shard 500 carries no error message")
	}
	// Other benchmarks and endpoints are unaffected; the process is up.
	getJSON(t, fmt.Sprintf("%s/api/v1/vectors?bench=%s", ts.URL, testBenchmarks[0]), http.StatusOK, nil)
	getJSON(t, fmt.Sprintf("%s/api/v1/similar?bench=%s&k=1", ts.URL, victim), http.StatusOK, nil)
	getJSON(t, ts.URL+"/healthz", http.StatusOK, nil)

	// The failed decode is accounted as an error, not a decode.
	cs := st.CacheStats()
	if cs.DecodeErrors == 0 {
		t.Fatalf("cache stats %+v: corrupt decode not counted", cs)
	}
	if cs.Decodes != cs.Misses-cs.DecodeErrors {
		t.Fatalf("cache stats %+v: Decodes != Misses - DecodeErrors", cs)
	}
}

// TestServeBackpressureAndShutdown: a full queue answers 429 with
// Retry-After, and a closing server answers 503.
func TestServeBackpressureAndShutdown(t *testing.T) {
	st := buildTestStore(t, testBenchmarks, testPhase)
	s, err := New(st, Config{Phase: testPhase})
	if err != nil {
		t.Fatal(err)
	}
	// Replace the job manager with one worker, one queue slot and a
	// gated job body, so saturation is deterministic. The swap happens
	// before the listener starts, so no handler observes it mid-write.
	release := make(chan struct{})
	s.jobs.close()
	s.jobs = newJobManager(1, 1, 0, newServerMetrics(), func(worker int, b mica.Benchmark) (*CharacterizationResult, error) {
		<-release
		return &CharacterizationResult{Benchmark: b.Name()}, nil
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	// First job occupies the worker, second fills the queue slot.
	var j1, j2 jobResponse
	postJSON(t, ts.URL+"/api/v1/characterize", characterizeRequest{Benchmark: testBenchmarks[0]}, http.StatusAccepted, &j1)
	waitForRunning(t, s)
	postJSON(t, ts.URL+"/api/v1/characterize", characterizeRequest{Benchmark: testBenchmarks[1]}, http.StatusAccepted, &j2)

	// Third distinct submission: queue full → 429 + Retry-After.
	resp := postJSON(t, ts.URL+"/api/v1/characterize", characterizeRequest{Benchmark: testBenchmarks[2]}, http.StatusTooManyRequests, nil)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	// A duplicate of an accepted job still dedups — no new slot needed.
	var dup jobResponse
	postJSON(t, ts.URL+"/api/v1/characterize", characterizeRequest{Benchmark: testBenchmarks[0]}, http.StatusAccepted, &dup)
	if !dup.Deduped || dup.ID != j1.ID {
		t.Fatalf("duplicate during saturation: got %+v, want dedup onto %s", dup, j1.ID)
	}

	// Graceful shutdown: close drains the accepted jobs...
	close(release)
	s.Close()
	if got := pollJob(t, ts.URL, j1.ID); got.Status != JobDone {
		t.Fatalf("drained job %s finished %s", j1.ID, got.Status)
	}
	if got := pollJob(t, ts.URL, j2.ID); got.Status != JobDone {
		t.Fatalf("drained job %s finished %s", j2.ID, got.Status)
	}
	// ...and later submissions are refused with 503.
	postJSON(t, ts.URL+"/api/v1/characterize", characterizeRequest{Benchmark: testBenchmarks[2]}, http.StatusServiceUnavailable, nil)
}

// waitForRunning spins until the job manager reports a running job.
func waitForRunning(t testing.TB, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.jobs.stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no job started running")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeStats: the stats endpoint reports per-endpoint counters,
// job stats and the store's cache stats.
func TestServeStats(t *testing.T) {
	st := buildTestStore(t, testBenchmarks, testPhase)
	_, ts := startServer(t, st, Config{Phase: testPhase})

	getJSON(t, fmt.Sprintf("%s/api/v1/similar?bench=%s&k=1", ts.URL, testBenchmarks[0]), http.StatusOK, nil)
	getJSON(t, ts.URL+"/api/v1/similar", http.StatusBadRequest, nil)
	var sr statsResponse
	getJSON(t, ts.URL+"/api/v1/stats", http.StatusOK, &sr)
	sim := sr.Endpoints["similar"]
	if sim.Count != 2 || sim.Errors != 1 {
		t.Fatalf("similar endpoint stats %+v, want 2 requests / 1 error", sim)
	}
	if sim.QPS <= 0 || sim.P99Ms < sim.P50Ms {
		t.Fatalf("similar endpoint stats %+v: implausible latency summary", sim)
	}
	if sr.Store.Decodes == 0 {
		t.Fatalf("store cache stats %+v: similarity build decoded nothing?", sr.Store)
	}
	if sr.UptimeSeconds <= 0 {
		t.Fatal("non-positive uptime")
	}
}

// testBench builds a synthetic benchmark for jobManager unit tests;
// the injected run func never instantiates it.
func testBench(name string) mica.Benchmark {
	return mica.TraceBenchmark("test/"+name+"/in", "")
}

// TestJobManagerFailureRetry: a failed job releases its dedup key so
// the next submission retries, while queued/running/done jobs hold it.
func TestJobManagerFailureRetry(t *testing.T) {
	calls := 0
	fail := true
	m := newJobManager(1, 4, 0, newServerMetrics(), func(worker int, b mica.Benchmark) (*CharacterizationResult, error) {
		calls++
		if fail {
			return nil, errors.New("injected failure")
		}
		return &CharacterizationResult{Benchmark: b.Name()}, nil
	})
	defer m.close()

	j1, deduped, err := m.submit(testBench("b"), "key")
	if err != nil || deduped {
		t.Fatalf("first submit: %v deduped=%v", err, deduped)
	}
	waitStatus(t, m, j1.ID, JobFailed)

	fail = false
	j2, deduped, err := m.submit(testBench("b"), "key")
	if err != nil || deduped {
		t.Fatalf("retry submit: %v deduped=%v", err, deduped)
	}
	if j2.ID == j1.ID {
		t.Fatal("retry reused the failed job")
	}
	waitStatus(t, m, j2.ID, JobDone)
	if _, deduped, _ := m.submit(testBench("b"), "key"); !deduped {
		t.Fatal("submission after success did not dedup")
	}
	if calls != 2 {
		t.Fatalf("run called %d times, want 2", calls)
	}
}

// TestJobManagerPanicIsolation: a panicking characterization marks the
// job failed and the manager keeps serving.
func TestJobManagerPanicIsolation(t *testing.T) {
	m := newJobManager(1, 4, 0, newServerMetrics(), func(worker int, b mica.Benchmark) (*CharacterizationResult, error) {
		if b.Program == "bad" {
			panic("characterization exploded")
		}
		return &CharacterizationResult{Benchmark: b.Name()}, nil
	})
	defer m.close()
	bad, _, err := m.submit(testBench("bad"), "bad-key")
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, bad.ID, JobFailed)
	got, _ := m.get(bad.ID)
	if got.Error == "" {
		t.Fatal("panicked job carries no error")
	}
	good, _, err := m.submit(testBench("good"), "good-key")
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, good.ID, JobDone)
}

// TestJobManagerRetention: finished jobs beyond the retention bound
// are evicted, in-flight dedup mappings are never evicted.
func TestJobManagerRetention(t *testing.T) {
	m := newJobManager(1, 16, 2, newServerMetrics(), func(worker int, b mica.Benchmark) (*CharacterizationResult, error) {
		return &CharacterizationResult{Benchmark: b.Name()}, nil
	})
	var ids []string
	for i := 0; i < 5; i++ {
		j, _, err := m.submit(testBench(fmt.Sprintf("b%d", i)), fmt.Sprintf("key%d", i))
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, m, j.ID, JobDone)
		ids = append(ids, j.ID)
	}
	m.close()
	if _, ok := m.get(ids[0]); ok {
		t.Fatal("oldest finished job survived retention")
	}
	if _, ok := m.get(ids[4]); !ok {
		t.Fatal("newest finished job was evicted")
	}
}

// waitStatus polls the manager until job id reaches want.
func waitStatus(t testing.TB, m *jobManager, id string, want JobStatus) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, ok := m.get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if j.Status == want {
			return
		}
		if j.Status == JobDone || j.Status == JobFailed {
			t.Fatalf("job %s finished %s, want %s", id, j.Status, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, j.Status, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// postRaw POSTs raw bytes to url and asserts the status code,
// returning the decoded JSON body (when out is non-nil) and response.
func postRaw(t testing.TB, url string, body []byte, wantStatus int, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s (%d bytes): status %d, want %d", url, len(body), resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding body: %v", url, err)
		}
	}
	return resp
}

// TestServeTraceUpload: an uploaded recorded trace is validated,
// persisted and characterized through the normal job path, and the
// result is bit-identical to characterizing the live benchmark the
// trace was recorded from. Oversized and corrupt uploads are refused
// with 4xx and the daemon keeps serving.
func TestServeTraceUpload(t *testing.T) {
	st := buildTestStore(t, testBenchmarks, testPhase)

	// Record the trace the upload will carry: the same instruction
	// window the server's job body profiles.
	bench := testBenchmarks[0]
	b, err := mica.BenchmarkByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	phase := testPhase.WithDefaults()
	budget := phase.IntervalLen * uint64(phase.MaxIntervals)
	tracePath := filepath.Join(t.TempDir(), "rec.trc")
	if _, err := mica.RecordTrace(b, tracePath, budget); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}

	s, ts := startServer(t, st, Config{
		Phase:         testPhase,
		TraceDir:      t.TempDir(),
		MaxTraceBytes: int64(len(raw)),
	})

	// Upload → accepted job → done, with the event count surfaced.
	var sub jobResponse
	resp := postRaw(t, ts.URL+"/api/v1/traces?name=sha", raw, http.StatusAccepted, &sub)
	if got := resp.Header.Get("X-Trace-Events"); got != fmt.Sprint(budget) {
		t.Fatalf("X-Trace-Events = %q, want %d", got, budget)
	}
	if !strings.HasPrefix(sub.Benchmark, "trace/sha/") {
		t.Fatalf("upload benchmark name %q, want trace/sha/<hash>", sub.Benchmark)
	}
	done := pollJob(t, ts.URL, sub.ID)
	if done.Status != JobDone {
		t.Fatalf("upload job finished %s: %s", done.Status, done.Error)
	}
	res := done.Result
	if res == nil {
		t.Fatal("done upload job has no result")
	}

	// The replayed characterization is bit-identical to the live
	// benchmark's library path at the same budget.
	pr, err := mica.Profile(b, mica.Config{InstBudget: budget, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ph, err := mica.AnalyzePhases(b, phase)
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts != pr.Insts {
		t.Fatalf("uploaded-trace insts %d, live %d", res.Insts, pr.Insts)
	}
	if !reflect.DeepEqual(res.Chars, pr.Chars[:]) {
		t.Fatal("uploaded-trace characteristic vector diverges from live VM")
	}
	if !reflect.DeepEqual(res.HPC, pr.HPC[:]) {
		t.Fatal("uploaded-trace HPC vector diverges from live VM")
	}
	if res.Phases.K != ph.K || res.Phases.Intervals != len(ph.Intervals) {
		t.Fatalf("uploaded-trace phases K=%d/%d, live K=%d/%d",
			res.Phases.K, res.Phases.Intervals, ph.K, len(ph.Intervals))
	}
	wantTimeline := make([]byte, len(ph.Assign))
	for i, p := range ph.Assign {
		wantTimeline[i] = byte('A' + p%26)
	}
	if res.Phases.Timeline != string(wantTimeline) {
		t.Fatal("uploaded-trace phase timeline diverges from live VM")
	}

	// Re-uploading identical bytes dedups onto the same job.
	var dup jobResponse
	postRaw(t, ts.URL+"/api/v1/traces?name=sha", raw, http.StatusAccepted, &dup)
	if dup.ID != sub.ID || !dup.Deduped {
		t.Fatalf("identical re-upload got job %s (deduped=%v), want dedup onto %s", dup.ID, dup.Deduped, sub.ID)
	}

	// Oversized upload → 413; corrupt payload → 400; both leave the
	// daemon serving.
	postRaw(t, ts.URL+"/api/v1/traces", append(append([]byte(nil), raw...), 0), http.StatusRequestEntityTooLarge, nil)
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0xFF
	postRaw(t, ts.URL+"/api/v1/traces", bad, http.StatusBadRequest, nil)
	postRaw(t, ts.URL+"/api/v1/traces", []byte("not a trace"), http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/healthz", http.StatusOK, nil)
	if js := s.jobs.stats(); js.Executed != 1 {
		t.Fatalf("job stats %+v, want exactly 1 executed", js)
	}

	// A server without a trace directory refuses uploads outright.
	_, ts2 := startServer(t, st, Config{Phase: testPhase})
	postRaw(t, ts2.URL+"/api/v1/traces", raw, http.StatusNotFound, nil)
}

// staticsTrace encodes a well-formed trace of one block that defines n
// static instructions and executes none of them.
func staticsTrace(n int) []byte {
	payload := binary.AppendUvarint(nil, uint64(n))
	for i := 0; i < n; i++ {
		payload = binary.AppendUvarint(payload, uint64(i))
		payload = append(payload, byte(isa.OpAddQ), 0) // no operands
	}
	payload = binary.AppendUvarint(payload, 0) // no events
	raw := append([]byte(trace.Magic), 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(raw[8:], trace.Version)
	raw = binary.LittleEndian.AppendUint32(raw, uint32(len(payload)))
	raw = binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(payload))
	raw = append(raw, payload...)
	raw = binary.LittleEndian.AppendUint32(raw, 0xFFFFFFFF)
	return binary.LittleEndian.AppendUint64(raw, 0)
}

// TestServeTraceUploadOverStaticCap: a trace defining one static
// instruction more than the format's bound of 1<<14 fails to decode,
// while one at the bound decodes, and its upload is refused with the
// same 400 as any other corrupt trace.
func TestServeTraceUploadOverStaticCap(t *testing.T) {
	if _, err := mica.ValidateTrace(staticsTrace(1 << 14)); err != nil {
		t.Fatalf("a trace at the static-record bound fails to decode: %v", err)
	}
	over := staticsTrace(1<<14 + 1)
	if _, err := mica.ValidateTrace(over); err == nil || !strings.Contains(err.Error(), "static records") {
		t.Fatalf("ValidateTrace over the static-record bound = %v, want an error naming it", err)
	}
	st := buildTestStore(t, testBenchmarks[:2], testPhase)
	_, ts := startServer(t, st, Config{Phase: testPhase, TraceDir: t.TempDir()})
	postRaw(t, ts.URL+"/api/v1/traces?name=wide", over, http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/healthz", http.StatusOK, nil)
}
