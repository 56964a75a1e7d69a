package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mica"
	"mica/internal/obs"
)

// TestStatsJSONShape pins the /api/v1/stats wire format: the exact
// field names PR 8 shipped must survive the registry-backed rewrite,
// because dashboards consume them by name.
func TestStatsJSONShape(t *testing.T) {
	st := buildTestStore(t, testBenchmarks[:2], testPhase)
	_, ts := startServer(t, st, Config{Phase: testPhase})

	// Generate one request so the endpoint sections carry data.
	getJSON(t, ts.URL+"/api/v1/benchmarks", http.StatusOK, nil)

	resp, err := http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"uptime_seconds", "endpoints", "jobs", "store_cache"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("stats payload is missing top-level %q", key)
		}
	}

	var eps map[string]map[string]json.Number
	if err := json.Unmarshal(raw["endpoints"], &eps); err != nil {
		t.Fatal(err)
	}
	// Every wrapped route appears from the first scrape, hit or not.
	for _, ep := range []string{"benchmarks", "characterize", "traces", "jobs", "similar", "vectors", "stats", "version", "metrics"} {
		fields, ok := eps[ep]
		if !ok {
			t.Errorf("endpoints section is missing %q", ep)
			continue
		}
		for _, f := range []string{"count", "errors", "qps", "mean_ms", "p50_ms", "p99_ms"} {
			if _, ok := fields[f]; !ok {
				t.Errorf("endpoint %q is missing field %q", ep, f)
			}
		}
	}
	if n, _ := eps["benchmarks"]["count"].Int64(); n != 1 {
		t.Errorf("benchmarks count = %v, want 1", eps["benchmarks"]["count"])
	}

	var jobs map[string]json.Number
	if err := json.Unmarshal(raw["jobs"], &jobs); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"submitted", "rejected", "executed", "deduped", "done", "failed", "queued", "running"} {
		if _, ok := jobs[f]; !ok {
			t.Errorf("jobs section is missing field %q", f)
		}
	}

	var store map[string]json.Number
	if err := json.Unmarshal(raw["store_cache"], &store); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"budget_bytes", "bytes", "peak_bytes", "hits", "misses", "decodes", "decode_errors", "error_waits", "evictions"} {
		if _, ok := store[f]; !ok {
			t.Errorf("store_cache section is missing field %q", f)
		}
	}
}

// TestStatsPercentilesFromHistogram: the p50/p99 the stats endpoint
// reports come from the full-history histogram, not a sample window —
// seed the latency histogram directly and check the estimates land in
// the right buckets.
func TestStatsPercentilesFromHistogram(t *testing.T) {
	m := newServerMetrics()
	m.register("similar")
	// 95 fast requests and 5 slow ones: p50 must stay in the fast
	// bucket, p99 must reach the slow one.
	for i := 0; i < 95; i++ {
		m.observe("similar", 2*time.Millisecond, false)
	}
	for i := 0; i < 5; i++ {
		m.observe("similar", 4*time.Second, false)
	}
	s := m.snapshot("similar", time.Minute)
	if s.Count != 100 || s.Errors != 0 {
		t.Fatalf("snapshot %+v, want 100 requests", s)
	}
	if s.P50Ms < 1 || s.P50Ms > 2.5 {
		t.Errorf("p50 = %v ms, want ~2ms", s.P50Ms)
	}
	if s.P99Ms < 1000 {
		t.Errorf("p99 = %v ms, want in the seconds bucket", s.P99Ms)
	}
	if s.MeanMs < 195 || s.MeanMs > 210 {
		t.Errorf("mean = %v ms, want ~202ms", s.MeanMs)
	}
	if qps := s.QPS; qps < 1.6 || qps > 1.7 {
		t.Errorf("qps = %v, want 100/60s", qps)
	}
}

// TestServeMetricNames holds the per-server registry to the same
// mica_<layer>_<name> contract the process-global metrics follow (the
// root-level lint cannot see this registry — it is per-Server).
func TestServeMetricNames(t *testing.T) {
	m := newServerMetrics()
	names := m.reg.Names()
	if len(names) == 0 {
		t.Fatal("server registry is empty")
	}
	for _, name := range names {
		if !obs.ValidName(name) {
			t.Errorf("metric %q violates the mica_<layer>_<name> snake_case contract", name)
		}
		if layer := obs.LayerOf(name); layer != "serve" {
			t.Errorf("metric %q has layer %q, want serve", name, layer)
		}
	}
}

// TestServeVersion: the build-info endpoint answers with the binary's
// identity fields.
func TestServeVersion(t *testing.T) {
	st := buildTestStore(t, testBenchmarks[:2], testPhase)
	_, ts := startServer(t, st, Config{Phase: testPhase})
	var v obs.BuildInfo
	getJSON(t, ts.URL+"/api/v1/version", http.StatusOK, &v)
	if v.Version == "" {
		t.Fatal("version endpoint reports no version")
	}
}

// TestMetricsExposition: GET /metrics serves well-formed Prometheus
// text exposition covering every layer the issue names — serve
// endpoints, job queue, ivstore cache, pool, and pipeline stage
// histograms.
func TestMetricsExposition(t *testing.T) {
	st := buildTestStore(t, testBenchmarks[:2], testPhase)
	_, ts := startServer(t, st, Config{Phase: testPhase})

	// Drive one job through so the stage and job metrics are non-zero.
	var sub jobResponse
	postJSON(t, ts.URL+"/api/v1/characterize", characterizeRequest{Benchmark: testBenchmarks[0]}, http.StatusAccepted, &sub)
	pollJob(t, ts.URL, sub.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	obs.AssertWellFormedExposition(t, text)
	for _, want := range []string{
		`mica_serve_requests_total{endpoint="characterize"} 1`,
		"mica_serve_request_seconds_bucket",
		"mica_serve_jobs_executed_total",
		"mica_ivstore_cache_decodes_total",
		"mica_pool_items_total",
		`mica_stage_duration_seconds_bucket{stage="phases.characterize"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestJobStatsMatchMetrics: the /api/v1/stats job counters and the
// mica_serve_jobs_* series in /metrics are one source, so after a job
// mix with a deduplicated, a rejected and a failed submission they
// report the same numbers.
func TestJobStatsMatchMetrics(t *testing.T) {
	st := buildTestStore(t, testBenchmarks, testPhase)
	s, err := New(st, Config{Phase: testPhase})
	if err != nil {
		t.Fatal(err)
	}
	// One worker, one queue slot and a gated job body make the
	// rejection deterministic; the last benchmark's job fails.
	release := make(chan struct{})
	s.jobs.close()
	s.jobs = newJobManager(1, 1, 0, s.met, func(worker int, b mica.Benchmark) (*CharacterizationResult, error) {
		<-release
		if b.Name() == testBenchmarks[1] {
			return nil, fmt.Errorf("injected failure")
		}
		return &CharacterizationResult{Benchmark: b.Name()}, nil
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	submit := func(bench string, status int) jobResponse {
		var jr jobResponse
		out := any(&jr)
		if status != http.StatusAccepted {
			out = nil
		}
		postJSON(t, ts.URL+"/api/v1/characterize", characterizeRequest{Benchmark: bench}, status, out)
		return jr
	}
	j1 := submit(testBenchmarks[0], http.StatusAccepted)
	waitForRunning(t, s)
	j2 := submit(testBenchmarks[1], http.StatusAccepted)
	submit(testBenchmarks[2], http.StatusTooManyRequests)
	if dup := submit(testBenchmarks[0], http.StatusAccepted); !dup.Deduped {
		t.Fatal("duplicate submission was not deduplicated")
	}
	close(release)
	if got := pollJob(t, ts.URL, j1.ID); got.Status != JobDone {
		t.Fatalf("job %s finished %s, want done", j1.ID, got.Status)
	}
	if got := pollJob(t, ts.URL, j2.ID); got.Status != JobFailed {
		t.Fatalf("job %s finished %s, want failed", j2.ID, got.Status)
	}

	var sr statsResponse
	getJSON(t, ts.URL+"/api/v1/stats", http.StatusOK, &sr)
	want := JobStats{Submitted: 3, Rejected: 1, Executed: 2, Deduped: 1, Done: 1, Failed: 1}
	if sr.Jobs != want {
		t.Fatalf("stats jobs %+v, want %+v", sr.Jobs, want)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "mica_serve_jobs_") {
			series[name] = val
		}
	}
	for name, got := range map[string]uint64{
		"mica_serve_jobs_submitted_total": sr.Jobs.Submitted,
		"mica_serve_jobs_rejected_total":  sr.Jobs.Rejected,
		"mica_serve_jobs_executed_total":  sr.Jobs.Executed,
		"mica_serve_jobs_deduped_total":   sr.Jobs.Deduped,
		"mica_serve_jobs_done_total":      sr.Jobs.Done,
		"mica_serve_jobs_failed_total":    sr.Jobs.Failed,
	} {
		if series[name] != fmt.Sprint(got) {
			t.Errorf("%s = %q in /metrics, %d in /api/v1/stats", name, series[name], got)
		}
	}
}

// TestMetricsConcurrentScrape hammers /metrics while 100+ requests run
// against /api/v1/characterize and /api/v1/similar — under -race (the
// CI serve race step runs this package) any unsynchronized registry
// access between scrapers, handlers and job workers surfaces here.
func TestMetricsConcurrentScrape(t *testing.T) {
	st := buildTestStore(t, testBenchmarks, testPhase)
	_, ts := startServer(t, st, Config{Phase: testPhase, Workers: 2, QueueCap: 256})

	client := &http.Client{Timeout: 30 * time.Second}
	get := func(path string) (int, string, error) {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b), err
	}

	const traffic = 120
	var wg sync.WaitGroup
	errc := make(chan error, traffic+32)
	for i := 0; i < traffic; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				bench := testBenchmarks[i%len(testBenchmarks)]
				if _, _, err := get("/api/v1/similar?bench=" + bench + "&k=2"); err != nil {
					errc <- err
				}
				return
			}
			resp, err := client.Post(ts.URL+"/api/v1/characterize", "application/json",
				strings.NewReader(fmt.Sprintf(`{"benchmark":%q}`, testBenchmarks[i%len(testBenchmarks)])))
			if err != nil {
				errc <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(i)
	}
	// Scrapers run concurrently with the traffic above; every scrape
	// must be well-formed even mid-flight.
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, text, err := get("/metrics")
			if err != nil {
				errc <- err
				return
			}
			if status != http.StatusOK {
				errc <- fmt.Errorf("scrape status %d", status)
				return
			}
			obs.AssertWellFormedExposition(t, text)
			if _, _, err := get("/api/v1/stats"); err != nil {
				errc <- err
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
