package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"mica"
)

// loadPhase keeps the registry-scale load test seconds-scale: 8
// intervals of 500 instructions per benchmark.
var loadPhase = mica.PhaseConfig{IntervalLen: 500, MaxIntervals: 8, MaxK: 3, Seed: 7}

// TestServeLoad is the end-to-end load test from the PR's acceptance
// criteria: against a registry-scale store (every registry benchmark),
// it drives 500+ concurrent similarity queries interleaved with
// sustained characterization traffic full of duplicate submissions,
// asserting zero races (run under -race in CI), responses
// bit-identical to the library path, and exactly one characterization
// executed per distinct dedup key.
func TestServeLoad(t *testing.T) {
	bs := mica.Benchmarks()
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.Name()
	}
	st := buildTestStore(t, names, loadPhase)
	s, ts := startServer(t, st, Config{Phase: loadPhase})

	// The library oracle, computed from the same store.
	direct, err := BuildSimilarity(st, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	const (
		simClients   = 32
		simPerClient = 16 // 512 concurrent similarity queries in total
		jobBenches   = 6
		dupsPerBench = 5 // 30 submissions collapsing onto 6 jobs
	)

	var wg sync.WaitGroup
	errs := make(chan error, simClients+jobBenches*dupsPerBench)

	// Concurrent similarity traffic, every answer checked against the
	// library path bit-for-bit.
	for c := 0; c < simClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := ts.Client()
			for q := 0; q < simPerClient; q++ {
				bench := names[(c*simPerClient+q*31)%len(names)]
				k := 1 + (c+q)%8
				resp, err := client.Get(fmt.Sprintf("%s/api/v1/similar?bench=%s&k=%d", ts.URL, bench, k))
				if err != nil {
					errs <- err
					return
				}
				var got similarResponse
				err = decodeBody(resp, http.StatusOK, &got)
				if err != nil {
					errs <- fmt.Errorf("similar %s k=%d: %w", bench, k, err)
					return
				}
				want, err := direct.Nearest(bench, k, SpacePCA)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got.Neighbors, want) {
					errs <- fmt.Errorf("similar %s k=%d: served answer diverges from library path", bench, k)
					return
				}
			}
		}(c)
	}

	// Sustained characterization traffic: dupsPerBench concurrent
	// submissions per benchmark, all racing on the same dedup key.
	jobIDs := make([][]string, jobBenches)
	for b := 0; b < jobBenches; b++ {
		jobIDs[b] = make([]string, dupsPerBench)
		for d := 0; d < dupsPerBench; d++ {
			wg.Add(1)
			go func(b, d int) {
				defer wg.Done()
				body, _ := json.Marshal(characterizeRequest{Benchmark: names[b*7]})
				resp, err := ts.Client().Post(ts.URL+"/api/v1/characterize", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var jr jobResponse
				if err := decodeBody(resp, http.StatusAccepted, &jr); err != nil {
					errs <- fmt.Errorf("characterize %s: %w", names[b*7], err)
					return
				}
				jobIDs[b][d] = jr.ID
			}(b, d)
		}
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every duplicate submission landed on the same job, and exactly
	// one characterization ran per distinct key — the profiler-call
	// counter of the serving layer.
	for b := 0; b < jobBenches; b++ {
		for d := 1; d < dupsPerBench; d++ {
			if jobIDs[b][d] != jobIDs[b][0] {
				t.Fatalf("bench %d: submissions split across jobs %s and %s", b, jobIDs[b][0], jobIDs[b][d])
			}
		}
		if done := pollJob(t, ts.URL, jobIDs[b][0]); done.Status != JobDone {
			t.Fatalf("job %s finished %s: %s", jobIDs[b][0], done.Status, done.Error)
		}
	}
	js := s.jobs.stats()
	if js.Executed != jobBenches {
		t.Fatalf("job stats %+v: %d characterizations executed, want exactly %d (dedup broken)", js, js.Executed, jobBenches)
	}
	if js.Deduped != jobBenches*(dupsPerBench-1) {
		t.Fatalf("job stats %+v: %d deduplicated, want %d", js, js.Deduped, jobBenches*(dupsPerBench-1))
	}

	// One job result checked bit-identical against the library path.
	done := pollJob(t, ts.URL, jobIDs[0][0])
	b0, err := mica.BenchmarkByName(done.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	phase := loadPhase.WithDefaults()
	pr, err := mica.Profile(b0, mica.Config{
		InstBudget: phase.IntervalLen * uint64(phase.MaxIntervals),
		Workers:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(done.Result.Chars, pr.Chars[:]) {
		t.Fatal("served job vector diverges from mica.Profile")
	}

	// The stats endpoint saw the traffic and the store stayed healthy.
	var sr statsResponse
	getJSON(t, ts.URL+"/api/v1/stats", http.StatusOK, &sr)
	sim := sr.Endpoints["similar"]
	if sim.Count < simClients*simPerClient {
		t.Fatalf("similar endpoint served %d requests, want >= %d", sim.Count, simClients*simPerClient)
	}
	if sim.Errors != 0 || sim.QPS <= 0 {
		t.Fatalf("similar endpoint stats %+v: errors or zero QPS under load", sim)
	}
	if sr.Store.DecodeErrors != 0 {
		t.Fatalf("store cache stats %+v: decode errors on a healthy store", sr.Store)
	}
	if sr.Store.Decodes != sr.Store.Misses-sr.Store.DecodeErrors {
		t.Fatalf("store cache stats %+v: accounting invariant broken", sr.Store)
	}
	dedupRate := float64(js.Deduped) / float64(js.Submitted)
	t.Logf("load: %d similarity queries at %.0f QPS (p50 %.2fms, p99 %.2fms), %d/%d submissions deduplicated (%.0f%%)",
		sim.Count, sim.QPS, sim.P50Ms, sim.P99Ms, js.Deduped, js.Submitted, 100*dedupRate)
}

// decodeBody asserts a response status and decodes its JSON body.
func decodeBody(resp *http.Response, wantStatus int, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("status %d, want %d", resp.StatusCode, wantStatus)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
