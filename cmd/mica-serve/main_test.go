package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"mica"
	"mica/internal/obs"
)

func TestValidateFlags(t *testing.T) {
	ok := cliFlags{
		storeDir: "phases.ivs", addr: "127.0.0.1:8344", queueCap: 64,
		retain: 1024, pcaVar: 0.9,
	}
	cases := []struct {
		name    string
		mutate  func(*cliFlags)
		wantErr string
	}{
		{"defaults", func(f *cliFlags) {}, ""},
		{"no store", func(f *cliFlags) { f.storeDir = "" }, "-store"},
		{"no addr", func(f *cliFlags) { f.addr = "" }, "-addr"},
		{"zero queue", func(f *cliFlags) { f.queueCap = 0 }, "-queue"},
		{"negative queue", func(f *cliFlags) { f.queueCap = -3 }, "-queue"},
		{"zero retain", func(f *cliFlags) { f.retain = 0 }, "-retain"},
		{"zero pcavar", func(f *cliFlags) { f.pcaVar = 0 }, "-pcavar"},
		{"pcavar above one", func(f *cliFlags) { f.pcaVar = 1.5 }, "-pcavar"},
		{"tracedir", func(f *cliFlags) { f.traceDir = "td"; f.maxUpload = 1 << 20 }, ""},
		{"tracedir zero maxupload", func(f *cliFlags) { f.traceDir = "td" }, "-maxupload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := ok
			tc.mutate(&f)
			err := validateFlags(f)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid flags rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want mention of %s", err, tc.wantErr)
			}
		})
	}
}

// TestRunServesAndDrains boots the daemon end to end on a tiny
// two-benchmark store — warm build, joint vocabulary, live HTTP — then
// cancels the context and verifies the graceful drain.
func TestRunServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	fl := cliFlags{
		storeDir: t.TempDir(), addr: "127.0.0.1:0", queueCap: 8,
		retain: 16, pcaVar: 0.9, pprof: true,
	}
	phase := mica.PhaseConfig{IntervalLen: 1_000, MaxIntervals: 8, MaxK: 3, Seed: 1}

	addrCh := make(chan string, 1)
	runErr := make(chan error, 1)
	out := captureStdout(t)
	go func() {
		runErr <- run(ctx, fl, phase,
			"MiBench/sha/large,SPEC2000/gzip/program", 2, false,
			func(addr string) { addrCh <- addr })
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case err := <-runErr:
		t.Fatalf("run exited before serving: %v", err)
	case <-time.After(2 * time.Minute):
		t.Fatal("daemon never came up")
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	// A similarity query against the live daemon answers from the
	// two-benchmark store.
	resp, err = http.Get("http://" + addr + "/api/v1/similar?bench=MiBench/sha/large&k=1")
	if err != nil {
		t.Fatal(err)
	}
	var sim struct {
		Neighbors []struct {
			Name string `json:"name"`
		} `json:"neighbors"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sim)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("similar: status %d, err %v", resp.StatusCode, err)
	}
	if len(sim.Neighbors) != 1 || sim.Neighbors[0].Name != "SPEC2000/gzip/program" {
		t.Fatalf("similar neighbors %v, want the other stored benchmark", sim.Neighbors)
	}

	// The daemon's /metrics scrape must be well-formed Prometheus text
	// exposition and cover the layers the startup build exercised.
	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d, err %v", resp.StatusCode, err)
	}
	obs.AssertWellFormedExposition(t, string(metrics))
	for _, want := range []string{"mica_serve_requests_total", "mica_ivstore_cache_decodes_total", "mica_stage_runs_total"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics scrape missing %q", want)
		}
	}

	// pprof was requested, so the profiling index must answer on the
	// same address.
	resp, err = http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof: status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("daemon never drained")
	}

	got := out()
	for _, want := range []string{
		"store ready",
		"joint vocabulary: K=",
		"serving 2 benchmarks",
		"drained; store closed cleanly",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// captureStdout redirects stdout until the returned function is
// called, which restores it and hands back everything printed.
func captureStdout(t *testing.T) func() string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	return func() string {
		w.Close()
		os.Stdout = old
		return <-done
	}
}
