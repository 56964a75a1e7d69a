// Trace ingestion, end to end: record a benchmark's dynamic
// instruction stream to a durable .trc file, replay the file through
// the identical characterization pipeline (bit-identical to the live
// VM), then upload the raw bytes to a serving daemon and poll the
// characterization job it queues.
//
//	go run ./examples/trace
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"mica"
	"mica/internal/serve"
)

func main() {
	dir, err := os.MkdirTemp("", "mica-trace-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Record: run the embedded VM once, streaming its events into a
	// versioned, CRC32-checked trace file (tmp -> fsync -> rename, so
	// the committed name only ever holds a complete trace).
	const budget = 50_000
	b, err := mica.BenchmarkByName("MiBench/sha/large")
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(dir, "sha.trc")
	n, err := mica.RecordTrace(b, path, budget)
	if err != nil {
		log.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d instructions of %s to %s (%d bytes, %.2f bytes/inst)\n\n",
		n, b.Name(), path, fi.Size(), float64(fi.Size())/float64(n))

	// 2. Replay: a trace-backed Benchmark flows through the same
	// pipelines as a live one. The characterization must be
	// bit-identical — same 47-dim vector, same HPC counters.
	cfg := mica.DefaultConfig()
	cfg.InstBudget = budget
	live, err := mica.Profile(b, cfg)
	if err != nil {
		log.Fatal(err)
	}
	replayed, err := mica.Profile(mica.TraceBenchmark(b.Name(), path), cfg)
	if err != nil {
		log.Fatal(err)
	}
	if live.Chars != replayed.Chars || live.HPC != replayed.HPC {
		log.Fatal("replay diverged from the live VM — this is a bug")
	}
	fmt.Printf("replayed the file through mica.Profile: all %d characteristics and %d HPC\n",
		mica.NumChars, mica.NumHPCMetrics)
	fmt.Printf("counters are bit-identical to the live VM (e.g. ILP-32 %.4f, IPC EV56 %.4f)\n\n",
		replayed.Chars[mica.NumChars-1], replayed.HPC[0])

	// 3. Serve: a daemon with -tracedir enabled accepts raw trace
	// uploads, validates the container before touching disk, and queues
	// a normal characterization job under a content-addressed name.
	phase := mica.PhaseConfig{IntervalLen: 5_000, MaxIntervals: 10, MaxK: 3, Seed: 1}
	b2, err := mica.BenchmarkByName("CommBench/drr/drr")
	if err != nil {
		log.Fatal(err)
	}
	// The serving store is built the way mica-serve starts: one joint,
	// store-backed Run, then the committed store reopened for serving.
	storeDir := filepath.Join(dir, "store")
	rep, err := mica.Run(context.Background(), mica.Request{
		Benchmarks: []mica.Benchmark{b, b2},
		Joint:      true,
		Phases:     &mica.PhasePipelineConfig{Phase: phase},
		Store:      mica.StoreOptions{Dir: storeDir, Incremental: true, WarmStart: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	st, err := mica.OpenIVStore(storeDir)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	srv, err := serve.New(st, serve.Config{
		Phase:    phase,
		Joint:    rep.Joint,
		TraceDir: filepath.Join(dir, "uploads"),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/traces?name=sha-demo", "application/octet-stream",
		bytes.NewReader(raw))
	if err != nil {
		log.Fatal(err)
	}
	var job struct {
		ID        string `json:"id"`
		Benchmark string `json:"benchmark"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("uploaded %d bytes -> %d %s, job %s as %q\n",
		len(raw), resp.StatusCode, http.StatusText(resp.StatusCode), job.ID, job.Benchmark)

	// Poll until the queued characterization finishes.
	for {
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + job.ID)
		if err != nil {
			log.Fatal(err)
		}
		var polled struct {
			Status string `json:"status"`
			Error  string `json:"error"`
			Result *struct {
				Insts  uint64 `json:"insts"`
				Phases *struct {
					K int `json:"k"`
				} `json:"phases"`
			} `json:"result"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&polled); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		if polled.Status == "failed" {
			log.Fatalf("job failed: %s", polled.Error)
		}
		if polled.Status == "done" {
			fmt.Printf("job done: %d instructions characterized from the upload, %d phases\n",
				polled.Result.Insts, polled.Result.Phases.K)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}
