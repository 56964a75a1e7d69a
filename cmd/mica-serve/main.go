// Command mica-serve is characterization-as-a-service: a long-running
// HTTP/JSON daemon over the mica library and a warm interval-vector
// store, serving the paper's workload-characterization queries to
// concurrent clients.
//
// Startup is one mica.Run over the selected benchmarks, always
// incremental, warm-started and joint: it builds the store (reusing
// every shard whose configuration stamp still matches), clusters the
// joint cross-benchmark phase vocabulary (warm-started from the state
// a previous run persisted next to the store) and closes the store.
// The daemon then reopens the committed store, assembles the
// normalized-PCA similarity index from the stored vectors, and
// listens. The endpoints:
//
//	POST /api/v1/characterize   {"benchmark": "suite/program/input"}
//	                            → 202 {job id}; jobs dedup in-flight and
//	                              completed work by the phase-config stamp
//	POST /api/v1/traces[?name=X] raw recorded-trace bytes (mica-profile
//	                            -record) → validated end to end, persisted
//	                            durably under -tracedir, characterized via
//	                            the same deduped job path (404 without
//	                            -tracedir; oversized 413, corrupt 400)
//	GET  /api/v1/jobs/{id}      → job status; Table I/II rows, phase
//	                              timeline and kiviat data when done
//	GET  /api/v1/similar?bench=X&k=5[&space=pca|phase]
//	                            → k nearest benchmarks in the normalized
//	                              PCA space (or joint phase-occupancy space)
//	GET  /api/v1/vectors?bench=X[&from=N&count=M]
//	                            → the benchmark's stored interval vectors
//	GET  /api/v1/benchmarks     → registry listing with store coverage
//	GET  /api/v1/stats          → per-endpoint latency/QPS, job and dedup
//	                              counters, store shard-read counts
//	GET  /api/v1/version        → build identity (module version, Go
//	                              toolchain, VCS revision + dirty bit)
//	GET  /metrics               → Prometheus text exposition over every
//	                              instrumented layer (serve, jobs, pool,
//	                              ivstore reads, pipeline stages)
//	GET  /healthz               → liveness
//
// -pprof additionally mounts net/http/pprof under /debug/pprof/ for
// live CPU/heap profiling (off by default; the endpoints expose
// process internals).
//
// Backpressure is explicit: a full job queue answers 429 with
// Retry-After, shutdown answers 503. SIGINT or SIGTERM stops the
// listener, drains accepted jobs and closes the store cleanly.
//
// Usage:
//
//	mica-serve -store phases.ivs [-addr 127.0.0.1:8344]
//	mica-serve -store phases.ivs -bench name,name,... [-interval 10000] [-intervals 100]
//	mica-serve -store phases.ivs -workers 8 -queue 128
//	mica-serve -store phases.ivs -tracedir traces/ [-maxupload 67108864]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mica"
	"mica/internal/obs"
	"mica/internal/serve"
	"mica/internal/suites"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8344", "listen address")
		storeDir     = flag.String("store", "", "interval-vector store directory (required; built/warmed at startup)")
		benchName    = flag.String("bench", "", "comma-separated benchmarks to serve (default: the whole registry)")
		intervalLen  = flag.Uint64("interval", 10_000, "interval length in dynamic instructions")
		maxIntervals = flag.Int("intervals", 100, "maximum number of intervals per benchmark")
		maxK         = flag.Int("maxk", 10, "maximum K for the BIC phase sweep")
		seed         = flag.Int64("seed", 2006, "k-means seed")
		workers      = flag.Int("workers", 0, "characterization workers for startup build and job pool (0 = GOMAXPROCS)")
		queueCap     = flag.Int("queue", 64, "pending characterization-job bound; a full queue answers 429")
		retain       = flag.Int("retain", 1024, "finished jobs kept pollable")
		pcaVar       = flag.Float64("pcavar", 0.9, "variance fraction the similarity index's PCA components must explain")
		skipHPC      = flag.Bool("skiphpc", false, "skip the EV56/EV67 machine models in characterization jobs")
		traceDir     = flag.String("tracedir", "", "enable POST /api/v1/traces; validated uploads are persisted here and characterized like registry benchmarks")
		maxUpload    = flag.Int64("maxupload", 64<<20, "uploaded-trace size bound in bytes; larger requests answer 413")
		pprofOn      = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the serving address")
		version      = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.Build())
		return
	}

	fl := cliFlags{
		storeDir: *storeDir, addr: *addr, queueCap: *queueCap,
		retain: *retain, pcaVar: *pcaVar,
		traceDir: *traceDir, maxUpload: *maxUpload, pprof: *pprofOn,
	}
	if err := validateFlags(fl); err != nil {
		fmt.Fprintln(os.Stderr, "mica-serve:", err)
		os.Exit(1)
	}

	// SIGINT/SIGTERM cancels the startup build exactly like the batch
	// CLIs (finished shards commit, an incremental restart resumes)
	// and, once serving, triggers the graceful drain below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, fl, mica.PhaseConfig{
		IntervalLen:  *intervalLen,
		MaxIntervals: *maxIntervals,
		MaxK:         *maxK,
		Seed:         *seed,
	}, *benchName, *workers, *skipHPC, nil); err != nil {
		fmt.Fprintln(os.Stderr, "mica-serve:", err)
		os.Exit(1)
	}
}

// cliFlags is the flag combination a run was invoked with, gathered
// for validation (and table-tested as one unit).
type cliFlags struct {
	storeDir  string
	addr      string
	queueCap  int
	retain    int
	pcaVar    float64
	traceDir  string
	maxUpload int64
	pprof     bool
}

// validateFlags rejects inconsistent flag combinations up front, with
// errors that name the fix. nil means the combination is runnable.
func validateFlags(f cliFlags) error {
	switch {
	case f.storeDir == "":
		return fmt.Errorf("mica-serve serves from an interval-vector store; pass -store DIR")
	case f.addr == "":
		return fmt.Errorf("-addr wants a listen address")
	case f.queueCap <= 0:
		return fmt.Errorf("-queue wants a positive pending-job bound")
	case f.retain <= 0:
		return fmt.Errorf("-retain wants a positive finished-job bound")
	case f.pcaVar <= 0 || f.pcaVar > 1:
		return fmt.Errorf("-pcavar wants a variance fraction in (0, 1]")
	case f.traceDir != "" && f.maxUpload <= 0:
		return fmt.Errorf("-maxupload wants a positive byte bound")
	}
	return nil
}

// run builds and warms the store, builds the serving state and serves
// until ctx is cancelled. ready, when non-nil, is told the bound listen
// address once the daemon is accepting connections (tests bind :0 and
// need the kernel-chosen port).
func run(ctx context.Context, fl cliFlags, phase mica.PhaseConfig,
	benchName string, workers int, skipHPC bool, ready func(addr string)) error {
	bs, err := suites.Select(benchName)
	if err != nil {
		return err
	}

	fmt.Printf("warming store %s (%d benchmarks)...\n", fl.storeDir, len(bs))
	begin := time.Now()
	rep, err := mica.Run(ctx, mica.Request{
		Benchmarks: bs,
		Joint:      true,
		Phases:     &mica.PhasePipelineConfig{Phase: phase, Workers: workers},
		Store:      mica.StoreOptions{Dir: fl.storeDir, Incremental: true, WarmStart: true},
	})
	if err != nil {
		return err
	}
	// Run closes its store; the daemon serves the committed one, and
	// serve.New checks that it still matches the vocabulary.
	st, err := mica.OpenIVStore(fl.storeDir)
	if err != nil {
		return err
	}
	defer st.Close()
	fmt.Printf("store ready in %v: %d characterized, %d reused, %d rows\n",
		time.Since(begin).Round(time.Millisecond),
		len(rep.Store.Characterized), len(rep.Store.Reused), st.NumRows())
	fmt.Printf("joint vocabulary: K=%d over %d intervals (warm start: %v)\n",
		rep.Joint.K, len(rep.Joint.Assign), rep.Store.WarmStarted)

	srv, err := serve.New(st, serve.Config{
		Phase:         phase,
		SkipHPC:       skipHPC,
		Workers:       workers,
		QueueCap:      fl.queueCap,
		Retain:        fl.retain,
		PCAVariance:   fl.pcaVar,
		Joint:         rep.Joint,
		TraceDir:      fl.traceDir,
		MaxTraceBytes: fl.maxUpload,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", fl.addr)
	if err != nil {
		return err
	}
	// pprof is opt-in: the profiling endpoints leak heap contents and
	// can stall the runtime, so they only mount when the operator asks.
	handler := srv.Handler()
	if fl.pprof {
		mux := http.NewServeMux()
		mux.Handle("/", srv.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	httpSrv := &http.Server{Handler: handler}

	// The listener dies when the context does; jobs accepted before
	// the signal drain before the store closes.
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		fmt.Println("\nshutting down: draining jobs...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()

	fmt.Printf("serving %d benchmarks on http://%s (config %.12s...)\n",
		len(bs), ln.Addr(), srv.ConfigKey())
	if ready != nil {
		ready(ln.Addr().String())
	}
	err = httpSrv.Serve(ln)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-done
	srv.Close()
	fmt.Println("drained; store closed cleanly")
	return nil
}
