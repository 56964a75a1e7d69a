// Command bench is the repository's benchmark: it runs the paper's own
// workloads against the mica library and the mica-serve daemon, checks
// that their outputs are correct, and prints every metric by name with
// its unit, sample count and quartiles. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bench [-workload all|paper|reduced|joint|serve] [-seed 2006] [-seconds 10] [-trace 0|1]
//
// -trace 0 reports the end-to-end metrics; -trace 1 runs the same
// workload with spans around every layer call, adds the per-layer
// ledger, reports the per-layer metrics and writes the spans under
// .bench_build/spans/. See README.md for the metric glossary.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the workload seed when -seed is not given.
const defaultSeed = 2006

// maxProcs is the load shape every process of the benchmark runs with:
// two workers, two cores.
const maxProcs = 2

var workloadNames = []string{"paper", "reduced", "joint", "serve"}

// allWorkloads is a metricDef.In value: every workload measures it.
const allWorkloads = "paper reduced joint serve"

// metricDef is one reported metric as BENCHMARK.json declares it (a
// test keeps the two in step). In lists the workloads whose operations
// exercise the metric's layer; the others report it as 0.
type metricDef struct {
	Name, Unit, Better, In string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", allWorkloads},
	{"wall_s", "s", "lower", allWorkloads},
	{"warm_s", "s", "lower", allWorkloads},
	{"peak_rss_mb", "MB", "lower", allWorkloads},
}

var perLayer = []metricDef{
	// The layer ledger (ledger.go), measured in every traced run.
	{"vm.ns_per_inst", "ns/inst", "lower", allWorkloads},
	{"trace.decode_ns_per_event", "ns/event", "lower", allWorkloads},
	{"mica.mix_ns_per_event", "ns/event", "lower", allWorkloads},
	{"mica.ilp_ns_per_event", "ns/event", "lower", allWorkloads},
	{"mica.regtraffic_ns_per_event", "ns/event", "lower", allWorkloads},
	{"mica.workingset_ns_per_event", "ns/event", "lower", allWorkloads},
	{"mica.stride_ns_per_event", "ns/event", "lower", allWorkloads},
	{"mica.ppm_ns_per_event", "ns/event", "lower", allWorkloads},
	{"mica.profiler_ns_per_event", "ns/event", "lower", allWorkloads},
	{"mica.fanout_ns_per_event", "ns/event", "lower", allWorkloads},
	{"mica.keysubset_ns_per_event", "ns/event", "lower", allWorkloads},
	{"uarch.ev56_ns_per_event", "ns/event", "lower", allWorkloads},
	{"uarch.ev67_ns_per_event", "ns/event", "lower", allWorkloads},
	{"uarch.hpc_ns_per_event", "ns/event", "lower", allWorkloads},
	{"mica.allocs_per_event", "allocs/event", "lower", allWorkloads},
	{"uarch.allocs_per_event", "allocs/event", "lower", allWorkloads},
	// Self times of the spans around each pipeline call, per iteration.
	{"pool.profile_s", "s", "lower", "paper"},
	{"stats.space_s", "s", "lower", "paper"},
	{"featsel.ga_s", "s", "lower", "paper"},
	{"featsel.ce_s", "s", "lower", "paper"},
	{"roc.auc_s", "s", "lower", "paper"},
	{"cluster.fig6_s", "s", "lower", "paper"},
	{"report.render_s", "s", "lower", "paper"},
	{"reduced.cheap_s", "s", "lower", "reduced"},
	{"reduced.replay_s", "s", "lower", "reduced"},
	{"joint.characterize_s", "s", "lower", "joint"},
	{"joint.cluster_s", "s", "lower", "joint"},
	{"joint.rerun_adopt_s", "s", "lower", "joint"},
	{"joint.rerun_cluster_s", "s", "lower", "joint"},
	// The program's own counters and store statistics, per iteration
	// (per mixed-step slice for serve).
	{"paper.profile_mips", "MIPS", "higher", "paper"},
	{"pool.idle_frac", "fraction", "lower", "paper joint serve"},
	{"phases.characterize_cpu_s", "s", "lower", "reduced joint serve"},
	{"phases.replay_cpu_s", "s", "lower", "reduced"},
	{"cluster.sweep_cpu_s", "s", "lower", "reduced joint serve"},
	{"ivstore.decodes", "count", "lower", "reduced joint serve"},
	{"ivstore.hit_ratio", "fraction", "higher", "reduced joint serve"},
	{"ivstore.evictions", "count", "lower", "reduced joint serve"},
	{"ivstore.store_mb", "MB", "lower", "reduced joint serve"},
	{"ivstore.peak_cache_mb", "MB", "lower", "reduced joint serve"},
	{"joint.warm_used", "fraction", "higher", "joint"},
	// The daemon's /metrics and the generator's own timings.
	{"serve.similar_server_ms", "ms", "lower", "serve"},
	{"serve.vectors_server_ms", "ms", "lower", "serve"},
	{"serve.characterize_server_ms", "ms", "lower", "serve"},
	{"serve.upload_p50_s", "s", "lower", "serve"},
	{"serve.queue_max", "count", "lower", "serve"},
	{"serve.dedup_ratio", "fraction", "higher", "serve"},
	{"serve.jobs_executed", "count", "lower", "serve"},
	{"serve.rejected", "count", "lower", "serve"},
	{"serve.gen_late_p99_ms", "ms", "lower", "serve"},
	// Drift and tracing cost.
	{"host.ref_ms", "ms", "lower", allWorkloads},
	{"trace_overhead_pct", "%", "lower", allWorkloads},
}

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	child    int // >= 0 in a re-executed child process
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	opt, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	h := &harness{root: root, seed: opt.seed, seconds: opt.seconds, traced: opt.traced,
		stdout: stdout, stderr: stderr}

	if opt.child >= 0 {
		if err := runChild(ctx, h, opt.workload, opt.child); err != nil {
			fmt.Fprintf(stderr, "bench: %s child %d: %v\n", opt.workload, opt.child, err)
			return 1
		}
		return 0
	}

	names := []string{opt.workload}
	if opt.workload == "all" {
		names = workloadNames
	}
	var results []*result
	for _, name := range names {
		r, err := runWorkload(ctx, h, name)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		printReport(stdout, r)
		if failed := r.failedChecks(); len(failed) > 0 {
			for _, c := range failed {
				fmt.Fprintf(stderr, "bench: %s: check %s failed: %s\n", name, c.Name, c.Detail)
			}
			return 1
		}
		results = append(results, r)
	}
	line, err := finalLine(results)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "all", "workload to run: all, "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&opt.seed, "seed", defaultSeed, "seed for every generated input")
	fs.IntVar(&opt.seconds, "seconds", 10, "measurement length in seconds; sizes each workload's operation count")
	fs.IntVar(&trace, "trace", 0, "1 runs traced: per-layer metrics, the layer ledger and a spans file")
	fs.IntVar(&opt.child, "child", -1, "internal: run one measurement slice of a batch workload")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	switch {
	case fs.NArg() > 0:
		return opt, fmt.Errorf("unexpected arguments %q", fs.Args())
	case trace != 0 && trace != 1:
		return opt, fmt.Errorf("-trace wants 0 or 1, got %d", trace)
	case opt.seconds < 1:
		return opt, fmt.Errorf("-seconds wants a positive count")
	case opt.workload != "all" && !contains(workloadNames, opt.workload):
		return opt, fmt.Errorf("unknown workload %q (want all, %s)", opt.workload, strings.Join(workloadNames, ", "))
	}
	opt.traced = trace == 1
	return opt, nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// findRoot returns the mica repository root: the working directory or
// its nearest ancestor whose go.mod declares module mica.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && modulePath(string(data)) == "mica" {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a mica checkout (no go.mod declaring module mica)")
		}
		dir = parent
	}
}

func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	return ""
}

// harness carries one process's run settings.
type harness struct {
	root    string
	seed    int64
	seconds int
	traced  bool
	stdout  io.Writer
	stderr  io.Writer
}

// buildDir is where the run keeps everything it writes.
func (h *harness) buildDir(parts ...string) string {
	return filepath.Join(append([]string{h.root, ".bench_build"}, parts...)...)
}

// tempDir makes a fresh scratch directory inside the checkout.
func (h *harness) tempDir(prefix string) (string, error) {
	base := h.buildDir("tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix+"-")
}

func (h *harness) logf(format string, args ...any) {
	fmt.Fprintf(h.stderr, "bench: "+format+"\n", args...)
}

// check is one correctness check's outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// detail is a number the report prints beside the metrics: the
// workload-specific figures and diagnostics that BENCHMARK.json does
// not declare.
type detail struct {
	Name string  `json:"name"`
	Unit string  `json:"unit"`
	Sum  summary `json:"summary"`
}

// result is one workload run's outcome.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	Env       map[string]any     `json:"env"`
	Metrics   map[string]summary `json:"metrics"`
	Details   []detail           `json:"details"`
	Checks    []check            `json:"checks"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	SpansFile string             `json:"spans_file,omitempty"`
}

func newResult(h *harness, workload string) *result {
	return &result{
		Workload: workload, Seed: h.seed, Seconds: h.seconds, Traced: h.traced,
		Env: map[string]any{
			"go_version": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
			"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		},
		Metrics: map[string]summary{},
	}
}

func (r *result) metric(name string, xs ...float64) { r.Metrics[name] = summarize(xs) }

func (r *result) addDetail(name, unit string, xs ...float64) {
	if len(xs) == 0 {
		return
	}
	r.Details = append(r.Details, detail{Name: name, Unit: unit, Sum: summarize(xs)})
}

func (r *result) addCheck(name string, err error) {
	c := check{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
	}
	r.Checks = append(r.Checks, c)
}

func (r *result) failedChecks() []check {
	var out []check
	for _, c := range r.Checks {
		if !c.OK {
			out = append(out, c)
		}
	}
	return out
}

// metricList returns the metrics BENCHMARK.json declares for the run's
// mode.
func metricList(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// runWorkload runs one workload end to end in this process (batch
// workloads fork their measured children from here) and writes the
// full result next to the build outputs.
func runWorkload(ctx context.Context, h *harness, name string) (*result, error) {
	r := newResult(h, name)
	h.logf("%s: seed %d, %d s, trace %v", name, h.seed, h.seconds, h.traced)
	ref := hostRef()
	r.addDetail("host.ref_ms", "ms", ref)
	r.addCheck("golden_vectors", checkGolden(h.root))
	if len(r.failedChecks()) > 0 {
		return r, nil
	}

	var spans []span
	var err error
	if name == "serve" {
		spans, err = runServe(ctx, h, r, defaultServeConfig(h.seconds))
	} else {
		var w batchWorkload
		if w, err = newBatch(name, h.seed); err == nil {
			spans, err = runBatch(ctx, h, r, name, w, spawnChild(h, name))
		}
	}
	if err != nil {
		return nil, err
	}
	if len(r.failedChecks()) > 0 {
		return r, nil
	}
	if h.traced {
		r.metric("host.ref_ms", ref)
		if err := runLedger(ctx, h, r, defaultLedgerConfig()); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(h.buildDir("spans"), 0o755); err != nil {
			return nil, err
		}
		r.SpansFile = h.buildDir("spans", fmt.Sprintf("%s-seed%d.json", name, h.seed))
		if err := writeSpans(r.SpansFile, spans); err != nil {
			return nil, err
		}
		addSpanTimes(r, spans)
	}
	if err := completeMetrics(r); err != nil {
		return nil, err
	}
	if err := writeResult(h, r); err != nil {
		return nil, err
	}
	return r, nil
}

// hostRef times stdlib sha256 over a fixed 64 MiB buffer, median of
// three passes: a reference for machine-load drift between runs.
func hostRef() float64 {
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	var times []float64
	for range 3 {
		start := time.Now()
		sha256.Sum256(buf)
		times = append(times, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(times)
}

// completeMetrics checks that the run measured every metric its
// workload exercises, and nothing else, and reports the metrics of
// layers the workload does not touch as 0.
func completeMetrics(r *result) error {
	for _, m := range metricList(r.Traced) {
		_, measured := r.Metrics[m.Name]
		switch in := contains(strings.Fields(m.In), r.Workload); {
		case in && !measured:
			return fmt.Errorf("metric %s was not measured", m.Name)
		case !in && measured:
			return fmt.Errorf("metric %s was measured, but its definition excludes %s", m.Name, r.Workload)
		case !in:
			r.metric(m.Name, 0)
		}
	}
	return nil
}

// addSpanTimes turns the spans into per-trace (per iteration or
// request) self times. A span whose name plus "_s" is a per-layer
// metric becomes that metric; the others go to the report's details.
func addSpanTimes(r *result, spans []span) {
	byTrace := make(map[int64][]span)
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	per := make(map[string][]float64)
	for _, ss := range byTrace {
		for name, d := range selfTimes(ss) {
			per[name] = append(per[name], d.Seconds())
		}
	}
	for _, n := range sortedKeys(per) {
		if isPerLayer(n + "_s") {
			r.metric(n+"_s", per[n]...)
		} else {
			r.addDetail("self."+n+"_s", "s", per[n]...)
		}
	}
}

func isPerLayer(name string) bool {
	for _, m := range perLayer {
		if m.Name == name {
			return true
		}
	}
	return false
}

func writeResult(h *harness, r *result) error {
	dir := h.buildDir("results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if r.Traced {
		mode = "trace"
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", r.Workload, r.Seed, mode)), data, 0o644)
}

// printReport writes the human-readable report of one workload run.
func printReport(w io.Writer, r *result) {
	fmt.Fprintf(w, "== %s  seed %d  %d s  trace %v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fmt.Fprintf(w, "env: %s %s/%s GOMAXPROCS=%d nproc=%d\n", r.Env["go_version"], r.Env["goos"],
		r.Env["goarch"], r.Env["gomaxprocs"], r.Env["nproc"])
	fmt.Fprintf(w, "%-34s %-12s %5s %14s %14s %14s\n", "metric", "unit", "n", "median", "p25", "p75")
	for _, m := range metricList(r.Traced) {
		s := r.Metrics[m.Name]
		fmt.Fprintf(w, "%-34s %-12s %5d %14.6g %14.6g %14.6g\n", m.Name, m.Unit, s.N, s.Median, s.P25, s.P75)
	}
	if len(r.Details) > 0 {
		fmt.Fprintln(w, "details:")
		for _, d := range r.Details {
			fmt.Fprintf(w, "  %-32s %-12s %5d %14.6g %14.6g %14.6g\n", d.Name, d.Unit, d.Sum.N, d.Sum.Median, d.Sum.P25, d.Sum.P75)
		}
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED: " + c.Detail
		}
		fmt.Fprintf(w, "check %-28s %s\n", c.Name, status)
	}
	if r.SpansFile != "" {
		fmt.Fprintf(w, "spans: %s\n", r.SpansFile)
	}
}

// finalLine renders the machine-readable last line. A run of one
// workload reports its metrics under their declared names; a run of
// all workloads suffixes each with @workload.
func finalLine(results []*result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		out.Correct = out.Correct && len(r.failedChecks()) == 0
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, m := range metricList(r.Traced) {
			v := r.Metrics[m.Name].Median
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return "", fmt.Errorf("%s: metric %s has no value", r.Workload, m.Name)
			}
			name := m.Name
			if len(results) > 1 {
				name += "@" + r.Workload
			}
			out.Metrics[name] = value{Value: v, Unit: m.Unit}
		}
	}
	data, err := json.Marshal(out)
	return string(data), err
}
