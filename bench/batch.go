package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"

	"mica/internal/obs"
)

// The batch workloads (paper, reduced, joint) run in-process pipelines.
// Each run forks setupProcs child processes of this binary, one after
// another: a child times one cold operation, which is a setup_s sample,
// and then its share of the warm operations. Separate processes keep
// peak RSS and GC state apart and make every setup sample a real cold
// start.

// setupProcs is how many cold starts one run measures.
const setupProcs = 3

// batchWorkload is one in-process pipeline workload.
type batchWorkload interface {
	// nominal is the seconds one warm operation takes on a two-core
	// machine; it turns -seconds into a fixed operation count, so two
	// builds measured with the same -seconds do identical work.
	nominal() float64
	// digestKey names the digests.json entry the output must match at
	// every seed, or is empty for a resized workload.
	digestKey() string
	// reference runs once in the parent before the children, untimed.
	// It returns the output digest every operation must reproduce (""
	// when operations only have to agree with each other) and a string
	// folded into the digest recorded for the default seed.
	reference(ctx context.Context, h *harness, r *result) (digest, record string, err error)
	// op runs one measured operation. tr is nil for untraced
	// operations; trace identifies the operation's spans.
	op(ctx context.Context, h *harness, tr *tracer, trace int64) (opSample, error)
}

// opSample is one operation's measurement.
type opSample struct {
	// Wall is the heavy operation in seconds, Warm the repeat that
	// answers from the state it left (wall_s and warm_s).
	Wall   float64 `json:"wall"`
	Warm   float64 `json:"warm"`
	Traced bool    `json:"traced"`
	Digest string  `json:"digest"`
	// Layer holds per-layer values of a traced operation.
	Layer map[string]float64 `json:"layer,omitempty"`
}

// sliceResult is what one child process reports to its parent.
type sliceResult struct {
	Setup  float64    `json:"setup"`
	PeakMB float64    `json:"peak_mb"`
	Digest string     `json:"digest"`
	Ops    []opSample `json:"ops"`
	Spans  []span     `json:"spans,omitempty"`
}

func newBatch(name string, seed int64) (batchWorkload, error) {
	switch name {
	case "paper":
		return defaultPaper(seed), nil
	case "reduced":
		return defaultReduced(seed)
	case "joint":
		return defaultJoint(), nil
	}
	return nil, fmt.Errorf("no batch workload %q", name)
}

// planOps splits the warm operations a run of seconds affords over the
// child processes.
func planOps(nominal float64, seconds int) []int {
	total := max(setupProcs, int(math.Round(float64(seconds)/nominal)))
	plan := make([]int, setupProcs)
	for i := range plan {
		plan[i] = total / setupProcs
		if i < total%setupProcs {
			plan[i]++
		}
	}
	return plan
}

// spawner runs measurement slice i of ops warm operations.
type spawner func(ctx context.Context, w batchWorkload, i, ops int) (*sliceResult, error)

// spawnChild re-executes this binary as child i of the run.
func spawnChild(h *harness, name string) spawner {
	return func(ctx context.Context, _ batchWorkload, i, _ int) (*sliceResult, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		trace := "0"
		if h.traced {
			trace = "1"
		}
		cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", strconv.FormatInt(h.seed, 10),
			"-seconds", strconv.Itoa(h.seconds), "-trace", trace, "-child", strconv.Itoa(i))
		cmd.Dir = h.root
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(maxProcs))
		cmd.Stderr = h.stderr
		var out bytes.Buffer
		cmd.Stdout = &out
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("child %d: %w", i, err)
		}
		var res sliceResult
		if err := json.Unmarshal(out.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("child %d output: %w", i, err)
		}
		return &res, nil
	}
}

// peakRSSMB returns the peak resident set of process pid ("self" for
// this one) in MB: VmHWM from /proc. The rusage maxrss os/exec reports
// for a child would not do, because on Linux a child shares its
// parent's memory until it execs and the kernel folds the parent's
// peak into the child's maxrss.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of process %s: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// runChild is the body of a child process: one cold operation, then
// the child's warm operations, reported as JSON on standard output.
func runChild(ctx context.Context, h *harness, name string, i int) error {
	w, err := newBatch(name, h.seed)
	if err != nil {
		return err
	}
	res, err := measureSlice(ctx, h, w, i, planOps(w.nominal(), h.seconds)[i])
	if err != nil {
		return err
	}
	if res.PeakMB, err = peakRSSMB("self"); err != nil {
		return err
	}
	return json.NewEncoder(h.stdout).Encode(res)
}

// measureSlice times one cold operation and ops warm ones. In traced
// runs every other operation is traced, so the untraced ones give the
// tracing overhead's baseline.
func measureSlice(ctx context.Context, h *harness, w batchWorkload, i, ops int) (*sliceResult, error) {
	var tr *tracer
	if h.traced {
		tr = &tracer{}
	}
	cold, err := w.op(ctx, h, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("cold operation: %w", err)
	}
	res := &sliceResult{Setup: cold.Wall, Digest: cold.Digest}
	for j := range ops {
		var t *tracer
		if tr != nil && (i+j)%2 == 0 {
			t = tr
		}
		s, err := w.op(ctx, h, t, int64(i*1000+j+1))
		if err != nil {
			return nil, fmt.Errorf("operation %d: %w", j+1, err)
		}
		s.Traced = t != nil
		res.Ops = append(res.Ops, s)
	}
	res.Spans = tr.closed()
	return res, nil
}

// runBatch runs a batch workload: the untimed reference, the measured
// children, then the aggregation and the output checks.
func runBatch(ctx context.Context, h *harness, r *result, name string, w batchWorkload, spawn spawner) ([]span, error) {
	ref, record, err := w.reference(ctx, h, r)
	if err != nil {
		return nil, err
	}
	var setups, walls, warms, rss, tracedWalls []float64
	digests := []string{}
	if ref != "" {
		digests = append(digests, ref)
	}
	layer := map[string][]float64{}
	var spans []span
	var spanBase int64
	for i, ops := range planOps(w.nominal(), h.seconds) {
		s, err := spawn(ctx, w, i, ops)
		if err != nil {
			r.addCheck("operations", err)
			return nil, nil
		}
		r.Attempted += 1 + len(s.Ops)
		setups = append(setups, s.Setup)
		rss = append(rss, s.PeakMB)
		digests = append(digests, s.Digest)
		for _, op := range s.Ops {
			digests = append(digests, op.Digest)
			if op.Traced {
				tracedWalls = append(tracedWalls, op.Wall)
				for k, v := range op.Layer {
					layer[k] = append(layer[k], v)
				}
			} else {
				walls = append(walls, op.Wall)
				warms = append(warms, op.Warm)
			}
		}
		spans = append(spans, renumber(s.Spans, spanBase)...)
		spanBase += int64(len(s.Spans))
	}
	r.addCheck("identical_output", sameDigests(digests))
	r.addCheck("digest", checkDigest(w.digestKey(), newDigester().str(digests[0]).str(record).sum()))

	if !h.traced {
		r.metric("setup_s", setups...)
		r.metric("wall_s", walls...)
		r.metric("warm_s", warms...)
		r.metric("peak_rss_mb", rss...)
		return nil, nil
	}
	r.metric("trace_overhead_pct", overheadPct(tracedWalls, walls))
	for _, k := range sortedKeys(layer) {
		r.metric(k, layer[k]...)
	}
	return spans, nil
}

// overheadPct is how much slower the traced samples' median is than
// the untraced samples', in percent.
func overheadPct(traced, untraced []float64) float64 {
	return (median(traced)/median(untraced) - 1) * 100
}

// renumber offsets a child's span ids so spans from several children
// can share one file.
func renumber(spans []span, base int64) []span {
	out := make([]span, len(spans))
	for i, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		out[i] = s
	}
	return out
}

// registry is a snapshot of the program's metrics, from this process's
// obs registry or a daemon's /metrics, keyed by series (name plus label
// set).
type registry map[string]float64

func probeRegistry() registry {
	var b bytes.Buffer
	_ = obs.Default().WritePrometheus(&b) // writes to a buffer cannot fail
	return parseExposition(b.String())
}

// delta returns the change of series since the snapshot was taken.
func (p registry) delta(now registry, series string) float64 { return now[series] - p[series] }

// Series of the program's own metrics the per-layer values come from.
const (
	seriesPoolBusy  = "mica_pool_busy_seconds_total"
	seriesSweep     = `mica_stage_duration_seconds_sum{stage="cluster.sweep-k"}`
	seriesReplay    = `mica_stage_duration_seconds_sum{stage="phases.replay"}`
	seriesCharacter = `mica_stage_duration_seconds_sum{stage="phases.characterize"}`
)

// idleFrac is the share of the two workers' time left idle over
// seconds of a pooled pipeline call.
func idleFrac(before, after registry, seconds float64) float64 {
	return 1 - before.delta(after, seriesPoolBusy)/(maxProcs*seconds)
}

// parseExposition reads Prometheus text exposition into a map from
// series to value.
func parseExposition(text string) registry {
	out := make(registry)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
