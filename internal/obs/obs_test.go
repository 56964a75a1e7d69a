package obs

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mica_test_items_total", "items")
	c.Inc()
	c.Add(2.5)
	c.Add(-10) // ignored: counters are monotonic
	c.Add(math.NaN())
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	// Same name returns the same counter.
	if r.Counter("mica_test_items_total", "items") != c {
		t.Fatal("re-registration did not return the same counter")
	}

	g := r.Gauge("mica_test_depth", "depth")
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	g.SetMax(10)
	g.SetMax(3) // lower: no-op
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge after SetMax = %v, want 10", got)
	}
}

func TestNameValidation(t *testing.T) {
	valid := []string{"mica_pool_items_total", "mica_serve_request_seconds", "mica_stage_active"}
	invalid := []string{"", "pool_items", "mica_", "mica_pool", "Mica_pool_x", "mica_pool_Items", "mica-pool-items", "mica_pool__items", "mica_pool_items "}
	for _, n := range valid {
		if !ValidName(n) {
			t.Errorf("ValidName(%q) = false, want true", n)
		}
	}
	for _, n := range invalid {
		if ValidName(n) {
			t.Errorf("ValidName(%q) = true, want false", n)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("registering an invalid name did not panic")
		}
	}()
	NewRegistry().Counter("bad_name", "")
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("mica_test_thing", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering as a different kind did not panic")
		}
	}()
	r.Gauge("mica_test_thing", "")
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("mica_serve_requests_total", "requests", "endpoint")
	v.With("stats").Inc()
	v.With("stats").Inc()
	v.With("similar").Inc()
	if got := v.With("stats").Value(); got != 2 {
		t.Fatalf(`With("stats") = %v, want 2`, got)
	}
	if got := v.With("similar").Value(); got != 1 {
		t.Fatalf(`With("similar") = %v, want 1`, got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.With("a", "b")
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mica_test_ops_total", "")
	g := r.Gauge("mica_test_level", "")
	h := r.Histogram("mica_test_latency_seconds", "", nil)
	vec := r.CounterVec("mica_test_labeled_total", "", "k")

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%100) / 1000)
				vec.With("x").Inc()
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %v, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Errorf("gauge = %v, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %v, want %d", got, workers*per)
	}
	if got := vec.With("x").Value(); got != workers*per {
		t.Errorf("vec counter = %v, want %d", got, workers*per)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mica_test_items_total", "")
	c.Add(5)
	r.Gauge("mica_test_depth", "").Set(3)
	h := r.Histogram("mica_test_dur_seconds", "", nil)
	h.Observe(0.2)
	h.Observe(0.3)
	base := r.Snapshot()
	if base.Counters["mica_test_items_total"] != 5 {
		t.Fatalf("snapshot counter = %v", base.Counters["mica_test_items_total"])
	}
	hs := base.Histograms["mica_test_dur_seconds"]
	if hs.Count != 2 || hs.Sum != 0.5 {
		t.Fatalf("snapshot histogram = %+v", hs)
	}

	if base.Gauges["mica_test_depth"] != 3 {
		t.Errorf("snapshot gauge = %v, want 3", base.Gauges["mica_test_depth"])
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"mica_pool_items_total":                   "pool",
		`mica_serve_requests_total{endpoint="s"}`: "serve",
		"mica_stage_duration_seconds":             "stage",
		"not_a_metric":                            "",
		"mica_pool":                               "",
	}
	for in, want := range cases {
		if got := LayerOf(in); got != want {
			t.Errorf("LayerOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSpans(t *testing.T) {
	r := NewRegistry()
	s := r.StartSpan("phases.test")
	if got := r.GaugeVec(stageActiveName, "", "stage").With("phases.test").Value(); got != 1 {
		t.Fatalf("active gauge during span = %v, want 1", got)
	}
	s.End()
	s.End() // idempotent
	if got := r.StageRuns("phases.test"); got != 1 {
		t.Fatalf("StageRuns = %v, want 1", got)
	}
	if got := r.GaugeVec(stageActiveName, "", "stage").With("phases.test").Value(); got != 0 {
		t.Fatalf("active gauge after span = %v, want 0", got)
	}
	if r.StageSeconds("phases.test") < 0 {
		t.Fatal("negative stage seconds")
	}
	var nilSpan *Span
	nilSpan.End() // must not panic
}

func TestBuildInfo(t *testing.T) {
	b := Build()
	if b.Version == "" {
		t.Fatal("empty version")
	}
	if !strings.HasPrefix(b.String(), "mica ") {
		t.Fatalf("String() = %q", b.String())
	}
}

// TestDumpStats covers the CLI-facing surface: the global registry's
// -stats JSON dump round-trips, and Default()/StartSpan/Names feed it.
func TestDumpStats(t *testing.T) {
	Default().Counter("mica_test_dumped_total", "Dump coverage.").Add(3)
	StartSpan("phases.dumptest").End()
	if !slices.Contains(Default().Names(), "mica_test_dumped_total") {
		t.Fatal("Names() is missing a registered counter")
	}

	path := filepath.Join(t.TempDir(), "stats.json")
	if err := DumpStats(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snap
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("stats dump is not a Snap document: %v", err)
	}
	if snap.Counters["mica_test_dumped_total"] != 3 {
		t.Fatalf("dump counters = %v", snap.Counters)
	}

	key := stageDurationName + `{stage="phases.dumptest"}`
	if snap.Histograms[key].Count < 1 {
		t.Fatalf("dump missing span histogram %s (have %d histograms)", key, len(snap.Histograms))
	}
	h := Default().Histogram("mica_test_dump_seconds", "", nil)
	if len(h.Bounds()) != len(DefaultDurationBounds) {
		t.Fatal("nil bounds did not normalize to the defaults")
	}

	if err := DumpStats(filepath.Join(t.TempDir(), "no/such/dir/stats.json")); err == nil {
		t.Fatal("DumpStats to an uncreatable path must error")
	}
}
