package mica

import (
	"context"
	"path/filepath"
	"testing"

	"mica/internal/obs"
)

// knownLayers is the closed set of <layer> components allowed in
// mica_<layer>_<name> metric names. A new layer is a deliberate act:
// add it here when the instrumentation lands.
var knownLayers = map[string]bool{
	"pool": true, "ivstore": true, "trace": true,
	"phases": true, "cluster": true, "stage": true, "serve": true,
}

// TestMetricNameLint walks every metric the process registered (the
// package-level vars across pool, ivstore, trace, phases and cluster
// register on import) and holds each name to the repo's contract:
// mica_<layer>_<name>, snake_case, with a known layer. Registration
// itself panics on malformed names; this test additionally pins the
// layer vocabulary so a typo like mica_ivsotre_* cannot slip in.
func TestMetricNameLint(t *testing.T) {
	names := obs.Default().Names()
	if len(names) == 0 {
		t.Fatal("default registry is empty; layer instrumentation did not register")
	}
	for _, name := range names {
		if !obs.ValidName(name) {
			t.Errorf("metric %q violates the mica_<layer>_<name> snake_case contract", name)
			continue
		}
		if layer := obs.LayerOf(name); !knownLayers[layer] {
			t.Errorf("metric %q has unknown layer %q", name, layer)
		}
	}
}

// TestReducedStorePipelineSpans: a fresh store-backed reduced run
// emits every pipeline stage — characterize, normalize, sweep-k,
// replay — exactly once per benchmark, and the recorded stage time is
// non-zero. Double-counted spans would make the -stats dumps (and any
// dashboard on mica_stage_duration_seconds) overstate where time
// goes.
func TestReducedStorePipelineSpans(t *testing.T) {
	bs := storeBenchmarks(t, reducedStoreBenchSet...)
	stages := []string{"phases.characterize", "phases.normalize", "cluster.sweep-k", "phases.replay"}
	base := make(map[string]float64, len(stages))
	baseSec := make(map[string]float64, len(stages))
	for _, s := range stages {
		base[s] = obs.Default().StageRuns(s)
		baseSec[s] = obs.Default().StageSeconds(s)
	}

	cfg := ReducedPipelineConfig{Reduced: reducedAcceptanceConfig(), Workers: 1}
	if _, _, err := AnalyzeReducedStoreCtx(context.Background(), bs, cfg, StoreOptions{Dir: filepath.Join(t.TempDir(), "store")}); err != nil {
		t.Fatal(err)
	}

	for _, s := range stages {
		if got := obs.Default().StageRuns(s) - base[s]; got != float64(len(bs)) {
			t.Errorf("stage %q ran %v times, want exactly once per benchmark (%d)", s, got, len(bs))
		}
		if sec := obs.Default().StageSeconds(s) - baseSec[s]; sec <= 0 {
			t.Errorf("stage %q recorded no time", s)
		}
	}
}
