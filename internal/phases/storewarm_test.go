package phases

import (
	"encoding/json"
	"testing"
)

// warmBenches is a fixed benchmark set for the warm-start tests.
func warmBenches() []benchIntervals {
	return []benchIntervals{
		synthBench("w/a", 60, 21),
		synthBench("w/b", 45, 22),
		synthBench("w/c", 70, 23),
	}
}

// TestAnalyzeJointStoreWarmMatchesFresh: seeding a re-analysis of the
// same store from its own previous state must report the warm path
// taken and converge to the identical vocabulary (the seeds are
// already the sweep's fixed point).
func TestAnalyzeJointStoreWarmMatchesFresh(t *testing.T) {
	cfg := Config{IntervalLen: 1000, MaxIntervals: 70, MaxK: 6, Seed: 2006}
	st := storeFrom(t, t.TempDir(), warmBenches())

	fresh, _, err := AnalyzeJointStore(t.Context(), st, cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := fresh.WarmState(st.ConfigHash())
	if ws == nil {
		t.Fatal("store-backed result yielded no warm state")
	}
	if ws.K != fresh.K || len(ws.Centroids) != fresh.K {
		t.Fatalf("warm state K=%d with %d centroids, result K=%d", ws.K, len(ws.Centroids), fresh.K)
	}

	warm, used, err := AnalyzeJointStore(t.Context(), st, cfg, 2, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !used {
		t.Fatal("matching warm state was not used")
	}
	compareJoint(t, "warm vs fresh", warm, fresh)
}

// TestWarmStateJSONRoundTrip: the persisted form (what WriteAux stores)
// survives a JSON round trip and still warm-starts.
func TestWarmStateJSONRoundTrip(t *testing.T) {
	cfg := Config{IntervalLen: 1000, MaxIntervals: 70, MaxK: 6, Seed: 2006}
	st := storeFrom(t, t.TempDir(), warmBenches())
	fresh, _, err := AnalyzeJointStore(t.Context(), st, cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(fresh.WarmState(st.ConfigHash()))
	if err != nil {
		t.Fatal(err)
	}
	var ws JointWarmState
	if err := json.Unmarshal(blob, &ws); err != nil {
		t.Fatal(err)
	}
	warm, used, err := AnalyzeJointStore(t.Context(), st, cfg, 0, &ws)
	if err != nil {
		t.Fatal(err)
	}
	if !used {
		t.Fatal("round-tripped warm state was not used")
	}
	compareJoint(t, "round-tripped warm vs fresh", warm, fresh)
}

// TestWarmStateFallbacks: a stale or mismatched state silently falls
// back to the fresh path (used == false) and the result is unchanged.
func TestWarmStateFallbacks(t *testing.T) {
	cfg := Config{IntervalLen: 1000, MaxIntervals: 70, MaxK: 6, Seed: 2006}
	st := storeFrom(t, t.TempDir(), warmBenches())
	fresh, _, err := AnalyzeJointStore(t.Context(), st, cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := fresh.WarmState(st.ConfigHash())

	cases := map[string]*JointWarmState{
		"nil state":     nil,
		"hash mismatch": func() *JointWarmState { w := *good; w.ConfigHash = "other"; return &w }(),
		"k over budget": func() *JointWarmState { w := *good; w.K = cfg.MaxK + 1; return &w }(),
		"short mean":    func() *JointWarmState { w := *good; w.Mean = w.Mean[:3]; return &w }(),
		"drifted stats": func() *JointWarmState {
			w := *good
			w.Mean = append([]float64(nil), good.Mean...)
			w.Std = append([]float64(nil), good.Std...)
			for j := range w.Mean {
				w.Mean[j] += 50 * (w.Std[j] + 1)
			}
			return &w
		}(),
	}
	for name, ws := range cases {
		got, used, err := AnalyzeJointStore(t.Context(), st, cfg, 0, ws)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if used {
			t.Errorf("%s: warm state was used, want fallback", name)
		}
		compareJoint(t, name, got, fresh)
	}
}

// TestWarmDriftSensitivity pins the drift metric's two regimes: an
// incremental perturbation (one benchmark's worth of rows shifting the
// statistics) stays far under WarmMaxDrift, while a substantively
// different dataset exceeds it.
func TestWarmDriftSensitivity(t *testing.T) {
	cfg := Config{IntervalLen: 1000, MaxIntervals: 70, MaxK: 6, Seed: 2006}
	base := warmBenches()
	st := storeFrom(t, t.TempDir(), base)
	fresh, _, err := AnalyzeJointStore(t.Context(), st, cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := fresh.WarmState(st.ConfigHash())

	// One of three benchmarks re-characterized with a different seed: the
	// warm state must still be accepted against the changed store.
	changed := append([]benchIntervals(nil), base...)
	changed[1] = synthBench("w/b", 45, 99)
	st2 := storeFrom(t, t.TempDir(), changed)
	ws2 := *ws
	ws2.ConfigHash = st2.ConfigHash()
	_, used, err := AnalyzeJointStore(t.Context(), st2, cfg, 0, &ws2)
	if err != nil {
		t.Fatal(err)
	}
	if !used {
		t.Error("incremental one-benchmark change rejected the warm state")
	}
}

// TestWarmStateNilWithoutCapture: a result that never captured
// clustering state (one AnalyzeJointStore did not build) produces no
// warm state, while an in-memory analysis captures one like a store's.
func TestWarmStateNilWithoutCapture(t *testing.T) {
	if (&JointResult{K: 1, Assign: []int{0}}).WarmState("x") != nil {
		t.Error("result without normalization capture produced a warm state")
	}
	var nilRes *JointResult
	if nilRes.WarmState("x") != nil {
		t.Error("nil result produced a warm state")
	}
	j, _, err := AnalyzeJointStore(t.Context(), memFrom(t, warmBenches()),
		Config{IntervalLen: 1000, MaxIntervals: 70, MaxK: 6, Seed: 2006}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.WarmState("x") == nil {
		t.Error("in-memory joint result captured no warm state")
	}
}
