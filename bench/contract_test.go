package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestBenchmarkJSON keeps BENCHMARK.json, which declares the metrics to
// whoever compares two commits, in step with the lists the command
// reports, and checks the declaration's own limits.
func TestBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, the command runs %v", names, workloadNames)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}

	same := func(kind string, declared []metric, reported []metricDef, bounded bool) {
		if len(declared) != len(reported) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the command reports %d", kind, len(declared), len(reported))
			return
		}
		for i, d := range declared {
			m := reported[i]
			if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s %s %s, the command %s %s %s", kind, i, d.Name, d.Unit, d.Better, m.Name, m.Unit, m.Better)
			}
			if (d.Bound != nil) != bounded || bounded && (*d.Bound <= 0 || *d.Bound > 0.25) {
				t.Errorf("%s %s: bound %v", kind, d.Name, d.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)

	// Set-up time carries the largest bound, so work moved into set-up
	// cannot hide behind a looser one.
	if len(doc.EndToEnd) > 0 && doc.EndToEnd[0].Name == "setup_s" && doc.EndToEnd[0].Bound != nil {
		for _, m := range doc.EndToEnd[1:] {
			if m.Bound != nil && *m.Bound > *doc.EndToEnd[0].Bound {
				t.Errorf("%s has bound %v, above setup_s's %v", m.Name, *m.Bound, *doc.EndToEnd[0].Bound)
			}
		}
	}
}
