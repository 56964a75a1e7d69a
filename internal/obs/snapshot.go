package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// HistSnap is the JSON form of one histogram child in a Snapshot.
type HistSnap struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snap is a point-in-time copy of a registry, keyed by
// `name` or `name{label="value",...}` for labeled children. It is the
// -stats dump format for the CLIs. bench/ takes its per-layer
// registry deltas from the Prometheus exposition (WritePrometheus,
// /metrics) instead.
type Snap struct {
	Counters   map[string]float64  `json:"counters,omitempty"`
	Gauges     map[string]float64  `json:"gauges,omitempty"`
	Histograms map[string]HistSnap `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snap {
	s := Snap{
		Counters:   map[string]float64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSnap{},
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	for _, f := range fams {
		for _, e := range f.sortedChildren() {
			key := f.name + labelSet(f.labels, e.vals, "", "")
			switch m := e.metric.(type) {
			case *Counter:
				s.Counters[key] = m.Value()
			case *Gauge:
				s.Gauges[key] = m.Value()
			case *Histogram:
				s.Histograms[key] = HistSnap{
					Count: m.Count(),
					Sum:   m.Sum(),
					P50:   m.Quantile(0.50),
					P90:   m.Quantile(0.90),
					P99:   m.Quantile(0.99),
				}
			}
		}
	}
	return s
}

// DumpStats writes Default()'s snapshot as indented JSON to path, or
// to stdout when path is "-". It backs the CLIs' -stats flag.
func DumpStats(path string) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(Default().Snapshot()); err != nil {
		return fmt.Errorf("write stats: %w", err)
	}
	return nil
}

// LayerOf extracts the <layer> component of a mica_<layer>_<name>
// metric key (label suffix tolerated). Empty when malformed.
func LayerOf(key string) string {
	name, _, _ := strings.Cut(key, "{")
	parts := strings.SplitN(name, "_", 3)
	if len(parts) < 3 || parts[0] != "mica" {
		return ""
	}
	return parts[1]
}
