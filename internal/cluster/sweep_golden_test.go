package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The sweep golden pins the k-sweep at minibatch scale bit for bit:
// an overlapping, z-scored-shaped matrix (the recipe of
// TestMiniBatchSSEWithinFivePercentOverlapping) large enough that the
// minibatch engine takes its real sampled path, swept with each engine
// forced, cold and warm-started, at 1 and 2 workers. Any change to the
// assignment kernel, the centroid update or the seeding must leave the
// chosen K, every BIC score and SSE, and the chosen assignment
// unchanged.
//
// Regenerate with:
//
//	go test -run TestSweepGolden ./internal/cluster/ -args -update-sweep-golden
//

// Only do so for changes that intentionally alter clustering results.

var updateSweepGolden = flag.Bool("update-sweep-golden", false, "rewrite testdata/sweep_golden.json")

const (
	sweepGoldenRows = 12288
	sweepGoldenMaxK = 10
	sweepGoldenSeed = 2006
)

type sweepGoldenCase struct {
	K int `json:"k"`
	// Scores and SSEs are the IEEE-754 bit patterns of the sweep's
	// per-k BIC scores and SSEs, so the comparison is exact.
	Scores []uint64 `json:"scores"`
	SSEs   []uint64 `json:"sses"`
	// Assign is the sha256 of Best.Assign (little-endian uint32s).
	Assign string `json:"assign"`
}

func sweepGoldenOf(sel Selection) sweepGoldenCase {
	g := sweepGoldenCase{K: sel.Best.K}
	for i := range sel.Scores {
		g.Scores = append(g.Scores, math.Float64bits(sel.Scores[i]))
		g.SSEs = append(g.SSEs, math.Float64bits(sel.SSEs[i]))
	}
	h := sha256.New()
	var b [4]byte
	for _, c := range sel.Best.Assign {
		binary.LittleEndian.PutUint32(b[:], uint32(c))
		h.Write(b[:])
	}
	g.Assign = hex.EncodeToString(h.Sum(nil))
	return g
}

func TestSweepGolden(t *testing.T) {
	m := SyntheticBlobs(sweepGoldenRows, 16, 8, 0.8, 1.5, 9)
	engs := []struct {
		name string
		eng  engine
	}{{"lloyd", engineLloyd}, {"minibatch", engineMiniBatch}}

	got := map[string]sweepGoldenCase{}
	for _, e := range engs {
		cold := sweep(t, m, sweepGoldenMaxK, sweepGoldenSeed, SweepOptions{Workers: 1}, e.eng)
		// Warm-start from a mid-sweep K, so the swept k values exercise
		// every warmSeeds branch: truncation by occupancy, the exact
		// copy and the k-means++ extension.
		prev := sweep(t, m, 5, sweepGoldenSeed+1, SweepOptions{Workers: 1}, e.eng)
		warm := &WarmStart{Centroids: prev.Best.Centroids, Counts: occupancy(prev.Best)}
		for _, workers := range []int{1, 2} {
			for _, mode := range []struct {
				name string
				warm *WarmStart
			}{{"cold", nil}, {"warm", warm}} {
				sel := cold
				if workers != 1 || mode.warm != nil {
					sel = sweep(t, m, sweepGoldenMaxK, sweepGoldenSeed, SweepOptions{Workers: workers, Warm: mode.warm}, e.eng)
				}
				g := sweepGoldenOf(sel)
				key := e.name + "/" + mode.name
				if prior, ok := got[key]; ok {
					if !reflect.DeepEqual(prior, g) {
						t.Errorf("%s: %d workers differ from 1 worker", key, workers)
					}
					continue
				}
				got[key] = g
			}
		}
	}

	path := filepath.Join("testdata", "sweep_golden.json")
	if *updateSweepGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading sweep golden (regenerate with -update-sweep-golden): %v", err)
	}
	var want map[string]sweepGoldenCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, test ran %d", len(want), len(got))
	}
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: case not run", key)
		} else if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: sweep moved: K %d (want %d), Best.Assign hash %s (want %s), scores/SSEs bit-equal: %v/%v",
				key, g.K, w.K, g.Assign, w.Assign, reflect.DeepEqual(g.Scores, w.Scores), reflect.DeepEqual(g.SSEs, w.SSEs))
		}
	}
}
