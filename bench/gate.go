package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"

	"mica"
)

// The correctness gate. Every run checks the golden vectors, output
// identity across iterations and processes, and the batch workloads'
// output digests recorded in digests.json, which hold at every seed
// because the seed only reorders their inputs; a failed check makes
// the run exit non-zero without a result line.

//go:embed digests.json
var digestsJSON []byte

// goldenBudget and the golden file are the ones the repository's
// TestGoldenVectors pins.
const goldenBudget = 100_000

type goldenEntry struct {
	Name  string    `json:"name"`
	Insts uint64    `json:"insts"`
	Chars []float64 `json:"chars"`
	HPC   []float64 `json:"hpc"`
}

// checkGolden profiles the golden benchmarks and compares them with
// testdata/golden_vectors.json to within 1e-12.
func checkGolden(root string) error {
	data, err := os.ReadFile(filepath.Join(root, "testdata", "golden_vectors.json"))
	if err != nil {
		return err
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("golden file: %w", err)
	}
	if len(want) == 0 {
		return fmt.Errorf("golden file holds no entries")
	}
	const tol = 1e-12
	cfg := mica.DefaultConfig()
	cfg.InstBudget = goldenBudget
	for _, w := range want {
		b, err := mica.BenchmarkByName(w.Name)
		if err != nil {
			return err
		}
		got, err := mica.Profile(b, cfg)
		if err != nil {
			return err
		}
		if got.Insts != w.Insts || len(w.Chars) != mica.NumChars || len(w.HPC) != mica.NumHPCMetrics {
			return fmt.Errorf("%s: %d instructions, want %d", w.Name, got.Insts, w.Insts)
		}
		for i, v := range w.Chars {
			if math.Abs(got.Chars[i]-v) > tol {
				return fmt.Errorf("%s: characteristic %s = %v, want %v", w.Name, mica.CharName(i), got.Chars[i], v)
			}
		}
		for i, v := range w.HPC {
			if math.Abs(got.HPC[i]-v) > tol {
				return fmt.Errorf("%s: HPC metric %s = %v, want %v", w.Name, mica.HPCMetricName(i), got.HPC[i], v)
			}
		}
	}
	return nil
}

// digester hashes a workload's output into the digest the gate
// compares.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) str(s string) *digester {
	fmt.Fprintf(d.h, "%d:%s;", len(s), s)
	return d
}

func (d *digester) ints(xs ...int) *digester {
	for _, x := range xs {
		_ = binary.Write(d.h, binary.LittleEndian, int64(x))
	}
	return d
}

func (d *digester) floats(xs ...float64) *digester {
	for _, x := range xs {
		_ = binary.Write(d.h, binary.LittleEndian, math.Float64bits(x))
	}
	return d
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// checkDigest compares an output digest with the one recorded under
// key in digests.json; an empty key has nothing to compare. The error
// carries the full new digest, so an intended output change is
// recorded by pasting it into digests.json.
func checkDigest(key, got string) error {
	if key == "" {
		return nil
	}
	recorded := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &recorded); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	want, ok := recorded[key]
	if !ok {
		return fmt.Errorf("no digest recorded for %s in digests.json; this run's is %s", key, got)
	}
	if got != want {
		return fmt.Errorf("output digest for %s is %s, digests.json records %s", key, got, want)
	}
	return nil
}

// sameDigests checks that every operation produced the same output.
func sameDigests(digests []string) error {
	for i, d := range digests {
		if d != digests[0] {
			return fmt.Errorf("operation %d produced output %.16s..., operation 0 produced %.16s...", i, d, digests[0])
		}
	}
	return nil
}
