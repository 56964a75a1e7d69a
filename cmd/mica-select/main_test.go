package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mica"
)

func smallResults(t *testing.T) string {
	t.Helper()
	var bs []mica.Benchmark
	for i, b := range mica.Benchmarks() {
		if i%10 == 0 {
			bs = append(bs, b)
		}
	}
	cfg := mica.DefaultConfig()
	cfg.InstBudget = 5_000
	res, err := mica.ProfileBenchmarksCtx(context.Background(), bs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "results.json")
	if err := mica.SaveResults(path, cfg.InstBudget, res); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSelectFromCache(t *testing.T) {
	cache := smallResults(t)
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	runErr := run(5_000, cache, 7)
	w.Close()
	os.Stdout = old
	out := <-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	for _, want := range []string{"genetic algorithm", "correlation elimination", "PCA baseline", "rho"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}
