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
		if i%8 == 0 {
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

func captureRun(t *testing.T, f func() error) (string, error) {
	t.Helper()
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
	ferr := f()
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

func TestClusterFromCache(t *testing.T) {
	cache := smallResults(t)
	out, err := captureRun(t, func() error {
		return run(5_000, cache, 10, 1, false, "", false, true)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "BIC-selected K =") || !strings.Contains(out, "cluster 1") {
		t.Errorf("cluster output wrong:\n%s", out)
	}
}

func TestClusterKiviatASCII(t *testing.T) {
	cache := smallResults(t)
	out, err := captureRun(t, func() error {
		return run(5_000, cache, 6, 1, true, "", false, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "*") {
		t.Error("kiviat markers missing")
	}
}

func TestClusterSVGOutput(t *testing.T) {
	cache := smallResults(t)
	dir := filepath.Join(t.TempDir(), "svg")
	if _, err := captureRun(t, func() error {
		return run(5_000, cache, 6, 1, false, dir, false, false)
	}); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no SVG files written")
	}
	data, err := os.ReadFile(filepath.Join(dir, files[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Error("not an SVG file")
	}
}

func TestClusterAllCharsRejectsSVG(t *testing.T) {
	cache := smallResults(t)
	if _, err := captureRun(t, func() error {
		return run(5_000, cache, 6, 1, false, t.TempDir(), true, false)
	}); err == nil {
		t.Error("-svg with -all-chars accepted")
	}
}

func TestClusterAllCharsSpace(t *testing.T) {
	cache := smallResults(t)
	out, err := captureRun(t, func() error {
		return run(5_000, cache, 6, 1, false, "", true, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "all 47 characteristics") {
		t.Error("all-chars mode label missing")
	}
}
