package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mica"
)

// capture redirects stdout during f and returns what was printed.
func capture(t *testing.T, f func() error) (string, error) {
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

func TestRunList(t *testing.T) {
	out, err := capture(t, func() error { return run("", false, true, 1000, "", "") })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "SPEC2000/mcf/ref") {
		t.Error("list output missing mcf")
	}
	if strings.Count(out, "\n") < 122 {
		t.Errorf("list too short: %d lines", strings.Count(out, "\n"))
	}
}

func TestRunSingleBenchmark(t *testing.T) {
	out, err := capture(t, func() error {
		return run("MiBench/sha/large", false, false, 5_000, "", "")
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pct_loads", "ppm_pas", "ipc_ev56", "5000 instructions"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if _, err := capture(t, func() error { return run("nope", false, false, 1000, "", "") }); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunNoModeIsError(t *testing.T) {
	if _, err := capture(t, func() error { return run("", false, false, 1000, "", "") }); err == nil {
		t.Error("missing mode accepted")
	}
}

func TestRunAllRendersTableII(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles all 122 benchmarks")
	}
	out, err := capture(t, func() error { return run("", true, false, 2_000, "", "") })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table II: microarchitecture-independent characteristics", mica.CharName(mica.NumChars - 1)} {
		if !strings.Contains(out, want) {
			t.Errorf("-all output missing %q", want)
		}
	}
}

// TestRecordReplayRoundTrip: -record writes a trace whose -trace
// replay renders the identical characterization tables the live
// benchmark does.
func TestRecordReplayRoundTrip(t *testing.T) {
	trc := filepath.Join(t.TempDir(), "sha.trc")
	rec, err := capture(t, func() error {
		return run("MiBench/sha/large", false, false, 5_000, trc, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rec, "recorded 5000 instructions") {
		t.Fatalf("record output %q missing instruction count", rec)
	}
	live, err := capture(t, func() error {
		return run("MiBench/sha/large", false, false, 5_000, "", "")
	})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := capture(t, func() error {
		return run("", false, false, 5_000, "", trc)
	})
	if err != nil {
		t.Fatal(err)
	}
	// The header line names the source (kernel vs trace file); every
	// number below it must match exactly.
	liveBody := live[strings.Index(live, "\n"):]
	replayBody := replay[strings.Index(replay, "\n"):]
	if replayBody != liveBody {
		t.Error("trace replay tables diverge from the live benchmark")
	}
	if !strings.Contains(replay, "trace "+trc) {
		t.Errorf("replay header %q does not name the trace file", strings.SplitN(replay, "\n", 2)[0])
	}
}

// TestRecordTraceFlagValidation: the record/trace flag combinations
// that cannot work are rejected up front.
func TestRecordTraceFlagValidation(t *testing.T) {
	cases := []struct {
		name          string
		bench         string
		all           bool
		record, trace string
	}{
		{"record and trace", "MiBench/sha/large", false, "a.trc", "b.trc"},
		{"record without bench", "", false, "a.trc", ""},
		{"record with all", "MiBench/sha/large", true, "a.trc", ""},
		{"trace with all", "", true, "", "a.trc"},
	}
	for _, tc := range cases {
		if _, err := capture(t, func() error {
			return run(tc.bench, tc.all, false, 1000, tc.record, tc.trace)
		}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
