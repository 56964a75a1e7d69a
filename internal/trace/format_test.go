package trace_test

// The format tests live in an external test package so they can drive
// the real event producer (internal/vm imports trace; importing it
// back from an internal test would cycle).

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mica/internal/isa"
	"mica/internal/suites"
	"mica/internal/trace"
)

// recordBenchmark records budget instructions of a registry benchmark
// into dir and returns the trace path.
func recordBenchmark(t testing.TB, dir, name string, budget uint64) string {
	t.Helper()
	b, err := suites.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := b.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "bench.trc")
	n, err := trace.Record(m, path, budget)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	if n != budget {
		t.Fatalf("recorded %d events, want %d", n, budget)
	}
	return path
}

// collect replays src in budget-sized slices, returning every event and
// the terminal error of each slice.
func collect(t *testing.T, src trace.Source, slice uint64) []trace.Event {
	t.Helper()
	var evs []trace.Event
	obs := trace.ObserverFunc(func(ev *trace.Event) { evs = append(evs, *ev) })
	for {
		n, err := src.Run(slice, obs)
		if err == nil {
			return evs
		}
		if !errors.Is(err, trace.ErrBudget) {
			t.Fatalf("Run: %v", err)
		}
		if n != slice {
			t.Fatalf("budgeted Run returned %d events, want %d", n, slice)
		}
	}
}

// TestRoundTripMatchesLiveVM is the core differential guarantee at the
// event level: replaying a recorded run yields the identical event
// sequence, event by event and field by field, whether replayed in one
// pass or sliced into interval-sized budgets like the phase pipelines
// do.
func TestRoundTripMatchesLiveVM(t *testing.T) {
	const budget = 30_000
	for _, name := range []string{
		"MiBench/sha/large", // crypto: mixed int/branch
		"CommBench/drr/drr", // scheduling: heavy control flow
		"SPEC2000/ammp/ref", // FP
		"CommBench/rtr/rtr", // pointer chasing: irregular loads
	} {
		t.Run(name, func(t *testing.T) {
			b, err := suites.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := b.Instantiate()
			if err != nil {
				t.Fatal(err)
			}
			var live []trace.Event
			_, err = m.Run(budget, trace.ObserverFunc(func(ev *trace.Event) {
				live = append(live, *ev)
			}))
			if err != nil && !errors.Is(err, trace.ErrBudget) {
				t.Fatal(err)
			}

			path := recordBenchmark(t, t.TempDir(), name, budget)
			r, err := trace.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			replayed := collect(t, r, 0)
			if len(replayed) != len(live) {
				t.Fatalf("replayed %d events, live VM produced %d", len(replayed), len(live))
			}
			for i := range live {
				if live[i] != replayed[i] {
					t.Fatalf("event %d differs:\nlive:   %+v\nreplay: %+v", i, live[i], replayed[i])
				}
			}

			// Sliced replay (the phase pipelines' interval pattern) and
			// a Reset pass must both reproduce the same stream.
			r2, err := trace.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			sliced := collect(t, r2, 777)
			if len(sliced) != len(live) {
				t.Fatalf("sliced replay yielded %d events, want %d", len(sliced), len(live))
			}
			for i := range live {
				if live[i] != sliced[i] {
					t.Fatalf("sliced event %d differs", i)
				}
			}
			r2.Reset()
			again := collect(t, r2, 0)
			if len(again) != len(live) {
				t.Fatalf("post-Reset replay yielded %d events, want %d", len(again), len(live))
			}
			for i := range live {
				if live[i] != again[i] {
					t.Fatalf("post-Reset event %d differs", i)
				}
			}
		})
	}
}

// TestReaderBudgetContract pins the Source semantics the pipelines
// depend on: ErrBudget exactly when the budget stops delivery, nil at
// end of trace, sequence numbers continuing across calls.
func TestReaderBudgetContract(t *testing.T) {
	path := recordBenchmark(t, t.TempDir(), "MiBench/sha/large", 1000)
	r, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := r.Run(400, nil)
	if n != 400 || !errors.Is(err, trace.ErrBudget) {
		t.Fatalf("Run(400) = %d, %v; want 400, ErrBudget", n, err)
	}
	var first, last uint64 = ^uint64(0), 0
	n, err = r.Run(0, trace.ObserverFunc(func(ev *trace.Event) {
		if first == ^uint64(0) {
			first = ev.Seq
		}
		last = ev.Seq
	}))
	if n != 600 || err != nil {
		t.Fatalf("Run(0) after budget = %d, %v; want 600, nil", n, err)
	}
	if first != 400 || last != 999 {
		t.Fatalf("continuation seq range [%d, %d], want [400, 999]", first, last)
	}
	if n, err := r.Run(0, nil); n != 0 || err != nil {
		t.Fatalf("Run at end of trace = %d, %v; want 0, nil", n, err)
	}
	if r.Retired() != 1000 {
		t.Fatalf("Retired() = %d, want 1000", r.Retired())
	}
}

// TestRecordBudgetIsNotAnError pins Record's contract: a budget-bounded
// recording succeeds, and the file holds exactly the budget.
func TestRecordBudgetIsNotAnError(t *testing.T) {
	dir := t.TempDir()
	path := recordBenchmark(t, dir, "CommBench/drr/drr", 5000)
	ev, err := trace.Validate(mustRead(t, path))
	if err != nil {
		t.Fatal(err)
	}
	if ev != 5000 {
		t.Fatalf("trace holds %d events, want 5000", ev)
	}
}

// TestWriterRejectsInconsistentStream: a stream whose metadata changes
// under one PC (impossible from the VM, possible from a buggy hand
// producer) is rejected at record time, and the target path never
// appears.
func TestWriterRejectsInconsistentStream(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.trc")
	w, err := trace.NewWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	ev := trace.Event{Seq: 0, PC: 0x10000, Op: 1, Class: 0}
	ev.DeriveDeps()
	ev.Class = ev.Op.Class()
	w.Observe(&ev)
	ev2 := ev
	ev2.Seq = 1
	ev2.NSrc = 2 // metadata changed under the same PC
	w.Observe(&ev2)
	if err := w.Close(); err == nil {
		t.Fatal("Close accepted an inconsistent stream")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("rejected recording left a file behind: %v", err)
	}
}

// TestWriterRejectsTooManyStatics: a stream touching one static
// instruction more than a trace may hold (1<<14) is refused at record
// time, and the target path never appears.
func TestWriterRejectsTooManyStatics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wide.trc")
	w, err := trace.NewWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 1<<14; i++ {
		ev := trace.Event{Seq: uint64(i), PC: isa.PCForIndex(i), Op: isa.OpAddQ, Dst: isa.RegInvalid}
		ev.Class = ev.Op.Class()
		ev.DeriveDeps()
		w.Observe(&ev)
	}
	err = w.Close()
	if err == nil || !strings.Contains(err.Error(), "static instructions") {
		t.Fatalf("Close = %v, want the static-record bound", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("rejected recording left a file behind: %v", err)
	}
}

// TestVersionMismatchNamesFile: the version error carries the file name
// and the "version N, want M" wording shared with the ivstore
// manifest.
func TestVersionMismatchNamesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "future.trc")
	data := mustRead(t, recordBenchmark(t, dir, "MiBench/sha/large", 100))
	data[8] = 99 // version field
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := trace.Open(path)
	if err == nil {
		t.Fatal("Open accepted a future version")
	}
	for _, want := range []string{path, "version 99, want 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("version error %q does not mention %q", err, want)
		}
	}
}

func mustRead(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSaveBytesRoundTrip: SaveBytes commits validated bytes under the
// durable-rename protocol and refuses bytes that do not carry a trace
// header, so the serving layer can never persist garbage under a .trc
// name.
func TestSaveBytesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := recordBenchmark(t, dir, "MiBench/sha/large", 500)
	raw := mustRead(t, src)

	dst := filepath.Join(dir, "copy.trc")
	if err := trace.SaveBytes(dst, raw); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, dst); string(got) != string(raw) {
		t.Fatal("SaveBytes did not preserve the trace bytes")
	}
	if _, err := os.Stat(dst + ".tmp"); !os.IsNotExist(err) {
		t.Error("SaveBytes left its temporary file behind")
	}
	r, err := trace.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != dst {
		t.Errorf("reader name %q, want the path %q", r.Name(), dst)
	}

	if err := trace.SaveBytes(filepath.Join(dir, "bad.trc"), []byte("not a trace")); err == nil {
		t.Error("SaveBytes accepted headerless bytes")
	}
	if err := trace.SaveBytes(filepath.Join(dir, "missing", "deep", "x.trc"), raw); err == nil {
		t.Error("SaveBytes wrote into a nonexistent directory")
	}
}

// TestOpenAndRecordErrorPaths: the file-level failure modes surface as
// errors, not panics or partial files.
func TestOpenAndRecordErrorPaths(t *testing.T) {
	dir := t.TempDir()
	if _, err := trace.Open(filepath.Join(dir, "nope.trc")); err == nil {
		t.Error("Open accepted a missing file")
	}
	b, err := suites.ByName("MiBench/sha/large")
	if err != nil {
		t.Fatal(err)
	}
	m, err := b.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Record(m, filepath.Join(dir, "no", "such", "dir.trc"), 100); err == nil {
		t.Error("Record accepted an uncreatable path")
	}
}

// TestWriterEventsCounter: Events tracks the recorded count as the
// stream flows, matching what Record returns and what the trailer
// commits.
func TestWriterEventsCounter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "n.trc")
	w, err := trace.NewWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := suites.ByName("MiBench/sha/large")
	if err != nil {
		t.Fatal(err)
	}
	m, err := b.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(250, w); !errors.Is(err, trace.ErrBudget) {
		t.Fatalf("Run: %v", err)
	}
	if w.Events() != 250 {
		t.Errorf("Events() = %d mid-stream, want 250", w.Events())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	n, err := trace.Validate(mustRead(t, path))
	if err != nil {
		t.Fatal(err)
	}
	if n != 250 {
		t.Errorf("committed trace replays %d events, want 250", n)
	}
}
