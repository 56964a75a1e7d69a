package suites

import (
	"errors"
	"sync"
	"testing"

	"mica/internal/kernels"
	"mica/internal/vm"
)

func TestExactly122Benchmarks(t *testing.T) {
	if Count() != 122 {
		t.Fatalf("registry has %d benchmarks, Table I has 122", Count())
	}
}

func TestSuiteSizesMatchTableI(t *testing.T) {
	want := map[string]int{
		BioInfoMark:        12,
		BioMetricsWorkload: 8,
		CommBench:          12,
		MediaBench:         12,
		MiBench:            30,
		SPEC:               48,
	}
	total := 0
	for suite, n := range want {
		got := len(BySuite(suite))
		if got != n {
			t.Errorf("%s has %d benchmarks, want %d", suite, got, n)
		}
		total += got
	}
	if total != Count() {
		t.Errorf("suite sizes sum to %d, registry has %d", total, Count())
	}
}

func TestNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range All() {
		n := b.Name()
		if seen[n] {
			t.Errorf("duplicate benchmark name %q", n)
		}
		seen[n] = true
	}
}

func TestAllKernelsExistAndSizesValid(t *testing.T) {
	for _, b := range All() {
		k, err := kernels.ByName(b.Kernel)
		if err != nil {
			t.Errorf("%s: %v", b.Name(), err)
			continue
		}
		if b.Size < 1 || b.Size > k.MaxSize {
			t.Errorf("%s: size %d outside kernel %s range [1, %d]",
				b.Name(), b.Size, k.Name, k.MaxSize)
		}
		if b.PaperICountM <= 0 {
			t.Errorf("%s: missing Table I instruction count", b.Name())
		}
	}
}

func TestSeedsDifferAcrossBenchmarks(t *testing.T) {
	// Benchmarks sharing a kernel must still get different inputs.
	a, err := ByName("SPEC2000/gzip/log")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByName("SPEC2000/gzip/source")
	if err != nil {
		t.Fatal(err)
	}
	if a.seed() == b.seed() {
		t.Error("two distinct benchmarks derived the same seed")
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("nope/nope/nope"); err == nil {
		t.Error("unknown name accepted")
	}
	got, err := ByName("SPEC2000/mcf/ref")
	if err != nil || got.Kernel != "pointerchase" {
		t.Errorf("ByName(mcf) = %+v, %v", got, err)
	}
}

// TestEveryBenchmarkRuns instantiates and runs every registry entry for a
// short budget. This is the suite-level integration smoke test.
func TestEveryBenchmarkRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("122 instantiations; skipped in -short")
	}
	for _, b := range All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			m, err := b.Instantiate()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(20_000, nil); !errors.Is(err, vm.ErrBudget) {
				t.Fatalf("stopped early: %v", err)
			}
		})
	}
}

func TestSelectBenchmarks(t *testing.T) {
	all, err := Select("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != Count() {
		t.Fatalf("empty list selected %d benchmarks, want the whole registry (%d)", len(all), Count())
	}
	two, err := Select("MiBench/sha/large, SPEC2000/gzip/program")
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 || two[0].Name() != "MiBench/sha/large" || two[1].Name() != "SPEC2000/gzip/program" {
		t.Fatalf("explicit list resolved to %v", two)
	}
	if _, err := Select("no/such/bench"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestAllReturnsCopy(t *testing.T) {
	a := All()
	a[0].Program = "mutated"
	if All()[0].Program == "mutated" {
		t.Error("All exposes internal registry storage")
	}
}

func TestBySuiteReturnsCopy(t *testing.T) {
	a := BySuite(SPEC)
	if len(a) == 0 {
		t.Fatal("no SPEC benchmarks")
	}
	a[0].Program = "mutated"
	if BySuite(SPEC)[0].Program == "mutated" {
		t.Error("BySuite exposes internal registry storage")
	}
}

// TestConcurrentInstantiateSharedKernel instantiates and runs benchmarks
// that share one kernel program from many goroutines at once, as
// ProfileBenchmarksCtx's worker pool does. Program.Finalize must be safe
// under this concurrency (run with -race in CI).
func TestConcurrentInstantiateSharedKernel(t *testing.T) {
	// Both entries are backed by the smithwaterman kernel.
	names := []string{"BioInfoMark/ce/ce", "BioInfoMark/hmmer/search-artemia"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range names {
				b, err := ByName(name)
				if err != nil {
					t.Error(err)
					return
				}
				m, err := b.Instantiate()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := m.Run(2_000, nil); !errors.Is(err, vm.ErrBudget) {
					t.Errorf("%s stopped early: %v", name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
