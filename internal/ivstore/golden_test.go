package ivstore

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Golden round-trip: testdata/golden holds a small committed store
// (two float32 shards plus the manifest) written by this very package. The test pins both directions of the format:
//
//   - encoder stability: re-encoding the deterministic source shards
//     must reproduce the committed files byte for byte, so any change
//     to the on-disk layout is a reviewed, versioned decision;
//   - decoder correctness: opening the committed store must yield the
//     expected values, so old stores stay readable.
//
// Regenerate (after a deliberate, version-bumped format change) with:
//
//	IVSTORE_UPDATE_GOLDEN=1 go test ./internal/ivstore/ -run Golden
const goldenDir = "testdata/golden"

// goldenStore builds the deterministic store contents.
func goldenStore(t *testing.T, dir string) {
	t.Helper()
	st, err := Create(dir, Config{Dims: 6, ConfigHash: "golden-cfg"})
	if err != nil {
		t.Fatal(err)
	}
	instsA, mA := synthShard(12, 6, 41)
	if err := st.WriteShard("golden/f32/a", instsA, mA); err != nil {
		t.Fatal(err)
	}
	instsB, mB := synthShard(9, 6, 42)
	if err := st.WriteShard("golden/f32/b", instsB, mB); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit([]string{"golden/f32/a", "golden/f32/b"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenStoreRoundTrip(t *testing.T) {
	if os.Getenv("IVSTORE_UPDATE_GOLDEN") != "" {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		goldenStore(t, goldenDir)
		t.Log("golden store regenerated")
	}

	// Encoder stability: a fresh build is byte-identical to the
	// committed files.
	fresh := t.TempDir()
	goldenStore(t, fresh)
	all, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatalf("golden store missing (run with IVSTORE_UPDATE_GOLDEN=1 to create): %v", err)
	}
	// The advisory lock file is runtime state, not format: a previous
	// Open of the golden dir may have left one behind.
	var entries []os.DirEntry
	for _, e := range all {
		if e.Name() != lockName {
			entries = append(entries, e)
		}
	}
	if len(entries) != 3 { // manifest + 2 shards
		t.Fatalf("golden store has %d files, want 3", len(entries))
	}
	for _, e := range entries {
		want, err := os.ReadFile(filepath.Join(goldenDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(fresh, e.Name()))
		if err != nil {
			t.Fatalf("fresh build lacks golden file %s: %v", e.Name(), err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: fresh encoding diverges from committed golden bytes", e.Name())
		}
	}

	// Decoder correctness: the committed store opens and decodes to the
	// same values as the fresh one.
	gSt, err := Open(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	fSt, err := Open(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gSt.Benchmarks(), fSt.Benchmarks()) || gSt.NumRows() != fSt.NumRows() {
		t.Fatal("golden store inventory diverges")
	}
	for i := range gSt.Shards() {
		g, err := gSt.ReadShard(i)
		if err != nil {
			t.Fatal(err)
		}
		f, err := fSt.ReadShard(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, f) {
			t.Errorf("shard %d decodes differently from golden bytes", i)
		}
	}
}
