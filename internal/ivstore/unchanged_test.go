package ivstore

import (
	"os"
	"path/filepath"
	"testing"
)

// statOf stats path, failing the test if it is missing.
func statOf(t *testing.T, path string) os.FileInfo {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// TestRecommitSameOrderKeepsManifest: re-committing the order a store
// already holds (the unchanged incremental rerun: Adopt every shard,
// Commit the same order) keeps manifest.json in place — same inode,
// no rename — and the store still opens and verifies clean.
func TestRecommitSameOrderKeepsManifest(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dims: 6, ConfigHash: "h"}
	names := []string{"s/a", "s/b", "s/c"}
	buildStore(t, dir, cfg, names, 9)
	manPath := filepath.Join(dir, manifestName)
	before := statOf(t, manPath)

	_, shards, err := Inventory(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Create(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		if err := st.Adopt(sh); err != nil {
			t.Fatal(err)
		}
	}
	unchanged := metUnchangedWrites.Value()
	if _, err := st.Commit(names); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := metUnchangedWrites.Value() - unchanged; got != 1 {
		t.Errorf("unchanged-writes counter moved by %v, want 1 (the manifest)", got)
	}
	if !os.SameFile(before, statOf(t, manPath)) {
		t.Error("identical re-commit replaced manifest.json")
	}

	opened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if len(opened.Shards()) != len(names) {
		t.Fatalf("reopened store has %d shards, want %d", len(opened.Shards()), len(names))
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("store not clean after in-place re-commit:\n%s", rep.String())
	}
}

// TestIdenticalRewritesKeepFiles: re-writing a shard with the same
// rows and re-writing an aux document with the same bytes keep both
// files in place, leave no temp files, and count two unchanged writes.
func TestIdenticalRewritesKeepFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dims: 5, ConfigHash: "h"}
	st, err := Create(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	insts, m := synthShard(7, 5, 42)
	if err := st.WriteShard("s/a", insts, m); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteAux("warm.aux.json", []byte(`{"k":3}`)); err != nil {
		t.Fatal(err)
	}
	shardPath := filepath.Join(dir, ShardFileName("s/a", st.stamp()))
	auxPath := filepath.Join(dir, "warm.aux.json")
	shardBefore, auxBefore := statOf(t, shardPath), statOf(t, auxPath)

	unchanged := metUnchangedWrites.Value()
	if err := st.WriteShard("s/a", insts, m); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteAux("warm.aux.json", []byte(`{"k":3}`)); err != nil {
		t.Fatal(err)
	}
	if got := metUnchangedWrites.Value() - unchanged; got != 2 {
		t.Errorf("unchanged-writes counter moved by %v, want 2", got)
	}
	if !os.SameFile(shardBefore, statOf(t, shardPath)) {
		t.Error("identical shard rewrite replaced the shard file")
	}
	if !os.SameFile(auxBefore, statOf(t, auxPath)) {
		t.Error("identical WriteAux replaced the aux file")
	}
	for _, tmp := range []string{shardPath + ".tmp", auxPath + ".tmp"} {
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("temp file %s left behind: %v", filepath.Base(tmp), err)
		}
	}
}

// TestChangedContentReplacesFile: only byte-identical content is kept
// in place. A payload of the same size but other bytes, and one of
// another size, each go through the full protocol — a new file renamed
// over the old one — and read back as the new bytes.
func TestChangedContentReplacesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.aux.json")
	if err := writeFileDurable(path, []byte(`{"k":3}`), auxPoints); err != nil {
		t.Fatal(err)
	}
	for _, next := range []string{`{"k":4}`, `{"k":40}`} {
		before := statOf(t, path)
		unchanged := metUnchangedWrites.Value()
		if err := writeFileDurable(path, []byte(next), auxPoints); err != nil {
			t.Fatal(err)
		}
		if os.SameFile(before, statOf(t, path)) {
			t.Errorf("write of %s kept the old file in place", next)
		}
		if got := metUnchangedWrites.Value() - unchanged; got != 0 {
			t.Errorf("write of %s counted %v unchanged writes, want 0", next, got)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != next {
			t.Fatalf("read back %q (err %v), want %s", got, err, next)
		}
	}
}
