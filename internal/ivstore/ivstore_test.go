package ivstore

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mica/internal/stats"
)

// synthShard builds a deterministic rows x cols shard with values in
// assorted magnitudes (fractions, counts, a constant column) so the
// encodings see realistic characteristic ranges.
func synthShard(rows, cols int, seed int64) ([]uint64, *stats.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	insts := make([]uint64, rows)
	m := stats.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		insts[i] = 1000 + uint64(rng.Intn(500))
		for j := 0; j < cols; j++ {
			switch {
			case j == 3: // constant column
				m.Set(i, j, 0.125)
			case j%3 == 0: // fraction-like
				m.Set(i, j, rng.Float64())
			case j%3 == 1: // count-like
				m.Set(i, j, float64(rng.Intn(100000)))
			default: // signed, spread
				m.Set(i, j, (rng.Float64()-0.5)*1e4)
			}
		}
	}
	return insts, m
}

func buildStore(t *testing.T, dir string, cfg Config, names []string, rows int) *Store {
	t.Helper()
	st, err := Create(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		insts, m := synthShard(rows+i, cfg.Dims, int64(100+i))
		if err := st.WriteShard(name, insts, m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Commit(names); err != nil {
		t.Fatal(err)
	}
	// Release the build handle's lock so the test can freely Create
	// over the directory; the returned Store's read accessors still
	// work after Close.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRoundTripFloat32: a written float32 store reads back exactly the
// float32-rounded source values through ReadShard, with row order
// equal to commit order.
func TestRoundTripFloat32(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dims: 9, ConfigHash: "h1"}
	names := []string{"suite/a/x", "suite/b/y", "suite/c/z"}
	orig := make(map[string]*stats.Matrix)
	origInsts := make(map[string][]uint64)
	st, err := Create(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		insts, m := synthShard(40+i, 9, int64(i))
		orig[name], origInsts[name] = m, insts
		if err := st.WriteShard(name, insts, m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Commit(names); err != nil {
		t.Fatal(err)
	}

	opened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := opened.Benchmarks(); !reflect.DeepEqual(got, names) {
		t.Fatalf("benchmarks %v, want %v", got, names)
	}
	if opened.Dims() != 9 || opened.ConfigHash() != "h1" {
		t.Fatalf("opened config %v diverges", opened.cfg)
	}
	row := 0
	for si, name := range names {
		sd, err := opened.ReadShard(si)
		if err != nil {
			t.Fatal(err)
		}
		if sd.Name != name || !reflect.DeepEqual(sd.Insts, origInsts[name]) {
			t.Fatalf("shard %d metadata diverges", si)
		}
		want := orig[name]
		for i := 0; i < want.Rows; i++ {
			for j := 0; j < want.Cols; j++ {
				exp := float64(float32(want.At(i, j)))
				if sd.Vecs.At(i, j) != exp {
					t.Fatalf("%s (%d,%d): %v, want float32 round %v", name, i, j, sd.Vecs.At(i, j), exp)
				}
			}
			row++
		}
	}
	if row != opened.NumRows() {
		t.Fatalf("iterated %d rows, store claims %d", row, opened.NumRows())
	}
}

// TestIncrementalAdoptCommit: a second build over the same directory
// adopts unchanged shards in place (files not rewritten), rebuilds
// only what changed, and prunes dropped shards' files on commit.
func TestIncrementalAdoptCommit(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dims: 6, ConfigHash: "cfg-v1"}
	buildStore(t, dir, cfg, []string{"a", "b", "drop-me"}, 20)
	prev, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Tag shard a's file so we can prove Commit left it untouched.
	aFile := filepath.Join(dir, prev.Shards()[0].File)
	droppedFile := prev.Shards()[2].File
	before, err := os.ReadFile(aFile)
	if err != nil {
		t.Fatal(err)
	}
	// Release prev's shared lock: Create takes the directory lock
	// exclusive. prev's in-memory accessors (Shards) remain usable.
	if err := prev.Close(); err != nil {
		t.Fatal(err)
	}

	next, err := Create(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range prev.Shards()[:2] { // reuse a, b; drop drop-me
		if err := next.Adopt(sh); err != nil {
			t.Fatal(err)
		}
	}
	insts, m := synthShard(25, 6, 99)
	if err := next.WriteShard("new", insts, m); err != nil {
		t.Fatal(err)
	}
	if _, err := next.Commit([]string{"a", "new", "b"}); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Benchmarks(); !reflect.DeepEqual(got, []string{"a", "new", "b"}) {
		t.Fatalf("benchmarks after incremental commit: %v", got)
	}
	after, err := os.ReadFile(aFile)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("adopted shard file was rewritten")
	}
	if _, err := os.Stat(filepath.Join(dir, droppedFile)); !os.IsNotExist(err) {
		t.Fatalf("dropped shard not pruned: %v", err)
	}
	// Duplicate names in the commit order are rejected (the read side
	// refuses them, so committing one would brick the store).
	if _, err := next.Commit([]string{"a", "a"}); err == nil {
		t.Fatal("duplicate commit order accepted")
	}
	// Adopting under a different config hash must refuse.
	other, err := Create(t.TempDir(), Config{Dims: 6, ConfigHash: "cfg-v2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Adopt(prev.Shards()[0]); err == nil {
		t.Fatal("adopt across config hashes accepted")
	}
}

// TestCommitRequiresStagedShards: committing an order naming an
// unstaged benchmark fails and leaves no manifest behind.
func TestCommitRequiresStagedShards(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, Config{Dims: 4})
	if err != nil {
		t.Fatal(err)
	}
	insts, m := synthShard(10, 4, 1)
	if err := st.WriteShard("a", insts, m); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit([]string{"a", "missing"}); err == nil {
		t.Fatal("commit with unstaged shard accepted")
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); !os.IsNotExist(err) {
		t.Fatal("failed commit left a manifest")
	}
}

// TestWriteShardValidation rejects malformed appends.
func TestWriteShardValidation(t *testing.T) {
	st, err := Create(t.TempDir(), Config{Dims: 4})
	if err != nil {
		t.Fatal(err)
	}
	insts, m := synthShard(10, 4, 1)
	if err := st.WriteShard("", insts, m); err == nil {
		t.Error("empty name accepted")
	}
	if err := st.WriteShard("b", insts[:5], m); err == nil {
		t.Error("insts/rows mismatch accepted")
	}
	_, wrong := synthShard(10, 5, 1)
	if err := st.WriteShard("b", insts, wrong); err == nil {
		t.Error("wrong dimensionality accepted")
	}
	if err := st.WriteShard("b", nil, stats.NewMatrix(0, 4)); err == nil {
		t.Error("empty shard accepted")
	}
	if _, err := Create(t.TempDir(), Config{Dims: 0}); err == nil {
		t.Error("zero dims accepted")
	}
}

// TestConfigZeroValueDefaults: the zero Config (plus the required
// Dims) writes the one encoding, float32, in the format earlier
// versions wrote it: the manifest names "float32" and shard byte 8 is
// 0, so stores stay readable in both directions.
func TestConfigZeroValueDefaults(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir, Config{Dims: 47}, []string{"a"}, 3)
	man, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(man), `"encoding": "float32"`) {
		t.Fatalf("manifest does not name the float32 encoding:\n%s", man)
	}
	raw, err := os.ReadFile(filepath.Join(dir, shardFileOf(t, dir, "a")))
	if err != nil {
		t.Fatal(err)
	}
	if raw[8] != 0 {
		t.Fatalf("shard encoding byte %d, want 0", raw[8])
	}
}

// TestOpenRejectsCorruptManifests: every malformed manifest is a
// descriptive error naming the file — never a panic, never a silent
// success.
func TestOpenRejectsCorruptManifests(t *testing.T) {
	valid := func(t *testing.T) string {
		dir := t.TempDir()
		buildStore(t, dir, Config{Dims: 3}, []string{"a"}, 8)
		return dir
	}
	cases := []struct {
		name    string
		mangle  func(t *testing.T, dir string) error
		wantSub string
	}{
		{"version-mismatch", func(t *testing.T, dir string) error {
			return rewriteManifest(dir, `"version": 1`, `"version": 99`)
		}, "manifest version 99, want 1"},
		{"bad-dims", func(t *testing.T, dir string) error {
			return rewriteManifest(dir, `"dims": 3`, `"dims": -1`)
		}, "dims"},
		{"bad-encoding", func(t *testing.T, dir string) error {
			return rewriteManifest(dir, `"encoding": "float32"`, `"encoding": "brotli"`)
		}, "unknown encoding"},
		{"quant8-encoding", func(t *testing.T, dir string) error {
			return rewriteManifest(dir, `"encoding": "float32"`, `"encoding": "quant8"`)
		}, `unknown encoding "quant8"`},
		{"traversal-file", func(t *testing.T, dir string) error {
			return rewriteManifest(dir, shardFileOf(t, dir, "a"), "../escape.ivs")
		}, "invalid file name"},
		{"missing-shard", func(t *testing.T, dir string) error {
			return os.Remove(filepath.Join(dir, shardFileOf(t, dir, "a")))
		}, "shard a"},
		{"not-json", func(t *testing.T, dir string) error {
			return os.WriteFile(filepath.Join(dir, manifestName), []byte("]["), 0o644)
		}, "decoding"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := valid(t)
			if err := tc.mangle(t, dir); err != nil {
				t.Fatal(err)
			}
			_, err := Open(dir)
			if err == nil {
				t.Fatal("corrupt manifest accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
			if !strings.Contains(err.Error(), manifestName) {
				t.Fatalf("error %q does not name the offending file", err)
			}
		})
	}
}

// shardFileOf resolves a benchmark's shard file name from the
// committed manifest (file names embed the configuration stamp, so
// tests read them back rather than recomputing).
func shardFileOf(t *testing.T, dir, name string) string {
	t.Helper()
	_, shards, err := Inventory(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		if sh.Name == name {
			return sh.File
		}
	}
	t.Fatalf("no shard for %s in %s", name, dir)
	return ""
}

func rewriteManifest(dir, old, new string) error {
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return os.WriteFile(path, []byte(strings.Replace(string(data), old, new, 1)), 0o644)
}

// TestDecodeShardErrors: corrupt, truncated and oversized shard bytes
// error without panicking, and so does a shard of the retired quant8
// encoding (testdata/quant8_golden.bin, encoding byte 1).
func TestDecodeShardErrors(t *testing.T) {
	insts, m := synthShard(6, 3, 2)
	good := encodeShard(insts, m)

	mangled := map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)/2],
		"magic":     append([]byte("NOTMICA1"), good[8:]...),
		"encoding":  flip(good, 8, 0x7f),
		"crc":       flip(good, len(good)-1, 0xff),
		"zero-rows": reheader(good, 0, 3),
		"oversized": reheader(good, 1<<30, 1<<20),
		// A header whose implied size OVERFLOWS uint64 back to exactly
		// this file's length: rows=2^31, cols=2^31-2 makes the float32
		// payload 2^64-2^34, so header+insts+payload+crc wraps to 24.
		// With a valid CRC this must still be rejected (before any
		// allocation), not panic or OOM.
		"overflow-wrap": withCRC(reheader(good[:20], 1<<31, 1<<31-2)),
	}
	for name, raw := range mangled {
		if _, _, err := decodeShard(raw); err == nil {
			t.Errorf("%s: corrupt shard accepted", name)
		}
	}
	if _, _, err := decodeShard(good); err != nil {
		t.Fatalf("pristine shard rejected: %v", err)
	}
	quant8, err := os.ReadFile(filepath.Join("testdata", "quant8_golden.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeShard(quant8); err == nil || !strings.Contains(err.Error(), "unknown shard encoding byte 1") {
		t.Fatalf("quant8 shard: error %v, want unknown shard encoding byte 1", err)
	}
}

// TestCacheFailedDecodeAccounting pins the read accounting of
// CacheStats: a failed read counts as a DecodeError (not a Decode),
// nothing about the failure is kept, so the next read of the repaired
// file succeeds, and Misses == Decodes + DecodeErrors throughout.
func TestCacheFailedDecodeAccounting(t *testing.T) {
	st := buildStore(t, t.TempDir(), Config{Dims: 4}, []string{"a"}, 10)
	opened, err := Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	path := filepath.Join(opened.Dir(), opened.Shards()[0].File)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, flip(good, len(good)/2, 0xff), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := opened.ReadShard(0); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("corrupt read: error %v, want one naming %s", err, path)
	}
	if cs := opened.CacheStats(); cs != (CacheStats{Misses: 1, DecodeErrors: 1}) {
		t.Fatalf("stats %+v, want 1 miss / 1 decode error", cs)
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := opened.ReadShard(0); err != nil {
			t.Fatalf("read after repair: %v", err)
		}
	}
	if cs := opened.CacheStats(); cs != (CacheStats{Misses: 3, Decodes: 2, DecodeErrors: 1}) {
		t.Fatalf("stats %+v, want 3 misses / 2 decodes / 1 decode error", cs)
	}
}

// flip returns a copy of raw with byte i xor'd by mask.
func flip(raw []byte, i int, mask byte) []byte {
	out := append([]byte(nil), raw...)
	out[i] ^= mask
	return out
}

// reheader returns a copy of raw with the rows/cols header rewritten
// (CRC deliberately left stale — the size check must fire first).
func reheader(raw []byte, rows, cols uint32) []byte {
	out := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(out[12:16], rows)
	binary.LittleEndian.PutUint32(out[16:20], cols)
	return out
}

// withCRC appends a freshly computed trailing CRC to raw, so a test
// input fails only the check it is aimed at.
func withCRC(raw []byte) []byte {
	return binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(raw))
}
