package ivstore

import (
	"encoding/json"
	"testing"
)

// FuzzShardDecode: arbitrary bytes fed to the shard decoder must
// either decode cleanly or return an error — truncated, corrupt and
// oversized-header inputs can never panic or over-allocate (the
// header-implied size is checked against the actual length before any
// allocation).
func FuzzShardDecode(f *testing.F) {
	insts, m := synthShard(5, 3, 1)
	f.Add(encodeShard(Float32, insts, m))
	f.Add(encodeShard(Quant8, insts, m))
	f.Add([]byte(shardMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		ivs, vecs, err := decodeShard(raw)
		if err != nil {
			return
		}
		if vecs == nil || vecs.Rows == 0 || vecs.Cols == 0 || len(ivs) != vecs.Rows {
			t.Fatalf("decode accepted a malformed shard: %d insts, %v matrix", len(ivs), vecs)
		}
	})
}

// FuzzManifestDecode: arbitrary manifest bytes must validate or error,
// never panic; any accepted manifest satisfies the documented
// invariants (version stamp, positive dims, known encoding, base-name
// shard files, unique names, positive row counts).
func FuzzManifestDecode(f *testing.F) {
	valid, _ := json.Marshal(manifest{
		Version:  ManifestVersion,
		Dims:     47,
		Encoding: Float32,
		Shards:   []Shard{{Name: "a/b/c", File: ShardFileName("a/b/c", "h"), Rows: 10, Insts: 1000}},
	})
	f.Add(valid)
	f.Add([]byte(`{"version": 99}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		man, err := decodeManifest("fuzz.json", raw)
		if err != nil {
			return
		}
		if man.Version != ManifestVersion || man.Dims <= 0 || !man.Encoding.valid() {
			t.Fatalf("decode accepted invalid manifest header: %+v", man)
		}
		seen := map[string]bool{}
		for _, sh := range man.Shards {
			if sh.Name == "" || sh.Rows <= 0 || sh.File == "" || seen[sh.Name] {
				t.Fatalf("decode accepted invalid shard entry: %+v", sh)
			}
			seen[sh.Name] = true
		}
	})
}
