// Package ivstore implements the sharded, columnar, on-disk
// interval-vector store behind registry-scale joint phase analysis. A
// store is a directory holding one binary shard file per benchmark
// (that benchmark's interval characteristic vectors plus per-interval
// instruction counts) and a versioned JSON manifest recording the
// shard inventory, the vector dimensionality, the value encoding and
// the configuration hash the vectors were characterized under.
//
// The store exists so registry-scale joint phase analysis persists its
// characterizations (122 benchmarks x 10k+ intervals x 47 columns)
// instead of holding them in memory while the pipeline runs: shards
// are appended one benchmark at a time as pipeline workers finish. The
// read side serves decoded shards through a shared byte-budgeted LRU
// (SetCacheBytes, CacheStats, CachedShard). Joint clustering reads
// every shard once through it into one resident normalized n×d matrix,
// so its peak memory is that matrix's n×d×8 bytes plus the cache
// budget; Reader serves single rows by global index.
//
// Two value encodings are supported. Float32 (the default) stores
// each value as an IEEE-754 single — half the bytes of the float64
// vectors it is fed, with a relative rounding error bounded by 2^-24.
// Quant8 stores one byte per value, linearly quantized per column
// against that shard column's [min, max] range; reconstruction error
// is bounded by half a quantization step, (max-min)/510 per value
// (Quant8MaxError), asserted in the package tests.
//
// The manifest's per-shard configuration hashes are what make reruns
// incremental: a caller re-characterizes only the benchmarks whose
// hash or membership changed and adopts the other shards in place
// (Adopt), then commits a manifest covering exactly the new set.
//
// Layout invariant: the global row order of a store is its manifest
// shard order — shard 0's rows first, then shard 1's, exactly the
// concatenation order of the in-memory joint path. Everything the
// differential tests pin (bit-identical joint vocabularies) leans on
// this.
//
// # Durability and failure contract
//
// Every file that can become referenced state — shard files and the
// manifest — is written with the full atomic protocol: payload to a
// temp name, fsync the file, rename into place, fsync the directory.
// A crash at any step therefore leaves either the old state or the
// new state under every committed name, never a torn file; the only
// crash artifacts are unreferenced temp files, which Commit's prune
// and Repair both clear. A file that already holds exactly the new
// bytes — every write of an unchanged rerun — is kept in place
// instead: it is fsynced, then its directory, so the write returns
// behind the same durability barrier without a temp file or a rename,
// and a crash at either sync leaves the file as it was. The
// fault-injection suite (internal/faults) kills a store build, and an
// identical rerun, at every one of these steps and asserts the
// reopened store is Verify-clean or Repair-recoverable.
//
// A store directory is guarded by an advisory flock (".lock") with
// single-writer/multi-reader semantics: Create and Repair take it
// exclusive, Open takes it shared, and Commit downgrades the builder
// to shared once the manifest is published. Locks are advisory and
// released by Close (or process exit); a conflicting lock is an
// immediate error, never a silent wait.
//
// # Staleness contract
//
// A reader's view is the manifest snapshot it loaded at Open: RowErr,
// ReadShard and CachedShard keep serving that shard list even if a
// writer commits a newer manifest to the same directory. The
// snapshot stays readable because a committing writer that cannot
// upgrade its lock past live readers skips pruning ("prune skipped"
// warning) — superseded shard files remain on disk until some later
// commit finds no readers holding the lock. Readers are therefore
// consistent but possibly stale; reopen the store to observe a newer
// commit. Decoded shards cached before a re-commit are dropped
// from the cache, never served against the new shard list.
//
// Verify checks a committed store end to end (every shard decoded and
// CRC-checked against its manifest entry, orphan files listed);
// Repair additionally quarantines corrupt shards, drops them from the
// manifest and removes orphaned temp files, after which an
// incremental rerun re-characterizes exactly the dropped benchmarks.
//
// All errors are ordinary wrapped errors naming the store, shard or
// file involved; no API panics on corrupt input (fuzzed).
package ivstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"mica/internal/faults"
	"mica/internal/stats"
)

// ManifestVersion is the on-disk format version of the store manifest.
// Open refuses a manifest carrying a different stamp; unknown extra
// JSON fields are tolerated (forward-compatible additions).
const ManifestVersion = 1

// manifestName is the manifest's file name inside the store directory.
const manifestName = "manifest.json"

// shardExt is the extension of shard files; Commit prunes files with
// this extension that no manifest entry references.
const shardExt = ".ivs"

// Encoding names a shard value encoding.
type Encoding string

const (
	// Float32 stores each value as an IEEE-754 single (the default).
	Float32 Encoding = "float32"
	// Quant8 stores one byte per value, linearly quantized per shard
	// column; see Quant8MaxError for the reconstruction bound.
	Quant8 Encoding = "quant8"
)

// valid reports whether e names a known encoding.
func (e Encoding) valid() bool { return e == Float32 || e == Quant8 }

// Config parameterizes a new store.
type Config struct {
	// Dims is the number of columns per row (the characteristic
	// dimensionality). Required.
	Dims int
	// Encoding selects the shard value encoding; the zero value means
	// Float32.
	Encoding Encoding
	// ConfigHash stamps the characterization configuration the vectors
	// are produced under (callers hash their own config). Shards whose
	// stamp no longer matches are what incremental reruns rebuild.
	ConfigHash string
}

// WithDefaults returns c with zero fields replaced by the documented
// defaults — the normalized form stores are created under and the
// form Config{} must match (regression-tested).
func (c Config) WithDefaults() Config {
	if c.Encoding == "" {
		c.Encoding = Float32
	}
	return c
}

// Shard is one manifest entry: a benchmark's rows and where they live.
type Shard struct {
	// Name is the benchmark the shard holds intervals for.
	Name string `json:"name"`
	// File is the shard's file name inside the store directory (a base
	// name, never a path).
	File string `json:"file"`
	// Rows is the shard's row (interval) count.
	Rows int `json:"rows"`
	// Insts is the total dynamic instruction count across the shard's
	// intervals (the per-row counts live in the shard file).
	Insts uint64 `json:"insts"`
	// ConfigHash is the characterization stamp the shard was written
	// under.
	ConfigHash string `json:"config_hash,omitempty"`
}

// manifest is the JSON document persisted as manifest.json.
type manifest struct {
	Version    int      `json:"version"`
	Dims       int      `json:"dims"`
	Encoding   Encoding `json:"encoding"`
	ConfigHash string   `json:"config_hash,omitempty"`
	Shards     []Shard  `json:"shards"`
}

// Store is an interval-vector store rooted at one directory. A store
// is either committed (opened from a manifest, fully readable) or
// building (created empty; WriteShard/Adopt stage shards until Commit
// writes the manifest and makes it readable).
type Store struct {
	dir string
	cfg Config

	mu     sync.Mutex
	staged map[string]Shard // by benchmark name, awaiting Commit
	lk     *dirLock         // advisory store lock; nil after Close

	committed bool
	shards    []Shard
	offsets   []int // len(shards)+1 cumulative row starts

	cacheBytes int64       // requested cache budget; <=0 means default
	cache      *shardCache // shared decoded-shard LRU, built on first use
}

// Create prepares an empty store under dir (creating the directory if
// needed) with the given configuration, taking the directory's
// advisory lock exclusive — a second concurrent writer (or a live
// reader) is an immediate error. Nothing is readable until Commit; an
// existing manifest in dir is left untouched until then, so a failed
// build never destroys the previous committed state. Close releases
// the lock.
func Create(dir string, cfg Config) (*Store, error) {
	cfg = cfg.WithDefaults()
	if cfg.Dims <= 0 {
		return nil, fmt.Errorf("ivstore: creating %s: dims %d must be positive", dir, cfg.Dims)
	}
	if !cfg.Encoding.valid() {
		return nil, fmt.Errorf("ivstore: creating %s: unknown encoding %q", dir, cfg.Encoding)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ivstore: creating %s: %w", dir, err)
	}
	lk, err := acquireDirLock(dir, true)
	if err != nil {
		return nil, err
	}
	return &Store{dir: dir, cfg: cfg, staged: make(map[string]Shard), lk: lk}, nil
}

// Open loads a committed store's manifest from dir and validates it,
// taking the directory's advisory lock shared, so no writer can prune
// files from under the reader. Shard files are checked for existence;
// their contents are validated on read (every shard file carries its
// own CRC). Close releases the lock.
func Open(dir string) (*Store, error) {
	cfg, shards, err := Inventory(dir)
	if err != nil {
		return nil, err
	}
	lk, err := acquireDirLock(dir, false)
	if err != nil {
		return nil, err
	}
	for _, sh := range shards {
		if _, err := os.Stat(filepath.Join(dir, sh.File)); err != nil {
			lk.release()
			return nil, fmt.Errorf("ivstore: %s: shard %s: %w", filepath.Join(dir, manifestName), sh.Name, err)
		}
	}
	st := &Store{
		dir:       dir,
		cfg:       cfg,
		staged:    make(map[string]Shard),
		committed: true,
		shards:    shards,
		lk:        lk,
	}
	st.offsets = offsetsOf(shards)
	return st, nil
}

// Close releases the store's advisory lock. The Store's read methods
// keep working (reads are plain file opens), but the store is no
// longer protected from a concurrent writer's prune, and WriteShard /
// Commit must not be used after Close. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	lk := s.lk
	s.lk = nil
	if s.cache != nil {
		s.cache.mu.Lock()
		metCacheBytes.Add(-float64(s.cache.bytes))
		s.cache.mu.Unlock()
	}
	s.cache = nil
	s.mu.Unlock()
	return lk.release()
}

// Inventory reads and validates a store's manifest without requiring
// the shard files to be present — the reuse-side entry point of
// incremental rebuilds, where a vanished shard file means only that
// benchmark gets re-characterized (Adopt re-checks each file), not
// that the whole store is unusable.
func Inventory(dir string) (Config, []Shard, error) {
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, nil, err
	}
	man, err := decodeManifest(path, data)
	if err != nil {
		return Config{}, nil, err
	}
	return Config{Dims: man.Dims, Encoding: man.Encoding, ConfigHash: man.ConfigHash}, man.Shards, nil
}

// decodeManifest parses and validates a manifest document (path is
// used in error messages only — filesystem checks stay in Open, so
// the fuzz target can drive this on raw bytes). A malformed manifest
// is always an error, never a panic.
func decodeManifest(path string, data []byte) (manifest, error) {
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return man, fmt.Errorf("ivstore: decoding %s: %w", path, err)
	}
	if man.Version != ManifestVersion {
		return man, fmt.Errorf("ivstore: %s: manifest version %d, want %d", path, man.Version, ManifestVersion)
	}
	if man.Dims <= 0 {
		return man, fmt.Errorf("ivstore: %s: dims %d must be positive", path, man.Dims)
	}
	if !man.Encoding.valid() {
		return man, fmt.Errorf("ivstore: %s: unknown encoding %q", path, man.Encoding)
	}
	seen := make(map[string]bool, len(man.Shards))
	for i, sh := range man.Shards {
		if sh.Name == "" {
			return man, fmt.Errorf("ivstore: %s: shard %d has no benchmark name", path, i)
		}
		if seen[sh.Name] {
			return man, fmt.Errorf("ivstore: %s: duplicate shard for %s", path, sh.Name)
		}
		seen[sh.Name] = true
		if sh.File == "" || sh.File != filepath.Base(sh.File) || sh.File == "." || sh.File == ".." {
			return man, fmt.Errorf("ivstore: %s: shard %s has invalid file name %q", path, sh.Name, sh.File)
		}
		if sh.Rows <= 0 {
			return man, fmt.Errorf("ivstore: %s: shard %s has %d rows", path, sh.Name, sh.Rows)
		}
	}
	return man, nil
}

func offsetsOf(shards []Shard) []int {
	offsets := make([]int, len(shards)+1)
	for i, sh := range shards {
		offsets[i+1] = offsets[i] + sh.Rows
	}
	return offsets
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Dims returns the per-row column count.
func (s *Store) Dims() int { return s.cfg.Dims }

// Encoding returns the store's value encoding.
func (s *Store) Encoding() Encoding { return s.cfg.Encoding }

// ConfigHash returns the store-level characterization stamp.
func (s *Store) ConfigHash() string { return s.cfg.ConfigHash }

// Shards returns the committed shard inventory in row order.
func (s *Store) Shards() []Shard { return s.shards }

// NumRows returns the committed store's total row count.
func (s *Store) NumRows() int {
	if len(s.offsets) == 0 {
		return 0
	}
	return s.offsets[len(s.offsets)-1]
}

// Benchmarks returns the committed shard names in row order.
func (s *Store) Benchmarks() []string {
	names := make([]string, len(s.shards))
	for i, sh := range s.shards {
		names[i] = sh.Name
	}
	return names
}

// ShardIndex returns the committed shard index holding name's rows,
// or false if the store has no shard for that benchmark.
func (s *Store) ShardIndex(name string) (int, bool) {
	for i, sh := range s.shards {
		if sh.Name == name {
			return i, true
		}
	}
	return 0, false
}

// RowRange returns the half-open global row interval [start, end) of
// committed shard i — the rows Reader serves for that benchmark.
func (s *Store) RowRange(i int) (start, end int) {
	return s.offsets[i], s.offsets[i+1]
}

// ShardFileName maps a benchmark name and a configuration stamp to
// the shard's deterministic file name: the sanitized name plus a
// short hash of (name, stamp). Hashing the stamp in means a rebuild
// under a different configuration or encoding writes DIFFERENT files
// — it can never clobber the shards a previously committed manifest
// still references, so an interrupted rebuild leaves the old store
// fully readable. (The sanitized prefix alone could collide between
// distinct benchmarks; the hash cannot.)
func ShardFileName(name, stamp string) string {
	sum := sha256.Sum256([]byte(name + "\x00" + stamp))
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String() + "-" + hex.EncodeToString(sum[:4]) + shardExt
}

// stamp is the configuration discriminator baked into shard file
// names: hash and encoding together, since either changing invalidates
// the bytes on disk.
func (s *Store) stamp() string { return s.cfg.ConfigHash + "\x00" + string(s.cfg.Encoding) }

// WriteShard encodes one benchmark's intervals as a shard file and
// stages it for Commit. insts[i] is interval i's dynamic instruction
// count; vecs row i is its characteristic vector. Safe for concurrent
// use — pipeline workers write shards as they finish.
func (s *Store) WriteShard(name string, insts []uint64, vecs *stats.Matrix) error {
	if name == "" {
		return fmt.Errorf("ivstore: writing shard: empty benchmark name")
	}
	if vecs == nil || vecs.Rows == 0 {
		return fmt.Errorf("ivstore: writing shard %s: no rows", name)
	}
	if vecs.Cols != s.cfg.Dims {
		return fmt.Errorf("ivstore: writing shard %s: %d columns, store has %d", name, vecs.Cols, s.cfg.Dims)
	}
	if len(insts) != vecs.Rows {
		return fmt.Errorf("ivstore: writing shard %s: %d interval counts for %d rows", name, len(insts), vecs.Rows)
	}
	data := encodeShard(s.cfg.Encoding, insts, vecs)
	file := ShardFileName(name, s.stamp())
	// Durable atomic write (tmp + fsync + rename + dir fsync) so a
	// crash at any step can never leave a torn file under a name a
	// manifest might reference, and a completed write survives the
	// crash.
	path := filepath.Join(s.dir, file)
	if err := writeFileDurable(path, data, shardPoints); err != nil {
		return fmt.Errorf("ivstore: writing shard %s: %w", name, err)
	}
	var total uint64
	for _, n := range insts {
		total += n
	}
	sh := Shard{Name: name, File: file, Rows: vecs.Rows, Insts: total, ConfigHash: s.cfg.ConfigHash}
	s.mu.Lock()
	s.staged[name] = sh
	s.mu.Unlock()
	return nil
}

// Adopt stages an existing shard (typically copied from a previously
// committed manifest of the same directory) without rewriting its
// file — the reuse path of incremental reruns. The shard file must
// exist and the entry's stamp must match the store's configuration.
func (s *Store) Adopt(sh Shard) error {
	if sh.ConfigHash != s.cfg.ConfigHash {
		return fmt.Errorf("ivstore: adopting shard %s: config hash %q does not match store %q",
			sh.Name, sh.ConfigHash, s.cfg.ConfigHash)
	}
	if sh.File == "" || sh.File != filepath.Base(sh.File) {
		return fmt.Errorf("ivstore: adopting shard %s: invalid file name %q", sh.Name, sh.File)
	}
	if _, err := os.Stat(filepath.Join(s.dir, sh.File)); err != nil {
		return fmt.Errorf("ivstore: adopting shard %s: %w", sh.Name, err)
	}
	s.mu.Lock()
	s.staged[sh.Name] = sh
	s.mu.Unlock()
	return nil
}

// Staged reports whether a shard for name is staged for Commit.
func (s *Store) Staged(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.staged[name]
	return ok
}

// Commit writes the manifest covering exactly the named shards, in
// that order (which becomes the store's global row order), atomically
// and durably replacing any previous manifest (an identical one is
// kept in place; see writeFileDurable), and prunes shard files no
// entry references. Every name must have been staged via
// WriteShard or Adopt.
//
// The returned warnings report prune problems — files Commit tried to
// remove but could not, or a prune skipped because readers hold the
// store's lock. Warnings never accompany a non-nil error and never
// affect the committed state: a stray file costs disk, not
// correctness, but callers (and the fsck report) get to see it.
//
// After a successful Commit the builder's exclusive lock is
// downgraded to shared, so the store it just published can be opened
// by concurrent readers while the builder is still live.
func (s *Store) Commit(order []string) (warnings []string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	man := manifest{
		Version:    ManifestVersion,
		Dims:       s.cfg.Dims,
		Encoding:   s.cfg.Encoding,
		ConfigHash: s.cfg.ConfigHash,
		Shards:     make([]Shard, 0, len(order)),
	}
	seen := make(map[string]bool, len(order))
	for _, name := range order {
		if seen[name] {
			// The read side (decodeManifest) rejects duplicate names, so
			// committing one would produce a store that can never be
			// reopened.
			return nil, fmt.Errorf("ivstore: committing %s: duplicate shard %s in commit order", s.dir, name)
		}
		seen[name] = true
		sh, ok := s.staged[name]
		if !ok {
			return nil, fmt.Errorf("ivstore: committing %s: no shard staged for %s", s.dir, name)
		}
		man.Shards = append(man.Shards, sh)
	}
	data, err := json.MarshalIndent(man, "", " ")
	if err != nil {
		return nil, fmt.Errorf("ivstore: committing %s: %w", s.dir, err)
	}
	path := filepath.Join(s.dir, manifestName)
	if err := writeFileDurable(path, append(data, '\n'), manifestPoints); err != nil {
		return nil, fmt.Errorf("ivstore: committing %s: %w", s.dir, err)
	}
	s.committed = true
	s.shards = man.Shards
	s.offsets = offsetsOf(man.Shards)
	// The committed inventory changed: drop the decoded-shard cache,
	// whose entries are keyed to the previous shard list.
	s.cache = nil
	warnings = s.pruneLocked()
	if err := s.lk.downgrade(); err != nil {
		warnings = append(warnings, err.Error())
	}
	return warnings, nil
}

// pruneLocked removes files no committed entry references — shards of
// benchmarks dropped from the set, of re-encoded or re-configured
// runs (whose shards live under different stamped names), and
// abandoned .tmp files of interrupted writes. It requires the
// exclusive lock (no reader may be streaming the files it deletes);
// when the lock is held shared — a re-commit on an already-published
// store with live readers — the prune is skipped with a warning
// instead of yanking files from under them. Removal failures are
// returned as warnings: a stray file costs disk, not correctness.
func (s *Store) pruneLocked() (warnings []string) {
	if s.lk != nil && !s.lk.exclusive {
		if err := s.lk.upgradeNB(); err != nil {
			return []string{fmt.Sprintf("prune skipped: %v", err)}
		}
	}
	referenced := make(map[string]bool, len(s.shards))
	for _, sh := range s.shards {
		referenced[sh.File] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return []string{fmt.Sprintf("prune skipped: listing %s: %v", s.dir, err)}
	}
	for _, e := range entries {
		name := e.Name()
		if !e.Type().IsRegular() || !strayFile(name, referenced) {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
			warnings = append(warnings, fmt.Sprintf("pruning %s: %v", name, err))
		}
	}
	return warnings
}

// strayFile reports whether a directory entry is prunable: an
// unreferenced shard, an abandoned shard temp file, or an abandoned
// manifest temp file. The lock file, the manifest and quarantined
// shards are never stray.
func strayFile(name string, referenced map[string]bool) bool {
	return strings.HasSuffix(name, shardExt) && !referenced[name] ||
		strings.HasSuffix(name, shardExt+".tmp") ||
		name == manifestName+".tmp"
}

// durablePoints names the fault-injection points of one
// writeFileDurable call chain.
type durablePoints struct {
	write, sync, rename faults.Point
}

var (
	shardPoints    = durablePoints{faults.ShardWrite, faults.ShardSync, faults.ShardRename}
	manifestPoints = durablePoints{faults.ManifestWrite, faults.ManifestSync, faults.ManifestRename}
	auxPoints      = durablePoints{faults.AuxWrite, faults.AuxSync, faults.AuxRename}
)

// writeFileDurable writes data to path with the store's full
// durability protocol: payload to path+".tmp", fsync the file, rename
// into place, fsync the parent directory. A crash (or injected fault)
// at any step leaves either the old file or the new file under path —
// never a torn one — plus at worst an unreferenced temp file, which
// prune and Repair clear. Each step carries a fault-injection point;
// a Torn fault persists only half the payload before failing, the
// on-disk shape of a crash mid-write.
//
// When path already holds exactly data (an unchanged rerun), the temp
// file and the rename are skipped: the existing file is fsynced, then
// its directory, so on return the bytes are as durable as after the
// full protocol. Both syncs carry the same injection points as on the
// full path. Replacing a file by rename can cost tens of milliseconds
// (the old blocks are freed, synchronously on a discard mount), so
// unchanged reruns write nothing.
func writeFileDurable(path string, data []byte, pts durablePoints) error {
	key := filepath.Base(path)
	if f := openIfHolds(path, data); f != nil {
		if err := syncFile(f, key, pts); err != nil {
			return err
		}
		if err := syncParent(path, key); err != nil {
			return err
		}
		metUnchangedWrites.Inc()
		return nil
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	payload := data
	var injected error
	if faults.Enabled() {
		if kind, ok := faults.Fire(pts.write, key); ok {
			injected = faults.Errorf(pts.write, key, kind)
			if kind == faults.Torn {
				payload = data[:len(data)/2]
			} else {
				payload = nil
			}
		}
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		return err
	}
	if injected != nil {
		// Simulated crash mid-write: the (possibly partial) bytes were
		// never synced and the rename never happens.
		f.Close()
		return injected
	}
	if err := syncFile(f, key, pts); err != nil {
		return err
	}
	if faults.Enabled() {
		if kind, ok := faults.Fire(pts.rename, key); ok {
			return faults.Errorf(pts.rename, key, kind)
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncParent(path, key)
}

// openIfHolds returns path open when it is a regular file holding
// exactly data, and nil otherwise (missing, unopenable, another size or
// other bytes). The size is checked before any read. The file is
// opened read-write only so that every platform lets it be fsynced.
func openIfHolds(path string, data []byte) *os.File {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil
	}
	fi, err := f.Stat()
	if err == nil && fi.Mode().IsRegular() && fi.Size() == int64(len(data)) {
		buf := make([]byte, len(data))
		if _, err := io.ReadFull(f, buf); err == nil && bytes.Equal(buf, data) {
			return f
		}
	}
	f.Close()
	return nil
}

// syncFile fsyncs and closes f, the pts.sync step of writeFileDurable.
func syncFile(f *os.File, key string, pts durablePoints) error {
	if faults.Enabled() {
		if kind, ok := faults.Fire(pts.sync, key); ok {
			f.Close()
			return faults.Errorf(pts.sync, key, kind)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncParent fsyncs path's directory, the last step of
// writeFileDurable.
func syncParent(path, key string) error {
	if faults.Enabled() {
		if kind, ok := faults.Fire(faults.DirSync, key); ok {
			return faults.Errorf(faults.DirSync, key, kind)
		}
	}
	return syncDir(filepath.Dir(path))
}

// ShardData is one decoded shard.
type ShardData struct {
	// Name is the benchmark the rows belong to.
	Name string
	// Insts[i] is interval i's dynamic instruction count.
	Insts []uint64
	// Vecs holds the interval vectors, one row per interval, decoded to
	// float64.
	Vecs *stats.Matrix
}

// Starts returns the intervals' starting instruction numbers (the
// prefix sums of Insts — intervals are contiguous by construction).
func (d *ShardData) Starts() []uint64 {
	starts := make([]uint64, len(d.Insts))
	var acc uint64
	for i, n := range d.Insts {
		starts[i] = acc
		acc += n
	}
	return starts
}

// ReadShard decodes committed shard i.
func (s *Store) ReadShard(i int) (*ShardData, error) {
	if i < 0 || i >= len(s.shards) {
		return nil, fmt.Errorf("ivstore: shard index %d out of range [0, %d)", i, len(s.shards))
	}
	sh := s.shards[i]
	path := filepath.Join(s.dir, sh.File)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ivstore: reading shard %s: %w", sh.Name, err)
	}
	insts, vecs, err := decodeShard(raw)
	if err != nil {
		return nil, fmt.Errorf("ivstore: %s: %w", path, err)
	}
	if vecs.Rows != sh.Rows || vecs.Cols != s.cfg.Dims {
		return nil, fmt.Errorf("ivstore: %s: shard is %dx%d, manifest says %dx%d",
			path, vecs.Rows, vecs.Cols, sh.Rows, s.cfg.Dims)
	}
	return &ShardData{Name: sh.Name, Insts: insts, Vecs: vecs}, nil
}

// Reader reads a committed store's rows by global row index. RowErr
// resolves shards through the store's shared byte-budgeted LRU
// (CachedShard) and pins the current shard locally, so a run of reads
// within one shard pays one cache lookup. A Reader is not safe for
// concurrent use; concurrent consumers take one Reader each via
// Store.Rows. The store's files must not be mutated while a Reader is
// live.
type Reader struct {
	st   *Store
	cur  int // pinned shard index, -1 when empty
	data *ShardData
}

// Rows returns a fresh row reader over the committed store.
func (s *Store) Rows() *Reader { return &Reader{st: s, cur: -1} }

// RowErr returns global row i, valid until the next RowErr call. A
// shard that fails to decode is reported as an error, so a serving
// boundary can fail the one affected query and keep running.
func (r *Reader) RowErr(i int) ([]float64, error) {
	s := r.shardOf(i)
	if s != r.cur {
		if err := r.load(s); err != nil {
			return nil, err
		}
	}
	return r.data.Vecs.Row(i - r.st.offsets[s]), nil
}

// shardOf locates the shard holding global row i.
func (r *Reader) shardOf(i int) int {
	offs := r.st.offsets
	// sort.Search returns the first shard whose end exceeds i.
	return sort.Search(len(offs)-1, func(s int) bool { return offs[s+1] > i })
}

func (r *Reader) load(s int) error {
	data, err := r.st.CachedShard(s)
	if err != nil {
		return err
	}
	r.cur, r.data = s, data
	return nil
}
