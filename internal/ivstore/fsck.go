package ivstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// quarantineExt is appended to a corrupt shard's file name when
// Repair moves it aside. Quarantined files are never pruned and never
// referenced; they exist for postmortems and are listed by Verify.
const quarantineExt = ".quarantined"

// ShardStatus is one manifest entry's verification outcome.
type ShardStatus struct {
	// Shard is the manifest entry.
	Shard Shard
	// Err is nil for a clean shard; otherwise the validation failure
	// (missing file, bad CRC, size mismatch, manifest disagreement).
	Err error
}

// FsckReport is the outcome of a Verify or Repair pass over a store.
type FsckReport struct {
	// Dir is the store directory.
	Dir string
	// Shards holds one status per manifest entry, manifest order.
	Shards []ShardStatus
	// OrphanTmps lists abandoned temp files (interrupted writes).
	OrphanTmps []string
	// OrphanShards lists shard files no manifest entry references.
	OrphanShards []string
	// Quarantines lists quarantined shard files present in the
	// directory (from this Repair or earlier ones).
	Quarantines []string
	// Quarantined lists the corrupt shards Repair moved aside this
	// pass (benchmark names).
	Quarantined []string
	// Removed lists the orphan files Repair deleted this pass.
	Removed []string
	// Warnings lists non-fatal problems encountered while repairing
	// (failed removals, failed quarantine renames).
	Warnings []string
}

// Clean reports whether the store needs no attention: every manifest
// shard validates and no crash artifacts (orphan temp or shard files)
// are present. Pre-existing quarantined files don't count against
// cleanliness — they are deliberate debris, already outside the
// store's referenced state.
func (r *FsckReport) Clean() bool {
	for _, st := range r.Shards {
		if st.Err != nil {
			return false
		}
	}
	return len(r.OrphanTmps) == 0 && len(r.OrphanShards) == 0
}

// Bad returns the benchmark names of manifest shards that failed
// validation.
func (r *FsckReport) Bad() []string {
	var bad []string
	for _, st := range r.Shards {
		if st.Err != nil {
			bad = append(bad, st.Shard.Name)
		}
	}
	return bad
}

// String renders a one-line-per-finding summary for CLI output.
func (r *FsckReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "store %s: %d shards", r.Dir, len(r.Shards))
	if r.Clean() && len(r.Quarantined) == 0 && len(r.Removed) == 0 {
		b.WriteString(", clean")
	}
	b.WriteString("\n")
	for _, st := range r.Shards {
		if st.Err != nil {
			fmt.Fprintf(&b, "  bad shard %s (%s): %v\n", st.Shard.Name, st.Shard.File, st.Err)
		}
	}
	for _, f := range r.OrphanTmps {
		fmt.Fprintf(&b, "  orphan temp file %s\n", f)
	}
	for _, f := range r.OrphanShards {
		fmt.Fprintf(&b, "  orphan shard file %s\n", f)
	}
	for _, n := range r.Quarantined {
		fmt.Fprintf(&b, "  quarantined %s\n", n)
	}
	for _, f := range r.Removed {
		fmt.Fprintf(&b, "  removed %s\n", f)
	}
	for _, w := range r.Warnings {
		fmt.Fprintf(&b, "  warning: %s\n", w)
	}
	return b.String()
}

// Verify checks an open committed store end to end: every manifest
// shard is read, CRC-validated and cross-checked against its manifest
// entry (rows, dims, instruction total), and the directory is scanned
// for crash artifacts. Read-only; the report says what Repair would
// act on.
func (s *Store) Verify() (*FsckReport, error) {
	if !s.committed {
		return nil, fmt.Errorf("ivstore: verifying %s: store has no committed manifest", s.dir)
	}
	return verifyDir(s.dir, s.cfg, s.shards)
}

// Verify checks the committed store in dir without holding it open:
// the manifest is loaded (and is itself validated), every shard is
// CRC-checked against its entry, and crash artifacts are listed. A
// directory with no manifest is an error (nothing committed to
// verify).
func Verify(dir string) (*FsckReport, error) {
	cfg, shards, err := Inventory(dir)
	if err != nil {
		return nil, err
	}
	return verifyDir(dir, cfg, shards)
}

// verifyDir is the shared checking pass behind both Verify forms.
func verifyDir(dir string, cfg Config, shards []Shard) (*FsckReport, error) {
	rep := &FsckReport{Dir: dir}
	referenced := make(map[string]bool, len(shards))
	for _, sh := range shards {
		referenced[sh.File] = true
		rep.Shards = append(rep.Shards, ShardStatus{Shard: sh, Err: checkShard(dir, cfg, sh)})
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ivstore: verifying %s: %w", dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if !e.Type().IsRegular() {
			continue
		}
		switch {
		case strings.HasSuffix(name, shardExt+".tmp") || name == manifestName+".tmp":
			rep.OrphanTmps = append(rep.OrphanTmps, name)
		case strings.HasSuffix(name, shardExt) && !referenced[name]:
			rep.OrphanShards = append(rep.OrphanShards, name)
		case strings.HasSuffix(name, quarantineExt):
			rep.Quarantines = append(rep.Quarantines, name)
		}
	}
	return rep, nil
}

// checkShard validates one manifest entry against its file: the file
// must exist, decode (magic, size, CRC), and agree with the manifest
// on rows, dimensionality and total instruction count.
func checkShard(dir string, cfg Config, sh Shard) error {
	raw, err := os.ReadFile(filepath.Join(dir, sh.File))
	if err != nil {
		return err
	}
	insts, vecs, err := decodeShard(raw)
	if err != nil {
		return err
	}
	if vecs.Rows != sh.Rows || vecs.Cols != cfg.Dims {
		return fmt.Errorf("shard is %dx%d, manifest says %dx%d", vecs.Rows, vecs.Cols, sh.Rows, cfg.Dims)
	}
	var total uint64
	for _, n := range insts {
		total += n
	}
	if total != sh.Insts {
		return fmt.Errorf("shard holds %d instructions, manifest says %d", total, sh.Insts)
	}
	return nil
}

// Repair makes the committed store in dir consistent again after a
// crash or corruption: corrupt shards are quarantined (moved aside,
// preserving the bytes for postmortems) and dropped from the
// manifest, orphaned temp files are removed, and the repaired
// manifest is written with the full durability protocol. It takes the
// store's lock exclusive for the duration — live readers or writers
// make Repair fail fast rather than pull files from under them.
//
// After a successful Repair the store reopens cleanly, and an
// incremental rerun re-characterizes exactly the dropped benchmarks.
// A directory with no manifest is an error: there is nothing
// committed to repair (a crash before the first commit leaves only
// temp files, which the next build's Commit prunes).
func Repair(dir string) (*FsckReport, error) {
	cfg, shards, err := Inventory(dir)
	if err != nil {
		return nil, err
	}
	lk, err := acquireDirLock(dir, true)
	if err != nil {
		return nil, err
	}
	defer lk.release()

	rep, err := verifyDir(dir, cfg, shards)
	if err != nil {
		return nil, err
	}

	kept := make([]Shard, 0, len(shards))
	for _, st := range rep.Shards {
		if st.Err == nil {
			kept = append(kept, st.Shard)
			continue
		}
		// Quarantine the corrupt file if it exists; a missing file has
		// nothing to move.
		src := filepath.Join(dir, st.Shard.File)
		if _, statErr := os.Stat(src); statErr == nil {
			if mvErr := os.Rename(src, src+quarantineExt); mvErr != nil {
				rep.Warnings = append(rep.Warnings, fmt.Sprintf("quarantining %s: %v", st.Shard.File, mvErr))
			} else {
				rep.Quarantines = append(rep.Quarantines, st.Shard.File+quarantineExt)
			}
		}
		rep.Quarantined = append(rep.Quarantined, st.Shard.Name)
	}

	for _, name := range rep.OrphanTmps {
		if rmErr := os.Remove(filepath.Join(dir, name)); rmErr != nil {
			rep.Warnings = append(rep.Warnings, fmt.Sprintf("removing %s: %v", name, rmErr))
		} else {
			rep.Removed = append(rep.Removed, name)
		}
	}
	for _, name := range rep.OrphanShards {
		if rmErr := os.Remove(filepath.Join(dir, name)); rmErr != nil {
			rep.Warnings = append(rep.Warnings, fmt.Sprintf("removing %s: %v", name, rmErr))
		} else {
			rep.Removed = append(rep.Removed, name)
		}
	}

	if len(rep.Quarantined) > 0 {
		man := newManifest(cfg, kept)
		data, err := json.MarshalIndent(man, "", " ")
		if err != nil {
			return nil, fmt.Errorf("ivstore: repairing %s: %w", dir, err)
		}
		path := filepath.Join(dir, manifestName)
		if err := writeFileDurable(path, append(data, '\n'), manifestPoints); err != nil {
			return nil, fmt.Errorf("ivstore: repairing %s: %w", dir, err)
		}
	}
	return rep, nil
}
