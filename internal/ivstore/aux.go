package ivstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// auxSuffix is the required suffix of auxiliary file names. The suffix
// keeps aux files disjoint from everything the store's maintenance
// machinery touches: Commit's prune only removes shard (.ivs) and temp
// files, and Verify/Repair classify only shard, temp and quarantine
// names, so aux files survive prunes, repairs and fsck untouched.
const auxSuffix = ".aux.json"

// validAuxName reports whether name is an acceptable auxiliary file
// name: a plain base name carrying the aux suffix.
func validAuxName(name string) bool {
	return strings.HasSuffix(name, auxSuffix) &&
		len(name) > len(auxSuffix) &&
		name == filepath.Base(name) &&
		!strings.ContainsAny(name, "/\\")
}

// WriteAux durably writes a small auxiliary document (for example,
// warm-start clustering state) into the store directory under name,
// which must end in ".aux.json". The write is writeFileDurable's —
// temp file, fsync, rename, directory fsync, with the aux injection
// points — so a crash leaves either the old document or the new one,
// never a torn file, and a document that already holds exactly data
// is fsynced in place instead of replaced. A failed write removes its
// temp file, since neither prune nor Repair clears aux temp files.
// Aux files are advisory sidecars: they are not referenced by the
// manifest, not validated by Verify, and not removed by prune or
// Repair.
func (s *Store) WriteAux(name string, data []byte) error {
	if !validAuxName(name) {
		return fmt.Errorf("ivstore: aux file name %q must be a base name ending in %q", name, auxSuffix)
	}
	path := filepath.Join(s.dir, name)
	if err := writeFileDurable(path, data, auxPoints); err != nil {
		os.Remove(path + ".tmp")
		return fmt.Errorf("ivstore: writing aux %s: %w", name, err)
	}
	return nil
}

// ReadAux reads an auxiliary document previously written by WriteAux.
// A missing file is reported with an error satisfying
// errors.Is(err, os.ErrNotExist), which callers treat as "no aux state
// yet", not a failure.
func (s *Store) ReadAux(name string) ([]byte, error) {
	if !validAuxName(name) {
		return nil, fmt.Errorf("ivstore: aux file name %q must be a base name ending in %q", name, auxSuffix)
	}
	return os.ReadFile(filepath.Join(s.dir, name))
}
