package ivstore

import (
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"testing"

	"mica/internal/faults"
)

// faultBuild runs the canonical two-shard build end to end. Any
// injected failure aborts it; a Crash fault's panic is converted to an
// error after the store handle's deferred Close has run — exactly the
// lock release a killed process gets from the OS.
func faultBuild(dir string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("simulated crash: %v", r)
		}
	}()
	st, err := Create(dir, Config{Dims: 5, ConfigHash: "fi-cfg"})
	if err != nil {
		return err
	}
	defer st.Close()
	instsA, mA := synthShard(8, 5, 101)
	if err := st.WriteShard("fi/a", instsA, mA); err != nil {
		return err
	}
	instsB, mB := synthShard(6, 5, 102)
	if err := st.WriteShard("fi/b", instsB, mB); err != nil {
		return err
	}
	_, err = st.Commit([]string{"fi/a", "fi/b"})
	return err
}

// recoverStore asserts the on-disk state a crashed build left behind
// is either Verify-clean, Repair-recoverable, or has no committed
// manifest at all (a crash before the first commit — nothing to
// recover). It returns once the directory is safe to rebuild into.
func recoverStore(t *testing.T, dir string) {
	t.Helper()
	rep, err := Verify(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return // never committed; the rebuild starts from scratch
	}
	if err != nil {
		t.Fatalf("crashed store unreadable: %v", err)
	}
	if rep.Clean() {
		return
	}
	rrep, err := Repair(dir)
	if err != nil {
		t.Fatalf("repairing crashed store: %v", err)
	}
	vrep, err := Verify(dir)
	if err != nil {
		t.Fatalf("verifying repaired store: %v", err)
	}
	if !vrep.Clean() {
		t.Fatalf("store still dirty after repair:\nbefore: %sreport: %safter: %s",
			rep.String(), rrep.String(), vrep.String())
	}
}

// TestKillAtEveryInjectionPoint is the durability acceptance test: the
// build is first recorded to enumerate every injection point it
// crosses, then re-run once per (address, fault kind) with the fault
// armed there. After every simulated crash the abandoned directory
// must be Verify-clean or Repair-recoverable, and a rebuild into the
// same directory must produce a clean store.
func TestKillAtEveryInjectionPoint(t *testing.T) {
	stop := faults.Record()
	err := faultBuild(t.TempDir())
	addrs := stop()
	if err != nil {
		t.Fatalf("recording build failed: %v", err)
	}
	if len(addrs) == 0 {
		t.Fatal("recording pass crossed no injection points")
	}

	for _, addr := range addrs {
		if !strings.HasPrefix(string(addr.Point), "ivstore.") {
			continue
		}
		for _, kind := range []faults.Kind{faults.Fail, faults.Torn, faults.Crash} {
			t.Run(fmt.Sprintf("%s_%s", addr, kind), func(t *testing.T) {
				dir := t.TempDir()
				disarm := faults.Arm(addr, kind)
				buildErr := faultBuild(dir)
				if fired := disarm(); fired != 1 {
					t.Fatalf("fault at %s fired %d times, want 1 (address drift?)", addr, fired)
				}
				if buildErr == nil {
					t.Fatal("injected fault did not abort the build")
				}
				if kind != faults.Crash && !errors.Is(buildErr, faults.ErrInjected) {
					t.Fatalf("build failed with a non-injected error: %v", buildErr)
				}

				recoverStore(t, dir)

				// The rerun over the crash debris must succeed and leave a
				// clean, fully populated store.
				if err := faultBuild(dir); err != nil {
					t.Fatalf("rebuild after crash at %s: %v", addr, err)
				}
				rep, err := Verify(dir)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Clean() {
					t.Fatalf("rebuilt store not clean:\n%s", rep.String())
				}
				if len(rep.Shards) != 2 {
					t.Fatalf("rebuilt store has %d shards, want 2", len(rep.Shards))
				}
			})
		}
	}
}

// TestKillAtEveryInjectionPointRerun is the kill matrix over the
// unchanged rerun: a committed store is rebuilt with the identical
// shards and order, so every durable write finds its bytes already on
// disk and takes the in-place path (fsync the file, fsync the
// directory). The rerun's addresses are recorded, then each gets a
// Fail, Torn or Crash fault over a fresh copy of the committed store.
// After every crash the directory must be Verify-clean or
// Repair-recoverable, and one more build must leave a clean 2-shard
// store.
func TestKillAtEveryInjectionPointRerun(t *testing.T) {
	committed := func(t *testing.T) string {
		t.Helper()
		dir := t.TempDir()
		if err := faultBuild(dir); err != nil {
			t.Fatalf("first build: %v", err)
		}
		return dir
	}
	base := committed(t)
	stop := faults.Record()
	err := faultBuild(base)
	addrs := stop()
	if err != nil {
		t.Fatalf("recording rerun failed: %v", err)
	}
	if len(addrs) == 0 {
		t.Fatal("recording rerun crossed no injection points")
	}

	for _, addr := range addrs {
		for _, kind := range []faults.Kind{faults.Fail, faults.Torn, faults.Crash} {
			t.Run(fmt.Sprintf("%s_%s", addr, kind), func(t *testing.T) {
				dir := committed(t)
				disarm := faults.Arm(addr, kind)
				buildErr := faultBuild(dir)
				if fired := disarm(); fired != 1 {
					t.Fatalf("fault at %s fired %d times, want 1 (address drift?)", addr, fired)
				}
				if buildErr == nil {
					t.Fatal("injected fault did not abort the rerun")
				}
				if kind != faults.Crash && !errors.Is(buildErr, faults.ErrInjected) {
					t.Fatalf("rerun failed with a non-injected error: %v", buildErr)
				}

				recoverStore(t, dir)

				if err := faultBuild(dir); err != nil {
					t.Fatalf("build after crash at %s: %v", addr, err)
				}
				rep, err := Verify(dir)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Clean() {
					t.Fatalf("rebuilt store not clean:\n%s", rep.String())
				}
				if len(rep.Shards) != 2 {
					t.Fatalf("rebuilt store has %d shards, want 2", len(rep.Shards))
				}
			})
		}
	}
}

// TestInjectionAddressesCoverAllStorePoints pins the recording pass
// itself: the canonical build must cross every compiled-in ivstore
// injection point, so a refactor that silently bypasses the durability
// protocol (dropping an fsync, renaming without the temp file) fails
// here rather than weakening the kill matrix unnoticed. The identical
// rerun pins the in-place path: both fsyncs of every write, and no
// payload write or rename. The aux cases do the same for WriteAux.
func TestInjectionAddressesCoverAllStorePoints(t *testing.T) {
	writeAux := func(dir string) error {
		st, err := Create(dir, Config{Dims: 5})
		if err != nil {
			return err
		}
		defer st.Close()
		return st.WriteAux("warm.aux.json", []byte(`{"k":3}`))
	}
	cases := []struct {
		name  string
		build func(dir string) error
		runs  int // builds into the same directory; only the last is recorded
		want  map[faults.Point]int
	}{
		{"build", faultBuild, 1, map[faults.Point]int{
			faults.ShardWrite:     2, // two shards
			faults.ShardSync:      2,
			faults.ShardRename:    2,
			faults.ManifestWrite:  1,
			faults.ManifestSync:   1,
			faults.ManifestRename: 1,
			faults.DirSync:        3, // two shards + manifest
		}},
		{"rerun", faultBuild, 2, map[faults.Point]int{
			faults.ShardSync:    2,
			faults.ManifestSync: 1,
			faults.DirSync:      3,
		}},
		{"aux", writeAux, 1, map[faults.Point]int{
			faults.AuxWrite:  1,
			faults.AuxSync:   1,
			faults.AuxRename: 1,
			faults.DirSync:   1,
		}},
		{"aux-rerun", writeAux, 2, map[faults.Point]int{
			faults.AuxSync: 1,
			faults.DirSync: 1,
		}},
	}
	all := []faults.Point{
		faults.ShardWrite, faults.ShardSync, faults.ShardRename,
		faults.ManifestWrite, faults.ManifestSync, faults.ManifestRename,
		faults.AuxWrite, faults.AuxSync, faults.AuxRename, faults.DirSync,
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			for i := 1; i < c.runs; i++ {
				if err := c.build(dir); err != nil {
					t.Fatal(err)
				}
			}
			stop := faults.Record()
			err := c.build(dir)
			addrs := stop()
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[faults.Point]int)
			for _, a := range addrs {
				seen[a.Point]++
			}
			for _, p := range all {
				if seen[p] != c.want[p] {
					t.Errorf("point %s crossed %d times, want %d", p, seen[p], c.want[p])
				}
			}
		})
	}
}

// TestTornWriteNeverReachesCommittedName pins the core atomicity
// claim directly: a torn shard write leaves the half-written bytes
// only under the temp name, never under a name a manifest could
// reference, and the committed state after recovery has no trace of
// them.
func TestTornWriteNeverReachesCommittedName(t *testing.T) {
	dir := t.TempDir()
	disarm := faults.Arm(faults.Address{Point: faults.ShardWrite, Key: ShardFileName("fi/b", "fi-cfg\x00float32")}, faults.Torn)
	buildErr := faultBuild(dir)
	if fired := disarm(); fired != 1 {
		t.Fatalf("torn fault fired %d times", fired)
	}
	if buildErr == nil || !errors.Is(buildErr, faults.ErrInjected) {
		t.Fatalf("build error = %v", buildErr)
	}
	// No manifest was committed (the build aborted before Commit), and
	// the only debris is the torn temp file.
	if _, _, err := Inventory(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("aborted build left a manifest: %v", err)
	}
	if err := faultBuild(dir); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("store not clean after rebuild over torn debris:\n%s", rep.String())
	}
}
