package ivstore

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentReadersDuringCommitWithPrune exercises the staleness
// contract documented in the package comment: multiple shared-flock
// readers keep serving sequential and out-of-order ReadShard calls
// from their Open-time manifest snapshot while a writer re-creates the
// store and runs Commit — whose prune must be skipped (the readers
// hold the shared lock), so the snapshot's files stay on disk and
// every concurrent read stays bit-identical to the pre-commit
// reference. Run with -race.
func TestConcurrentReadersDuringCommitWithPrune(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dims: 5, ConfigHash: "v1"}
	buildStore(t, dir, cfg, []string{"a", "b", "c"}, 30)

	// Two independent reader handles, each holding the lock shared.
	readers := make([]*Store, 2)
	for i := range readers {
		opened, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer opened.Close()
		readers[i] = opened
	}
	ref := readShards(t, readers[0])
	n := len(ref)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, rd := range readers {
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(rd *Store, g int) {
				defer wg.Done()
				order := []int{n - 1, 0, n / 2, n / 2} // out of order, with a repeat
				if g%2 == 0 {
					order = nil
					for i := range n {
						order = append(order, i)
					}
				}
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, i := range order {
						if sd, err := rd.ReadShard(i); err != nil || !reflect.DeepEqual(sd, ref[i]) {
							t.Errorf("reader %d: shard %d diverged during commit (err %v)", g, i, err)
							return
						}
					}
				}
			}(rd, g)
		}
	}

	// Writer: Create would fail while readers hold the lock shared, so
	// the writer takes the legitimate re-commit path — a builder that
	// committed once (downgraded to shared) stages a replacement set
	// and commits again over the published store.
	recommit, err := openForRecommit(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	insts, m := synthShard(18, 5, 77)
	if err := recommit.WriteShard("d", insts, m); err != nil {
		t.Fatal(err)
	}
	warnings, err := recommit.Commit([]string{"d"})
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// The prune must have been skipped: readers hold the shared lock.
	found := false
	for _, w := range warnings {
		if strings.Contains(w, "prune skipped") {
			found = true
		}
	}
	if !found {
		t.Fatalf("commit warnings %q do not report the skipped prune", warnings)
	}
	// The superseded files are still on disk, so the stale snapshots
	// keep reading cleanly even after the commit.
	for _, rd := range readers {
		if got := readShards(t, rd); !reflect.DeepEqual(got, ref) {
			t.Fatal("stale snapshot unreadable after commit")
		}
	}
	// A fresh Open observes the new manifest.
	if err := recommit.Close(); err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if got := fresh.Benchmarks(); !reflect.DeepEqual(got, []string{"d"}) {
		t.Fatalf("fresh open sees %v, want the re-committed set", got)
	}
}

// openForRecommit builds a writer handle that skips the exclusive
// Create lock, modeling a builder that already downgraded to shared
// after a first commit and is staging a follow-up while readers are
// live. It shares the lock with the readers exactly as a re-commit on
// a published store does.
func openForRecommit(dir string, cfg Config) (*Store, error) {
	st, err := Open(dir)
	if err != nil {
		return nil, err
	}
	// Open loads the committed state with a shared lock; staging and
	// committing on this handle is the re-commit scenario (Commit's
	// pruneLocked will fail to upgrade past the other readers).
	st.cfg = cfg
	return st, nil
}
