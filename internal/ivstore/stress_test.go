package ivstore

import (
	"sync"
	"testing"
)

// referenceRows decodes every shard directly (bypassing the cache) and
// returns the store's rows in global row order, the comparison oracle
// for the concurrent readers below.
func referenceRows(t *testing.T, st *Store) [][]float64 {
	t.Helper()
	ref := make([][]float64, 0, st.NumRows())
	for i := range st.Shards() {
		data, err := st.ReadShard(i)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < data.Vecs.Rows; r++ {
			row := make([]float64, data.Vecs.Cols)
			copy(row, data.Vecs.Row(r))
			ref = append(ref, row)
		}
	}
	return ref
}

func rowsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStoreConcurrentReadersStress drives N goroutines, each with its
// own Reader doing full scans plus strided random reads over one shared
// store (run under -race in CI). Phase one asserts the singleflight
// property — exactly one decode per shard no matter how many readers
// race on first touch — and the CacheStats invariants. Phase two keeps
// the same traffic running while SetCacheBytes concurrently resets and
// re-budgets the cache, asserting rows stay bit-identical to the
// direct-read oracle and the final counters still satisfy the
// documented relations.
func TestStoreConcurrentReadersStress(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f"}
	st := buildStore(t, t.TempDir(), Config{Dims: 8}, names, 40)
	opened, err := Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	ref := referenceRows(t, opened)

	scan := func(g int) error {
		r := opened.Rows()
		for i := 0; i < opened.NumRows(); i++ {
			row, err := r.RowErr(i)
			if err != nil {
				return err
			}
			if !rowsEqual(row, ref[i]) {
				t.Errorf("reader %d: row %d diverges from direct read", g, i)
				return nil
			}
		}
		// A strided pass that touches every shard.
		for i := g % 7; i < opened.NumRows(); i += 7 {
			row, err := r.RowErr(i)
			if err != nil {
				return err
			}
			if !rowsEqual(row, ref[i]) {
				t.Errorf("reader %d: strided row %d diverges", g, i)
				return nil
			}
		}
		return nil
	}

	// Phase one: all readers race on a cold cache.
	const readers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			if err := scan(g); err != nil {
				t.Error(err)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	cs := opened.CacheStats()
	if cs.Decodes != uint64(len(names)) {
		t.Fatalf("stats %+v, want exactly one decode per shard (%d)", cs, len(names))
	}
	if cs.DecodeErrors != 0 || cs.ErrorWaits != 0 {
		t.Fatalf("stats %+v: spurious error-path counters", cs)
	}
	if cs.Decodes != cs.Misses-cs.DecodeErrors {
		t.Fatalf("stats %+v: Decodes != Misses - DecodeErrors", cs)
	}
	if cs.Evictions != 0 || cs.Bytes > cs.BudgetBytes || cs.PeakBytes < cs.Bytes {
		t.Fatalf("stats %+v: byte accounting out of bounds", cs)
	}

	// Phase two: the same traffic with concurrent cache resets. Every
	// SetCacheBytes drops the cache mid-flight; readers must keep
	// serving bit-identical rows from whichever cache generation they
	// land on.
	stop := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := scan(g); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	budgets := []int64{1, 0, decodedShardBytes(40, 8) * 2, 0}
	for i := 0; i < 24; i++ {
		opened.SetCacheBytes(budgets[i%len(budgets)])
	}
	close(stop)
	wg.Wait()
	final := opened.CacheStats()
	if final.Decodes != final.Misses-final.DecodeErrors {
		t.Fatalf("final stats %+v: Decodes != Misses - DecodeErrors", final)
	}
	if final.DecodeErrors != 0 {
		t.Fatalf("final stats %+v: decode errors under healthy store", final)
	}
	if final.PeakBytes < final.Bytes {
		t.Fatalf("final stats %+v: peak below resident bytes", final)
	}
}
