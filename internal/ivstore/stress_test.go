package ivstore

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// readShards reads every committed shard of st in store order, the
// comparison oracle for the concurrent readers below.
func readShards(t testing.TB, st *Store) []*ShardData {
	t.Helper()
	out := make([]*ShardData, len(st.Shards()))
	for i := range out {
		sd, err := st.ReadShard(i)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sd
	}
	return out
}

// TestStoreConcurrentReadersStress drives N goroutines doing full
// scans plus strided reads over one shared store (run under -race in
// CI). Every read must be bit-identical to the sequential oracle, and
// the CacheStats counters must account for exactly the reads made:
// one decode per ReadShard call, however many readers race.
func TestStoreConcurrentReadersStress(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f"}
	st := buildStore(t, t.TempDir(), Config{Dims: 8}, names, 40)
	opened, err := Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	ref := readShards(t, opened)
	n := len(ref)

	var reads atomic.Uint64
	read := func(g, i int) {
		reads.Add(1)
		sd, err := opened.ReadShard(i)
		if err != nil {
			t.Error(err)
			return
		}
		if !reflect.DeepEqual(sd, ref[i]) {
			t.Errorf("reader %d: shard %d diverges from the sequential read", g, i)
		}
	}

	const readers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for pass := 0; pass < 3; pass++ {
				for i := 0; i < n; i++ {
					read(g, i)
				}
				// A strided pass in another order per reader.
				for i := g % n; i < 4*n; i += 5 {
					read(g, i%n)
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	cs := opened.CacheStats()
	want := uint64(n) + reads.Load() // the oracle's reads, then the readers'
	if cs != (CacheStats{Misses: want, Decodes: want}) {
		t.Fatalf("stats %+v, want %d decodes and misses, nothing else", cs, want)
	}
}
