package ivstore

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"mica/internal/stats"
)

// TestCacheDefaultBudget: the default budget is the total decoded size
// for small stores, is clamped at the cap for huge inventories, and
// never drops below the largest single shard.
func TestCacheDefaultBudget(t *testing.T) {
	dims := 4
	small := []Shard{{Rows: 10}, {Rows: 20}}
	want := decodedShardBytes(10, dims) + decodedShardBytes(20, dims)
	if got := defaultCacheBudget(small, dims); got != want {
		t.Fatalf("small-store budget %d, want total %d", got, want)
	}
	huge := []Shard{{Rows: 1 << 28}, {Rows: 1 << 28}} // decoded far beyond the cap
	got := defaultCacheBudget(huge, dims)
	if largest := decodedShardBytes(1<<28, dims); got != largest {
		// Both shards exceed the cap, so the floor (one shard) wins.
		t.Fatalf("huge-store budget %d, want largest-shard floor %d", got, largest)
	}
	if got := defaultCacheBudget(nil, dims); got != 0 {
		t.Fatalf("empty-store budget %d, want 0", got)
	}
}

// TestCachedShardMatchesReadShard: cached reads are the same decoded
// bytes as direct reads, hits are served without re-decoding, and the
// stats counters account for every access.
func TestCachedShardMatchesReadShard(t *testing.T) {
	for _, enc := range []Encoding{Float32, Quant8} {
		t.Run(string(enc), func(t *testing.T) {
			st := buildStore(t, t.TempDir(), Config{Dims: 6, Encoding: enc}, []string{"a", "b", "c"}, 25)
			opened, err := Open(st.Dir())
			if err != nil {
				t.Fatal(err)
			}
			defer opened.Close()
			for i := range opened.Shards() {
				direct, err := opened.ReadShard(i)
				if err != nil {
					t.Fatal(err)
				}
				cached, err := opened.CachedShard(i)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(direct, cached) {
					t.Fatalf("shard %d: cached decode diverges from direct read", i)
				}
				again, err := opened.CachedShard(i)
				if err != nil {
					t.Fatal(err)
				}
				if again != cached {
					t.Fatalf("shard %d: second lookup did not hit the cache", i)
				}
			}
			cs := opened.CacheStats()
			if cs.Misses != 3 || cs.Decodes != 3 {
				t.Fatalf("stats %+v, want 3 misses / 3 decodes", cs)
			}
			if cs.Hits != 3 {
				t.Fatalf("stats %+v, want 3 hits", cs)
			}
			if cs.Evictions != 0 || cs.Bytes == 0 || cs.PeakBytes != cs.Bytes {
				t.Fatalf("stats %+v: unexpected eviction/byte accounting", cs)
			}
		})
	}
}

// TestCacheEviction: a budget that holds roughly one shard evicts in
// LRU order, the peak counter records the high-water mark, and the
// most recent shard always stays resident even when it alone exceeds
// the budget.
func TestCacheEviction(t *testing.T) {
	st := buildStore(t, t.TempDir(), Config{Dims: 8}, []string{"a", "b", "c"}, 40)
	opened, err := Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	// Budget of one byte: the keep-the-latest rule retains exactly the
	// most recent shard.
	opened.SetCacheBytes(1)
	if got := opened.CacheBytes(); got != 1 {
		t.Fatalf("budget %d after SetCacheBytes(1)", got)
	}
	for i := 0; i < 3; i++ {
		if _, err := opened.CachedShard(i); err != nil {
			t.Fatal(err)
		}
	}
	cs := opened.CacheStats()
	if cs.Evictions != 2 || cs.Misses != 3 {
		t.Fatalf("stats %+v, want 2 evictions over 3 misses", cs)
	}
	last, err := opened.ReadShard(2)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Bytes != decodedShardBytes(last.Vecs.Rows, last.Vecs.Cols) {
		t.Fatalf("resident bytes %d, want exactly the last shard", cs.Bytes)
	}
	// Re-touching shard 0 is a miss now (it was evicted)...
	if _, err := opened.CachedShard(0); err != nil {
		t.Fatal(err)
	}
	if cs := opened.CacheStats(); cs.Misses != 4 {
		t.Fatalf("stats %+v, want re-decode of evicted shard", cs)
	}
	// ...and resetting to the default budget holds everything again.
	opened.SetCacheBytes(0)
	for i := 0; i < 3; i++ {
		if _, err := opened.CachedShard(i); err != nil {
			t.Fatal(err)
		}
		if _, err := opened.CachedShard(i); err != nil {
			t.Fatal(err)
		}
	}
	cs = opened.CacheStats()
	if cs.Evictions != 0 || cs.Misses != 3 || cs.Hits != 3 {
		t.Fatalf("stats after default reset %+v", cs)
	}
}

// TestCacheLRUOrder: with room for two of three shards, the
// least-recently-used one is the casualty.
func TestCacheLRUOrder(t *testing.T) {
	st := buildStore(t, t.TempDir(), Config{Dims: 8}, []string{"a", "b", "c"}, 40)
	opened, err := Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	sizes := make([]int64, 3)
	for i := range sizes {
		sd, err := opened.ReadShard(i)
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = decodedShardBytes(sd.Vecs.Rows, sd.Vecs.Cols)
	}
	// Room for shards 0 and 2 together (shards differ in size, so the
	// budget is chosen to fit exactly the set that should survive).
	opened.SetCacheBytes(sizes[0] + sizes[2])
	opened.CachedShard(0)
	opened.CachedShard(1)
	opened.CachedShard(0) // refresh 0, making 1 the LRU victim
	opened.CachedShard(2) // evicts 1
	cs := opened.CacheStats()
	if cs.Evictions != 1 {
		t.Fatalf("stats %+v, want exactly one eviction", cs)
	}
	opened.CachedShard(0) // must still be a hit
	if cs := opened.CacheStats(); cs.Misses != 3 {
		t.Fatalf("stats %+v: LRU evicted the wrong shard", cs)
	}
}

// TestReaderUsesSharedCache: two Readers over one store share decodes
// — the second full scan is all cache hits — and rows keep matching
// the direct ReadShard decode bit for bit.
func TestReaderUsesSharedCache(t *testing.T) {
	st := buildStore(t, t.TempDir(), Config{Dims: 5}, []string{"a", "b"}, 30)
	opened, err := Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	r1, r2 := opened.Rows(), opened.Rows()
	for i := 0; i < opened.NumRows(); i++ {
		want := append([]float64(nil), mustRow(t, r1, i)...)
		if !reflect.DeepEqual(mustRow(t, r2, i), want) {
			t.Fatalf("row %d diverges between readers", i)
		}
	}
	cs := opened.CacheStats()
	if cs.Decodes != uint64(len(opened.Shards())) {
		t.Fatalf("stats %+v, want one decode per shard across both readers", cs)
	}
}

// TestCacheConcurrentReaders: many goroutines scanning and reading
// rows at random through the shared cache under a tiny budget (constant eviction
// churn) stay bit-identical to a reference scan. Run with -race.
func TestCacheConcurrentReaders(t *testing.T) {
	st := buildStore(t, t.TempDir(), Config{Dims: 6}, []string{"a", "b", "c", "d"}, 30)
	opened, err := Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	n := opened.NumRows()
	ref := stats.NewMatrix(n, 6)
	refReader := opened.Rows()
	for i := 0; i < n; i++ {
		copy(ref.Row(i), mustRow(t, refReader, i))
	}
	sd, err := opened.ReadShard(0)
	if err != nil {
		t.Fatal(err)
	}
	opened.SetCacheBytes(decodedShardBytes(sd.Vecs.Rows, sd.Vecs.Cols)) // ~1 shard: force churn

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := opened.Rows()
			if g%2 == 0 {
				for i := 0; i < n; i++ {
					if !reflect.DeepEqual(mustRow(t, r, i), ref.Row(i)) {
						errs <- "scan diverged"
						return
					}
				}
				return
			}
			for _, i := range []int{n - 1, 0, n / 2, 1, n - 2, n / 3} {
				if !reflect.DeepEqual(mustRow(t, r, i), ref.Row(i)) {
					errs <- "random read diverged"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	cs := opened.CacheStats()
	if cs.Decodes != cs.Misses {
		t.Fatalf("stats %+v: in-flight dedup broken (decodes != misses)", cs)
	}
}

// TestCacheSingleflight: concurrent first touches of the same shard
// share one decode.
func TestCacheSingleflight(t *testing.T) {
	st := buildStore(t, t.TempDir(), Config{Dims: 5}, []string{"only"}, 200)
	opened, err := Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := opened.CachedShard(0); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	cs := opened.CacheStats()
	if cs.Decodes != 1 {
		t.Fatalf("stats %+v, want exactly one decode for 16 concurrent readers", cs)
	}
	if cs.Hits+cs.Misses != 16 {
		t.Fatalf("stats %+v, want 16 accounted lookups", cs)
	}
}

// TestCacheFailedDecodeAccounting pins the error-path accounting:
// waiters that join an in-flight decode which then fails must receive
// the error and count as ErrorWaits (not Hits), and the failed attempt
// counts as a DecodeError (not a Decode), preserving the documented
// Decodes == Misses - DecodeErrors relation.
func TestCacheFailedDecodeAccounting(t *testing.T) {
	st := buildStore(t, t.TempDir(), Config{Dims: 4}, []string{"a"}, 10)
	opened, err := Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()

	c := opened.cacheHandle()
	realDecode := c.decode
	started := make(chan struct{})
	release := make(chan struct{})
	c.decode = func(i int) (*ShardData, error) {
		close(started)
		<-release
		return nil, errors.New("injected decode failure")
	}

	const joiners = 4
	var wg sync.WaitGroup
	errCh := make(chan error, joiners+1)
	wg.Add(1)
	go func() { // the decoding lookup
		defer wg.Done()
		_, err := opened.CachedShard(0)
		errCh <- err
	}()
	<-started // the entry is registered and its decode is in flight
	for g := 0; g < joiners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := opened.CachedShard(0)
			errCh <- err
		}()
	}
	// Wait until every joiner has registered on the in-flight entry,
	// so all of them are classified on the error path.
	for {
		c.mu.Lock()
		e := c.entries[0]
		n := 0
		if e != nil {
			n = e.waiters
		}
		c.mu.Unlock()
		if n == joiners {
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err == nil {
			t.Fatal("a lookup joined the failed decode but got no error")
		}
	}
	cs := opened.CacheStats()
	if cs.Misses != 1 || cs.Decodes != 0 || cs.DecodeErrors != 1 {
		t.Fatalf("stats %+v, want 1 miss / 0 decodes / 1 decode error", cs)
	}
	if cs.Hits != 0 || cs.ErrorWaits != joiners {
		t.Fatalf("stats %+v, want 0 hits / %d error waits", cs, joiners)
	}

	// The failure is not cached: a retry decodes fresh and succeeds,
	// and the invariant holds across the mixed history.
	c.decode = realDecode
	if _, err := opened.CachedShard(0); err != nil {
		t.Fatalf("retry after failed decode: %v", err)
	}
	if _, err := opened.CachedShard(0); err != nil {
		t.Fatalf("cached retry: %v", err)
	}
	cs = opened.CacheStats()
	if cs.Misses != 2 || cs.Decodes != 1 || cs.DecodeErrors != 1 || cs.Hits != 1 {
		t.Fatalf("stats %+v, want 2 misses / 1 decode / 1 decode error / 1 hit", cs)
	}
	if cs.Decodes != cs.Misses-cs.DecodeErrors {
		t.Fatalf("stats %+v: Decodes != Misses - DecodeErrors", cs)
	}
}
