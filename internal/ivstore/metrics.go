package ivstore

import "mica/internal/obs"

// Decoded-shard cache metrics on the default registry. Counters sum
// across every store opened by the process; the byte gauges track the
// aggregate resident footprint (and its high-water mark) so a server
// hosting several stores sees its total cache pressure.
var (
	metCacheHits       = obs.Default().Counter("mica_ivstore_cache_hits_total", "Shard lookups served from the decoded-shard cache.")
	metCacheMisses     = obs.Default().Counter("mica_ivstore_cache_misses_total", "Shard lookups that initiated a decode.")
	metCacheDecodes    = obs.Default().Counter("mica_ivstore_cache_decodes_total", "Shard decodes that succeeded.")
	metCacheDecodeErrs = obs.Default().Counter("mica_ivstore_cache_decode_errors_total", "Shard decode attempts that failed.")
	metCacheErrWaits   = obs.Default().Counter("mica_ivstore_cache_error_waits_total", "Lookups that joined an in-flight decode which failed.")
	metCacheEvictions  = obs.Default().Counter("mica_ivstore_cache_evictions_total", "Shards evicted to stay within the cache budget.")
	metCacheBytes      = obs.Default().Gauge("mica_ivstore_cache_bytes", "Decoded bytes resident across all shard caches.")
	metCachePeakBytes  = obs.Default().Gauge("mica_ivstore_cache_peak_bytes", "High-water mark of resident decoded bytes.")
)

// metUnchangedWrites counts writeFileDurable calls that found the
// file already holding the bytes and kept it in place: one per shard,
// manifest or aux write an unchanged rerun did not replace.
var metUnchangedWrites = obs.Default().Counter("mica_ivstore_unchanged_writes_total", "Durable writes satisfied in place: the file already held the bytes, so no temp file or rename.")
