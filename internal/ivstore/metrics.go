package ivstore

import "mica/internal/obs"

// CacheStats counts one store's shard reads. Every ReadShard call is
// one decode: a read that succeeds counts in Decodes, one that fails
// in DecodeErrors, and Misses is their sum. There is no decoded-shard
// cache, so Hits, Evictions and PeakBytes are always 0; they keep the
// field set benchmark harnesses already read. The JSON tags are the
// field names mica-serve's /stats endpoint exposes.
type CacheStats struct {
	// PeakBytes is always 0: no decoded shard is kept.
	PeakBytes int64 `json:"peak_bytes"`
	// Hits is always 0: every read decodes.
	Hits uint64 `json:"hits"`
	// Misses counts every shard read, Decodes + DecodeErrors.
	Misses uint64 `json:"misses"`
	// Decodes counts shard reads that succeeded.
	Decodes uint64 `json:"decodes"`
	// DecodeErrors counts shard reads that failed.
	DecodeErrors uint64 `json:"decode_errors"`
	// Evictions is always 0: no decoded shard is kept.
	Evictions uint64 `json:"evictions"`
}

// Shard-read metrics on the default registry. They sum across every
// store opened by the process; CacheStats counts one store.
var (
	metDecodes    = obs.Default().Counter("mica_ivstore_cache_decodes_total", "Shard reads that decoded successfully.")
	metDecodeErrs = obs.Default().Counter("mica_ivstore_cache_decode_errors_total", "Shard reads that failed.")
)

// metUnchangedWrites counts writeFileDurable calls that found the
// file already holding the bytes and kept it in place: one per shard,
// manifest or aux write an unchanged rerun did not replace.
var metUnchangedWrites = obs.Default().Counter("mica_ivstore_unchanged_writes_total", "Durable writes satisfied in place: the file already held the bytes, so no temp file or rename.")
