package artifact

import "errors"

// ErrNotFound reports a key the store has no entry for. Stores return
// it (wrapped or bare) from Get and Delete; callers treat it as a
// clean miss.
var ErrNotFound = errors.New("artifact: not found")

// Store is a persistent byte store keyed by content address. The cache
// layer sits a process-local LRU in front of one: Get on a memory miss,
// asynchronous Put on compile, Delete when an entry decodes corrupt.
//
// Implementations must be safe for concurrent use by one process and
// must tolerate concurrent use of the same backing storage by multiple
// processes for identical keys — entries are content-addressed, so
// racing writers store identical bytes and any winner is correct.
type Store interface {
	// Get returns the bytes stored under key, or an error wrapping
	// ErrNotFound when there is no entry.
	Get(key string) ([]byte, error)
	// Put durably stores data under key, atomically: a reader (or a
	// crash) mid-Put observes either nothing or the full entry.
	Put(key string, data []byte) error
	// Delete removes the entry (ErrNotFound when absent).
	Delete(key string) error
	// Len reports the number of stored entries.
	Len() (int, error)
}

// Checker is optionally implemented by stores that can answer "is this
// key present?" more cheaply than a full Get. The cache uses it to
// avoid re-publishing entries a shared remote tier already holds.
type Checker interface {
	// Has reports whether an entry exists under key without fetching it.
	Has(key string) (bool, error)
}

// BatchGetter is optionally implemented by stores that can fetch many
// entries in one round trip. The cache uses it to read ahead the
// entries a run of lookups is about to read, into read-ahead views
// that only that run's lookups read (mat2c.Cache.Prefetch).
type BatchGetter interface {
	// GetBatch fetches the entries under keys as one operation. On
	// success it returns one answer per key, in order: the entry's
	// bytes, or an error wrapping ErrNotFound (absent) or ErrCorrupt
	// (bytes that failed their check). An error means the batch as a
	// whole failed — the store cannot batch, or the reply was lost or
	// malformed — and the caller falls back to Get per key.
	GetBatch(keys []string) ([]Fetched, error)
}

// Fetched is one key's answer in a batch read: Data, or Err as Get
// would return it.
type Fetched struct {
	Data []byte
	Err  error
}

// Stats is a point-in-time snapshot of a store's traffic and occupancy,
// surfaced through the cache tier into /metrics. The trailing fields
// are populated only by stores they apply to (a network store's
// retries, breaker, and byte counters; a corrupt-frame counter) and
// stay absent from the JSON for stores that never touch them.
type Stats struct {
	Gets      uint64 `json:"gets"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	PutErrors uint64 `json:"put_errors"`
	Deletes   uint64 `json:"deletes"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Budget    int64  `json:"budget_bytes"`

	// Network-store extensions (see internal/artifact/remote).
	Retries      uint64 `json:"retries,omitempty"`
	DecodeErrors uint64 `json:"decode_errors,omitempty"`
	Unavailable  uint64 `json:"unavailable,omitempty"`
	BreakerTrips uint64 `json:"breaker_trips,omitempty"`
	BreakerState string `json:"breaker_state,omitempty"`
	BytesIn      int64  `json:"bytes_in,omitempty"`
	BytesOut     int64  `json:"bytes_out,omitempty"`
	// Batches counts batch reads (BatchGetter) and BatchKeys the keys
	// they asked for. Hits and Misses cover batch keys as well as Gets.
	Batches   uint64 `json:"batches,omitempty"`
	BatchKeys uint64 `json:"batch_keys,omitempty"`
}

// StatsReporter is optionally implemented by stores that track their
// own traffic counters (DiskStore and the remote client do).
type StatsReporter interface {
	Stats() Stats
}
