package vm

import (
	"container/list"
	"sync"

	"mat2c/internal/pdesc"
)

// The compiled-program cache.
//
// Translation is cheap relative to compilation but not free (a cost
// table, the pre-decoded table, one closure per op), and long-lived
// workloads — the compile-and-simulate service, repeated benchtab runs
// — execute the same program on the same processor many times.
// CompiledFor memoizes translations in a bounded LRU.
//
// Invariants:
//   - The key is (program content hash, processor content hash) and
//     nothing else: content-identical programs and processors share one
//     entry regardless of pointer identity, and any difference in
//     either yields a distinct entry.
//   - Each key holds exactly one *CompiledProgram; the decode it was
//     translated from lives inside it, never as a second entry.
//   - Cached values are immutable, so a racing duplicate translation is
//     harmless: the first insert wins and both results are equivalent.
//
// A compile-cache hit one layer up returns a pointer-identical Program
// whose ContentHash is already memoized, so a lookup is two memo probes
// and one map probe.

// DefaultPreparedCacheSize bounds the process-wide compiled-program
// cache (entries, not bytes; a translation is a few KiB).
const DefaultPreparedCacheSize = 256

type pairKey struct {
	prog string // Program.ContentHash
	proc string // Processor.ContentHash
}

type pairEntry struct {
	key pairKey
	cp  *CompiledProgram
}

var prepCache = struct {
	sync.Mutex
	entries map[pairKey]*list.Element
	order   *list.List // front = most recently used
	cap     int
	hits    uint64
	misses  uint64
}{
	entries: make(map[pairKey]*list.Element),
	order:   list.New(),
	cap:     DefaultPreparedCacheSize,
}

// hashMemo is a bounded pointer-keyed content-hash memo with evict-one
// LRU replacement. It must never exceed its cap and must never pin an
// evicted pointer: in a long-lived mat2cd under DSE churn, retired
// sweep variants have to become collectable as new ones push them out,
// and evicting one entry at a time keeps the working set warm instead
// of dropping it wholesale.
type hashMemo[K comparable] struct {
	mu      sync.Mutex
	entries map[K]*list.Element
	order   *list.List // front = most recently used
	cap     int
}

type hashMemoEntry[K comparable] struct {
	key K
	h   string
}

func newHashMemo[K comparable](cap int) *hashMemo[K] {
	return &hashMemo[K]{
		entries: make(map[K]*list.Element),
		order:   list.New(),
		cap:     cap,
	}
}

func (m *hashMemo[K]) get(k K) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[k]; ok {
		m.order.MoveToFront(el)
		return el.Value.(*hashMemoEntry[K]).h, true
	}
	return "", false
}

func (m *hashMemo[K]) put(k K, h string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[k]; ok {
		m.order.MoveToFront(el)
		return
	}
	m.entries[k] = m.order.PushFront(&hashMemoEntry[K]{key: k, h: h})
	for m.order.Len() > m.cap {
		old := m.order.Back()
		m.order.Remove(old)
		delete(m.entries, old.Value.(*hashMemoEntry[K]).key)
	}
}

func (m *hashMemo[K]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

func (m *hashMemo[K]) reset() {
	m.mu.Lock()
	m.entries = make(map[K]*list.Element)
	m.order = list.New()
	m.mu.Unlock()
}

// procHashes memoizes Processor.ContentHash per pointer: DSE sweeps
// derive hundreds of distinct descriptions, but each one is a single
// long-lived pointer hashed exactly once.
var procHashes = newHashMemo[*pdesc.Processor](procHashMemoCap)

const procHashMemoCap = 4096

func processorHash(p *pdesc.Processor) (string, bool) {
	if h, ok := procHashes.get(p); ok {
		return h, true
	}
	h, err := p.ContentHash()
	if err != nil {
		return "", false
	}
	procHashes.put(p, h)
	return h, true
}

// CompiledFor returns the compiled form of prog for proc, consulting
// the process-wide cache. Both values must be treated as immutable
// after this call. Safe for concurrent use.
func CompiledFor(prog *Program, proc *pdesc.Processor) *CompiledProgram {
	ph, ok := processorHash(proc)
	if !ok {
		// Unhashable description (should not happen): translate uncached.
		return compileProgram(prog, proc)
	}
	key := pairKey{prog: prog.ContentHash(), proc: ph}
	if cp, ok := cacheGet(key); ok {
		return cp
	}
	// Translate outside the lock; concurrent misses on one key do the
	// work twice and the first insert wins.
	return cacheInsert(key, compileProgram(prog, proc))
}

// cacheGet probes the cache, promoting and counting a hit, or counting
// a miss.
func cacheGet(key pairKey) (*CompiledProgram, bool) {
	prepCache.Lock()
	defer prepCache.Unlock()
	if el, ok := prepCache.entries[key]; ok {
		prepCache.order.MoveToFront(el)
		prepCache.hits++
		return el.Value.(*pairEntry).cp, true
	}
	prepCache.misses++
	return nil, false
}

// cacheInsert installs cp under key unless a concurrent insert already
// won the race, and returns the translation that ended up cached.
func cacheInsert(key pairKey, cp *CompiledProgram) *CompiledProgram {
	prepCache.Lock()
	defer prepCache.Unlock()
	if el, ok := prepCache.entries[key]; ok {
		prepCache.order.MoveToFront(el)
		return el.Value.(*pairEntry).cp
	}
	prepCache.entries[key] = prepCache.order.PushFront(&pairEntry{key: key, cp: cp})
	for prepCache.order.Len() > prepCache.cap {
		old := prepCache.order.Back()
		prepCache.order.Remove(old)
		delete(prepCache.entries, old.Value.(*pairEntry).key)
	}
	return cp
}

// PreparedCacheInfo is a point-in-time snapshot of the compiled-program
// cache, exported for service metrics and tooling.
type PreparedCacheInfo struct {
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
}

// PreparedCacheStats reports cache occupancy and hit/miss counters.
func PreparedCacheStats() PreparedCacheInfo {
	prepCache.Lock()
	defer prepCache.Unlock()
	return PreparedCacheInfo{
		Entries:  prepCache.order.Len(),
		Capacity: prepCache.cap,
		Hits:     prepCache.hits,
		Misses:   prepCache.misses,
	}
}

// ResetPreparedCache empties the compiled-program cache and its
// counters (used by tests and benchmarks to measure cold paths).
func ResetPreparedCache() {
	prepCache.Lock()
	prepCache.entries = make(map[pairKey]*list.Element)
	prepCache.order = list.New()
	prepCache.hits = 0
	prepCache.misses = 0
	prepCache.Unlock()

	procHashes.reset()
}
