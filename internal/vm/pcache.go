package vm

import (
	"sync/atomic"

	"mat2c/internal/lru"
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

var (
	prepCache            = lru.New[pairKey, *CompiledProgram](DefaultPreparedCacheSize)
	prepHits, prepMisses atomic.Uint64
)

// procHashes memoizes Processor.ContentHash per pointer: DSE sweeps
// derive hundreds of distinct descriptions, but each one is a single
// long-lived pointer hashed exactly once. Like progHashes it is a
// bounded LRU, so in a long-lived mat2cd under DSE churn retired sweep
// variants become collectable as new ones push them out, while the
// working set stays warm.
var procHashes = lru.New[*pdesc.Processor, string](procHashMemoCap)

const procHashMemoCap = 4096

func processorHash(p *pdesc.Processor) (string, bool) {
	if h, ok := procHashes.Get(p); ok {
		return h, true
	}
	h, err := p.ContentHash()
	if err != nil {
		return "", false
	}
	procHashes.Add(p, h)
	return h, true
}

// costTables memoizes pdesc.NewCostTable per processor pointer, bounded
// like procHashes: a sweep prices every kernel of a variant against one
// long-lived processor.
var costTables = lru.New[*pdesc.Processor, *pdesc.CostTable](procHashMemoCap)

func costTable(p *pdesc.Processor) *pdesc.CostTable {
	if t, ok := costTables.Get(p); ok {
		return t
	}
	t, _ := costTables.Add(p, pdesc.NewCostTable(p))
	return t
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
	if cp, ok := prepCache.Get(key); ok {
		prepHits.Add(1)
		return cp
	}
	prepMisses.Add(1)
	// Translate outside the lock; concurrent misses on one key do the
	// work twice and the first insert wins.
	cp, _ := prepCache.Add(key, compileProgram(prog, proc))
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
	return PreparedCacheInfo{
		Entries:  prepCache.Len(),
		Capacity: DefaultPreparedCacheSize,
		Hits:     prepHits.Load(),
		Misses:   prepMisses.Load(),
	}
}

// ResetPreparedCache empties the compiled-program cache, its counters,
// the program and processor content-hash memos, and the cost-table memo
// (used by tests and benchmarks to measure cold paths).
func ResetPreparedCache() {
	prepCache.Clear()
	prepHits.Store(0)
	prepMisses.Store(0)
	procHashes.Clear()
	progHashes.Clear()
	costTables.Clear()
}
