package mat2c

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"slices"
	"strconv"
	"sync"

	"mat2c/internal/artifact"
	"mat2c/internal/core"
	"mat2c/internal/lru"
	"mat2c/internal/vm"
)

// cacheKeyVersion invalidates every cached artifact when the key layout
// (or anything the key cannot see, like pipeline semantics) changes.
// Bump it whenever a compiler change can alter output for an unchanged
// input.
const cacheKeyVersion = "mat2c-cache-v3"

// Cache is a content-addressed, bounded LRU cache of compilation
// results, keyed by SHA-256 over everything that determines the
// artifact: source text, entry name, parameter types, the full target
// description, and the pipeline options. Identical inputs therefore
// share one compile; any change to any input misses.
//
// A Cache is safe for concurrent use. Cached *Result values are shared
// between callers: all Result accessors and Run methods are safe to use
// concurrently (each Run builds a fresh VM), but callers must not
// mutate the Processor a shared Result carries.
//
// Behind the memory tier a Cache optionally has store tiers, nearest
// first: a durable local artifact.Store (SetStore) and a fleet-shared
// remote store (SetRemoteStore). A memory miss probes them in that
// order before compiling, and whatever settles the lookup is offered
// asynchronously to the other tiers (see resolve and offer). A store
// tier can only ever cost a recompile: a Get error, an outage, or an
// entry that fails to decode (corruption, a format-version bump, a
// cache-key-version bump) is counted as a miss, never surfaced to the
// caller.
//
// A store tier files a compilation in a write-once trie by what it read
// of its processor (see trie.go): inner nodes name the questions the
// compile asked, and the leaf its answers lead to holds its record
// (artifact.Record), which names the program blob under its content
// hash. Processors that answer alike share one path, and compiles of
// one program share one blob. The Cache keeps the trie nodes it read
// in a decoded-node memo, so a lookup whose path it walked before
// reads nothing, and decodes and verifies each blob at most once while
// its program stays in a memo of the same bound as the memory tier.
// The store tiers also hold the events of verified simulation runs,
// which a DSE sweep prices variants from; an events lookup (Events)
// follows the rule of a compile lookup, through a memo of its own.
//
// Concurrent misses of one key share one resolution, and so do
// concurrent events lookups of one key, reads of one trie node, loads
// of one blob and writes of one entry to one tier: each goes through
// lru.Cache.Do.
type Cache struct {
	*cacheState
	views [numTiers]*readAhead // a Prefetch handle's, per tier (readers)
}

// cacheState is what a Cache shares with the handles Prefetch makes of
// it: the memory tier, the memos, the counters, the attached stores and
// the offers in flight.
type cacheState struct {
	mem *lru.Cache[string, *Result]
	max int
	// progs is the decoded-program memo, by content hash; nodes is the
	// decoded-node memo, the trie nodes this cache read, by key, with
	// the tier each came from; held records the tiers this cache read
	// each trie node or program blob from or wrote it to; events is the
	// run-events memo, by events key.
	progs  *lru.Cache[string, *vm.Program]
	nodes  *lru.Cache[string, memoNode]
	held   *lru.Cache[entryAt, struct{}]
	events *lru.Cache[string, *vm.Events]

	mu       sync.Mutex
	hits     uint64
	misses   uint64
	compiles uint64
	// flightWaits counts lookups that shared another caller's
	// resolution of their key.
	flightWaits uint64

	// blobDecodes counts program blobs decoded and verified;
	// programHits counts restores whose program the memo already had.
	blobDecodes, programHits uint64

	// eventMemoHits, eventHits and eventMisses count run-events
	// lookups (Events) the memo served, a tier served, or every tier
	// missed and a simulation followed; eventPuts counts events entries
	// written to a tier.
	eventMemoHits, eventHits, eventMisses, eventPuts uint64

	// reading holds the trie nodes a Prefetch is batch-reading now.
	reading map[string]*batchRead

	// tiers are the store tiers behind memory, indexed diskTier and
	// remoteTier; a tier with a nil store is skipped. writes holds the
	// in-flight asynchronous offers for Flush.
	tiers  [numTiers]tier
	writes sync.WaitGroup
}

// The store tiers, nearest first.
const (
	diskTier = iota
	remoteTier
	numTiers
)

// tier is one store behind the memory tier and its traffic as seen by
// this cache: lookups it settled, lookups it missed (every failure mode
// included), entries that were corrupt or failed to decode, and failed
// Puts.
type tier struct {
	store artifact.Store

	hits, misses, decodeErrors, storeErrors uint64
}

// entryAt names a store entry, a trie node or a program blob, on one
// tier.
type entryAt struct {
	key  string
	tier int
}

// nodesPerEntry sizes the decoded-node memo and the held-entry record
// by the memory tier's bound: a compile's path is a few nodes, and a
// sweep's paths share most of theirs.
const nodesPerEntry = 8

// bgCtx is the context of the memo computations no caller cancels: node
// reads, blob loads and store writes.
var bgCtx = context.Background()

// DefaultCacheSize bounds a NewCache(0) cache. Compiled artifacts are
// small (strings plus a VM program), so a few hundred entries is cheap.
const DefaultCacheSize = 256

// NewCache returns an empty cache holding at most maxEntries results
// (DefaultCacheSize when maxEntries <= 0).
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheSize
	}
	return &Cache{cacheState: &cacheState{
		mem:     lru.New[string, *Result](maxEntries),
		max:     maxEntries,
		progs:   lru.New[string, *vm.Program](maxEntries),
		nodes:   lru.New[string, memoNode](nodesPerEntry * maxEntries),
		held:    lru.New[entryAt, struct{}](numTiers * nodesPerEntry * maxEntries),
		events:  lru.New[string, *vm.Events](maxEntries),
		reading: make(map[string]*batchRead),
	}}
}

// SetStore attaches the durable local store, the first tier behind
// memory. It may be called at any time, even after traffic has started;
// lookups and writes already under way finish without it. A tier holds
// one store for the cache's life: SetStore panics when one is attached.
func (c *Cache) SetStore(s artifact.Store) { c.setTier(diskTier, s) }

// SetRemoteStore attaches the fleet-shared store, the tier behind the
// local one. It may be called at any time, even after traffic has
// started (fleet workers attach the coordinator's artifact endpoint
// when the first registration reply advertises it); lookups and writes
// already under way finish without it. A tier holds one store for the
// cache's life: SetRemoteStore panics when one is attached.
func (c *Cache) SetRemoteStore(s artifact.Store) { c.setTier(remoteTier, s) }

func (c *Cache) setTier(i int, s artifact.Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tiers[i].store != nil {
		panic("mat2c: a store is already attached to the tier")
	}
	c.tiers[i].store = s
}

// stores snapshots the attached stores, nearest first.
func (c *Cache) stores() (s [numTiers]artifact.Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.tiers {
		s[i] = c.tiers[i].store
	}
	return s
}

// readers snapshots the attached stores as this cache reads them: each
// through its read-ahead view when it has one.
func (c *Cache) readers() [numTiers]artifact.Store {
	s := c.stores()
	for i, v := range c.views {
		if v != nil {
			s[i] = v
		}
	}
	return s
}

// Flush blocks until every in-flight asynchronous store write has
// completed. Servers call it on drain so a process exit cannot strand
// compiled artifacts; tests call it for determinism.
func (c *Cache) Flush() { c.writes.Wait() }

// CacheStats is a point-in-time snapshot of cache effectiveness. The
// Disk* and Remote* counters and snapshots are zero/nil when the tier
// has no store attached.
type CacheStats struct {
	Entries    int    `json:"entries"`
	MaxEntries int    `json:"max_entries"`
	Hits       uint64 `json:"hits"`
	// Misses counts logical lookups that did not hit the in-memory
	// tier, tallied once each at the point they resolve, so
	// Misses == Compiles + DiskHits + RemoteHits + FlightWaits always
	// holds (failed or cancelled compiles resolve nothing and count
	// nowhere).
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`

	// Compiles counts compilations performed by CompileCached (every
	// tier missed); FlightWaits counts callers that shared the result
	// of another caller's resolution of their key instead of starting
	// their own.
	Compiles    uint64 `json:"compiles"`
	FlightWaits uint64 `json:"flight_waits"`
	// Disk tier traffic as seen by this cache: hits that restored a
	// Result, misses, entries that failed to decode (degraded to a
	// recompile), and write errors.
	DiskHits     uint64 `json:"disk_hits"`
	DiskMisses   uint64 `json:"disk_misses"`
	DecodeErrors uint64 `json:"disk_decode_errors"`
	StoreErrors  uint64 `json:"disk_store_errors"`
	// Remote tier traffic as seen by this cache: hits that restored a
	// Result another process compiled, misses (including every failure
	// mode — outage, open breaker, corrupt entry), entries that failed
	// frame or artifact decoding, and write/publish errors.
	RemoteHits         uint64 `json:"remote_hits"`
	RemoteMisses       uint64 `json:"remote_misses"`
	RemoteDecodeErrors uint64 `json:"remote_decode_errors"`
	RemoteStoreErrors  uint64 `json:"remote_store_errors"`
	// BlobDecodes counts program blobs decoded and verified, at most one
	// per distinct program while it stays in the decoded-program memo;
	// ProgramHits counts compiles restored with a program the memo
	// already had.
	BlobDecodes uint64 `json:"blob_decodes"`
	ProgramHits uint64 `json:"program_hits"`
	// EventMemoHits counts run-events lookups the events memo served,
	// a wait that shared another caller's lookup included; EventHits
	// counts lookups a store tier served; either way a verified run was
	// priced instead of simulated. EventMisses counts lookups every
	// tier missed (a corrupt or unreachable entry included, and every
	// lookup when no tier is attached), each followed by a simulation;
	// EventPuts counts events entries written to a tier. Events are not
	// compilations: none of them enters Hits, Misses or the tier
	// hit/miss counters.
	EventMemoHits uint64 `json:"event_memo_hits"`
	EventHits     uint64 `json:"event_hits"`
	EventMisses   uint64 `json:"event_misses"`
	EventPuts     uint64 `json:"event_puts"`
	// Disk is the attached store's own counters and occupancy, when the
	// store reports them (DiskStore does).
	Disk *artifact.Stats `json:"disk,omitempty"`
	// Remote is the remote client's own counters — wire traffic,
	// retries, and circuit-breaker state — when it reports them
	// (remote.RemoteStore does).
	Remote *artifact.Stats `json:"remote,omitempty"`
}

// Stats snapshots the hit/miss/eviction counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	disk, remote := c.tiers[diskTier], c.tiers[remoteTier]
	st := CacheStats{
		Entries:            c.mem.Len(),
		MaxEntries:         c.max,
		Hits:               c.hits,
		Misses:             c.misses,
		Evictions:          c.mem.Evictions(),
		Compiles:           c.compiles,
		FlightWaits:        c.flightWaits,
		DiskHits:           disk.hits,
		DiskMisses:         disk.misses,
		DecodeErrors:       disk.decodeErrors,
		StoreErrors:        disk.storeErrors,
		RemoteHits:         remote.hits,
		RemoteMisses:       remote.misses,
		RemoteDecodeErrors: remote.decodeErrors,
		RemoteStoreErrors:  remote.storeErrors,
		BlobDecodes:        c.blobDecodes,
		ProgramHits:        c.programHits,
		EventMemoHits:      c.eventMemoHits,
		EventHits:          c.eventHits,
		EventMisses:        c.eventMisses,
		EventPuts:          c.eventPuts,
	}
	c.mu.Unlock()
	st.Disk = storeStats(disk.store)
	st.Remote = storeStats(remote.store)
	return st
}

// storeStats returns s's own counters when it reports them.
func storeStats(s artifact.Store) *artifact.Stats {
	if sr, ok := s.(artifact.StatsReporter); ok {
		st := sr.Stats()
		return &st
	}
	return nil
}

// Put inserts a compiled result under its content address (as returned
// by CacheKey), evicting the least recently used entry when the cache
// is full. Callers that compile outside the cache — e.g. a server
// honoring a cache-bypass request whose contract still stores the fresh
// artifact — use it to keep the cache warm. If the key is already
// present, the existing entry is kept (and promoted) so all callers
// share one artifact. The result is also written to every attached
// store tier asynchronously (Flush waits for completion), filed under
// the inputs it was compiled from.
func (c *Cache) Put(key string, res *Result) {
	c.mem.Add(key, res)
	if c.stores() == ([numTiers]artifact.Store{}) {
		return
	}
	keys, err := Keys(res.key.opts, res.key.in)
	if err != nil {
		return // the inputs compiled, so their options resolve
	}
	c.offerPath(compiledPath(keys[0].root, res), res.res.Program, nil, numTiers)
}

// offer asynchronously runs write on every attached tier but from, the
// tier that settled a lookup (numTiers when nothing did: a fresh
// compile or run), so the tiers converge. Tiers nearer than from
// already missed this lookup and are written plainly. Deeper tiers were
// never asked, so write is told to probe them: a tier that answers
// presence probes (artifact.Checker — the remote does, via HEAD) is
// asked first whether it holds an entry, and skips the entry when it
// does or cannot answer (an outage is not a store error: nothing was
// lost). write runs on one goroutine, tier by tier nearest first, so it
// can encode what it writes once, off the caller's path; Flush waits
// for it. Write failures are counted per tier (storeError), never
// surfaced: durability is an optimization, and a remote outage must not
// slow or fail the caller.
func (c *Cache) offer(from int, write func(i int, s artifact.Store, probe bool)) {
	stores := c.stores()
	if from < numTiers {
		stores[from] = nil
	}
	if stores == ([numTiers]artifact.Store{}) {
		return
	}
	c.writes.Add(1)
	go func() {
		defer c.writes.Done()
		for i, s := range stores {
			if s != nil {
				write(i, s, i > from)
			}
		}
	}()
}

// offerPath offers a compilation's trie path, which settled a lookup at
// tier from, to the other tiers (see offer): first the program blob the
// leaf names, then the leaf, then the inner nodes up to the root, so a
// reader that finds a node finds what it leads to. Each entry is
// written under the rule of store, and a tier stops at its first entry
// that fails: it gets nothing that would name what it lacks. blob is
// the program blob's verified bytes as the settling tier stored them,
// or nil to encode the program on first use.
func (c *Cache) offerPath(path []step, prog *vm.Program, blob []byte, from int) {
	hash := prog.ContentHash()
	prog, _ = c.progs.Add(hash, prog)
	c.offer(from, func(i int, s artifact.Store, probe bool) {
		ok := c.store(artifact.BlobKey(hash), i, s, probe, func() []byte {
			if blob == nil {
				blob = artifact.EncodeProgram(prog)
			}
			return blob
		})
		for j := len(path) - 1; ok && j >= 0; j-- {
			st := path[j]
			ok = c.store(st.key, i, s, probe, func() []byte { return encodeNode(st.key, st.n) })
		}
	})
}

// store makes sure tier i holds the trie node or program blob under
// key, and reports whether it does. A tier this cache already read the
// entry from or wrote it to (held) is taken at its word. Otherwise the
// entry is Put, encoded by data — after a presence probe when probe is
// set and the tier answers them, skipping the tier when the probe
// fails. Concurrent offers of one entry to one tier share one write;
// when it fails, they go round and the next of them tries again.
func (c *Cache) store(key string, i int, s artifact.Store, probe bool, data func() []byte) bool {
	for {
		_, err, shared := c.held.Do(bgCtx, entryAt{key, i}, func() (struct{}, error) {
			if ch, ok := s.(artifact.Checker); ok && probe {
				if has, err := ch.Has(key); err != nil || has {
					return struct{}{}, err
				}
			}
			if err := s.Put(key, data()); err != nil {
				c.storeError(i)
				return struct{}{}, err
			}
			return struct{}{}, nil
		})
		if err == nil || !shared {
			return err == nil
		}
	}
}

func (c *Cache) storeError(i int) {
	c.mu.Lock()
	c.tiers[i].storeErrors++
	c.mu.Unlock()
}

// Run events.
//
// A store tier also holds the events of verified runs (vm.Events: a
// completed run's block runs and alloc extents, from which any
// processor's cycles are priced) under artifact.EventsKey(program hash,
// case digest), where the case digest covers the run's inputs and the
// reference its outputs were verified against. Only a simulation that
// ran the program to completion and verified its outputs yields events
// (Events), so an entry that decodes for the program it is keyed by
// stands for such a run. Events lookups are not compile lookups and
// leave the compile counters alone.

// Events returns the events of a verified run of prog on the
// verification case whose digest is caseDigest, in one lookup by their
// events key: from the events memo; else from the nearest tier that
// holds a sound entry, which is offered to the other tiers as a
// restored record is; else from simulate, whose events are offered to
// every tier. A missing, unreachable, corrupt or misfiled entry is a
// miss for its tier; bytes that fail to decode for prog are deleted
// from their tier best-effort. simulate runs prog to completion and
// verifies its outputs, and fails when it cannot vouch for the events
// it would return: every later lookup, in any process sharing a tier,
// prices from them instead of simulating. simulated reports whether
// this caller's simulate ran. Concurrent callers of one key share one
// outcome, or leave on their own ctx (the rule of lru.Cache.Do); an
// error is never stored, so the next lookup tries again.
func (c *Cache) Events(ctx context.Context, prog *vm.Program, caseDigest string, simulate func() (*vm.Events, error)) (ev *vm.Events, simulated bool, err error) {
	key := artifact.EventsKey(prog.ContentHash(), caseDigest)
	computed := false
	ev, err, _ = c.events.Do(ctx, key, func() (*vm.Events, error) {
		computed = true
		for i, s := range c.readers() {
			if s == nil {
				continue
			}
			ev, data, err := read(s, key, func(b []byte) (*vm.Events, error) {
				return artifact.DecodeEvents(b, key, prog, cacheKeyVersion)
			})
			if err != nil {
				continue
			}
			c.mu.Lock()
			c.eventHits++
			c.mu.Unlock()
			c.offerEvents(key, ev, data, i)
			return ev, nil
		}
		c.mu.Lock()
		c.eventMisses++
		c.mu.Unlock()
		simulated = true
		ev, err := simulate()
		if err != nil {
			return nil, err
		}
		c.offerEvents(key, ev, nil, numTiers)
		return ev, nil
	})
	if !computed && err == nil {
		c.mu.Lock()
		c.eventMemoHits++
		c.mu.Unlock()
	}
	return ev, simulated, err
}

// offerEvents offers an events entry that settled a lookup at tier from
// to the other tiers (see offer). data is the entry's verified
// encoding, or nil to encode ev once.
func (c *Cache) offerEvents(key string, ev *vm.Events, data []byte, from int) {
	c.offer(from, func(i int, s artifact.Store, probe bool) {
		if ch, ok := s.(artifact.Checker); ok && probe {
			if has, err := ch.Has(key); err != nil || has {
				return
			}
		}
		if data == nil {
			data = artifact.EncodeEvents(key, ev, cacheKeyVersion)
		}
		if err := s.Put(key, data); err != nil {
			c.storeError(i)
			return
		}
		c.mu.Lock()
		c.eventPuts++
		c.mu.Unlock()
	})
}

// CacheKey returns the content address of a compilation: the SHA-256
// hex digest over the source, entry name, parameter types, resolved
// target description, and the option fields that affect output. Two
// compilations with equal keys produce byte-identical artifacts.
func CacheKey(source, entry string, params []Type, opts Options) (string, error) {
	keys, err := Keys(opts, Input{Source: source, Entry: entry, Params: params})
	if err != nil {
		return "", err
	}
	return keys[0].hash, nil
}

// Input is the part of a compilation's inputs besides its Options: the
// source, the entry name and the parameter types.
type Input struct {
	Source, Entry string
	Params        []Type
}

// Key is the content address of one compilation together with the
// inputs it addresses. Only Keys makes one, so a lookup by Key
// (CompileKey) cannot pair an address with inputs it does not match.
type Key struct {
	hash string
	root string // the key of the root of the compilation's trie
	in   Input
	opts Options
}

// String returns the content address, CacheKey's answer for k's inputs.
func (k Key) String() string { return k.hash }

// Keys returns the keys of compiling each input under opts, rendering
// the target description once for all of them: a caller about to look
// up several kernels on one processor computes their keys in one call,
// and hands each to Prefetch and to its lookup (CompileKey). A key is a
// digest over its input's digest (inputDigest) and the digest of the
// processor and the option fields; the root of its trie (see trie.go)
// is a digest over the same input digest and the digest of the
// compile's shape.
func Keys(opts Options, ins ...Input) ([]Key, error) {
	cfg, err := opts.config()
	if err != nil {
		return nil, err
	}
	opt := strconv.AppendInt(nil, int64(cfg.OptLevel), 10)
	for _, on := range []bool{cfg.Vectorize, cfg.Intrinsics, cfg.Fusion, cfg.EmitC} {
		opt = strconv.AppendBool(append(opt, ' '), on)
	}
	// Each key digests its input's digest and one of these, computed
	// once for all the inputs.
	target := sha256.Sum256(appendKeyField(appendKeyField(nil, cfg.Processor.AppendJSON(nil)), opt))
	shape := sha256.Sum256(appendKeyField(appendKeyField(nil, "shape"), core.AppendShape(nil, cfg)))
	keys := make([]Key, len(ins))
	for i, in := range ins {
		d := inputDigest(in)
		keys[i] = Key{hash: pairDigest(d, target), root: pairDigest(d, shape), in: in, opts: opts}
	}
	return keys, nil
}

// pairDigest is the hex SHA-256 digest of two digests in a row.
func pairDigest(a, b [sha256.Size]byte) string {
	var buf [2 * sha256.Size]byte
	copy(buf[copy(buf[:], a[:]):], b[:])
	sum := sha256.Sum256(buf[:])
	hex.Encode(buf[:], sum[:])
	return string(buf[:])
}

// inputDigests memoizes inputDigest by source and entry name, with the
// parameter types the digest covers: a sweep keys each kernel on every
// variant, and this way hashes its source once. A memoized input keeps
// its entry when it is keyed with other parameter types.
var inputDigests = lru.New[[2]string, inputDigestOf](inputDigestsSize)

// inputDigestsSize bounds inputDigests: a sweep's kernels, a daemon's
// recent sources.
const inputDigestsSize = 64

// inputDigestOf is an input digest and the parameter types it covers.
type inputDigestOf struct {
	params []Type
	digest [sha256.Size]byte
}

// inputDigest is the SHA-256 digest over the cache-key version and an
// input's length-prefixed source, entry name and parameter types: the
// part of every key and trie root that the processor and options do not
// touch.
func inputDigest(in Input) [sha256.Size]byte {
	id := [2]string{in.Source, in.Entry}
	d, ok := inputDigests.Get(id)
	if ok && slices.Equal(d.params, in.Params) {
		return d.digest
	}
	buf := appendKeyField(nil, cacheKeyVersion)
	buf = appendKeyField(buf, in.Source)
	buf = appendKeyField(buf, in.Entry)
	var f []byte
	for _, t := range in.Params {
		f = strconv.AppendInt(f[:0], int64(t.Class), 10)
		f = strconv.AppendInt(append(f, '/'), int64(t.Shape.Rows), 10)
		f = strconv.AppendInt(append(f, '/'), int64(t.Shape.Cols), 10)
		buf = appendKeyField(buf, f)
	}
	d = inputDigestOf{slices.Clone(in.Params), sha256.Sum256(buf)}
	if !ok {
		inputDigests.Add(id, d) // one kernel rarely changes its parameter types
	}
	return d.digest
}

// appendKeyField appends one length-prefixed key field, so no two
// field sequences render alike.
func appendKeyField[T string | []byte](buf []byte, field T) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(field)))
	return append(buf, field...)
}

// CompileCached is Compile behind a content-addressed cache: it returns
// the cached Result when an identical compilation was seen before
// (reporting hit=true), compiling and caching otherwise. When the cache
// has store tiers attached, a memory miss consults the local store and
// then the fleet-shared remote before compiling — a restored artifact
// also reports hit=true — and a fresh compilation writes through
// asynchronously to every tier. A nil cache degrades to plain Compile. Concurrent misses on the same key share one
// compilation: the first caller runs the pipeline and every other
// caller waits for (and shares) its artifact, reporting hit=true.
func CompileCached(c *Cache, source, entry string, params []Type, opts Options) (res *Result, hit bool, err error) {
	return CompileCachedContext(context.Background(), c, source, entry, params, opts)
}

// CompileCachedContext is CompileCached under a cancellable context:
// cache lookups are unaffected (hits return immediately), but a miss's
// compilation observes ctx between pipeline stages and a cancelled
// compile is not cached. A caller waiting on another caller's
// compilation also observes its own ctx; when the compiling caller's
// own ctx ends, its waiters retry rather than inherit its error (the
// rule of lru.Cache.Do).
func CompileCachedContext(ctx context.Context, c *Cache, source, entry string, params []Type, opts Options) (res *Result, hit bool, err error) {
	if c == nil {
		res, err = CompileContext(ctx, source, entry, params, opts)
		return res, false, err
	}
	keys, err := Keys(opts, Input{Source: source, Entry: entry, Params: params})
	if err != nil {
		return nil, false, err
	}
	return CompileKey(ctx, c, keys[0])
}

// CompileKey is CompileCachedContext for a key Keys made: the lookup
// goes by k's address and a miss compiles k's inputs.
func CompileKey(ctx context.Context, c *Cache, k Key) (res *Result, hit bool, err error) {
	if k.hash == "" {
		return nil, false, errors.New("mat2c: CompileKey: the key was not made by Keys")
	}
	if c == nil {
		res, err = CompileContext(ctx, k.in.Source, k.in.Entry, k.in.Params, k.opts)
		return res, false, err
	}
	// A miss is counted once per logical lookup, where it resolves — by
	// sharing another caller's result here, or by a tier or a compile in
	// resolve — so misses == compiles + disk_hits + remote_hits +
	// flight_waits, the invariant the /metrics hit-rate math relies on.
	// A waiter that shares a failed compile or leaves on its own ctx
	// resolves nothing and counts nowhere.
	resolved := false
	res, err, shared := c.mem.Do(ctx, k.hash, func() (*Result, error) {
		resolved = true
		res, tierHit, err := c.resolve(ctx, k)
		hit = tierHit
		return res, err
	})
	switch {
	case shared:
		if err == nil {
			c.mu.Lock()
			c.flightWaits++
			c.misses++
			c.mu.Unlock()
		}
		hit = err == nil
	case !resolved:
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		hit = true
	}
	return res, hit, err
}

// resolve settles a memory miss as the caller computing it: it walks
// k's trie on the store tiers nearest first, and runs the full pipeline
// only when every walk misses. A walk through the decoded-node memo
// alone comes first: when it reaches a leaf whose program the
// decoded-program memo holds, the tier that leaf was read from settles
// the lookup without a read, and each attached tier nearer than it
// counts a miss, as if asked. Whatever settles the lookup is offered to
// the other tiers, and cached in memory by CompileKey. A tier whose
// walk fails (see restore) counts a miss, and also a decode error when
// it had corrupt bytes.
func (c *Cache) resolve(ctx context.Context, k Key) (*Result, bool, error) {
	readers := c.readers()
	if readers != ([numTiers]artifact.Store{}) {
		if res, path, t, ok := c.recall(k, readers); ok {
			c.mu.Lock()
			for i := range t {
				if readers[i] != nil {
					c.tiers[i].misses++
				}
			}
			c.tiers[t].hits++
			c.misses++ // resolved by this tier
			c.mu.Unlock()
			c.offerPath(path, res.res.Program, nil, t)
			return res, true, nil
		}
	}
	for i, s := range readers {
		if s == nil {
			continue
		}
		res, path, blob, err := c.restore(k, i, s)
		c.mu.Lock()
		t := &c.tiers[i]
		if err == nil {
			t.hits++
			c.misses++ // resolved by this tier
		} else {
			t.misses++
			if errors.Is(err, artifact.ErrCorrupt) || errors.Is(err, artifact.ErrVersion) {
				t.decodeErrors++
			}
		}
		c.mu.Unlock()
		if err == nil {
			c.offerPath(path, res.res.Program, blob, i)
			return res, true, nil
		}
	}
	res, err := CompileContext(ctx, k.in.Source, k.in.Entry, k.in.Params, k.opts)
	if err != nil {
		// Failed (or cancelled) compiles resolve nothing: the lookup
		// counts neither a miss nor a compile, keeping the stats
		// invariant exact.
		return nil, false, err
	}
	c.mu.Lock()
	c.compiles++
	c.misses++ // resolved by a full pipeline run
	c.mu.Unlock()
	if readers != ([numTiers]artifact.Store{}) {
		c.offerPath(compiledPath(k.root, res), res.res.Program, nil, numTiers)
	}
	return res, false, nil
}

// recall restores k's compilation from the memos alone: the path
// through the decoded-node memo, and the leaf's program from the
// decoded-program memo. It reads nothing, and fails when either memo
// lacks what the path needs or the tier the leaf was read from is no
// longer attached. tier is that tier.
func (c *Cache) recall(k Key, readers [numTiers]artifact.Store) (res *Result, path []step, tier int, ok bool) {
	cfg, err := k.opts.config()
	if err != nil {
		return nil, nil, 0, false
	}
	path, tier, err = c.walk(k, cfg.Processor, -1, nil)
	if err != nil || readers[tier] == nil {
		return nil, nil, 0, false
	}
	prog, ok := c.progs.Get(path[len(path)-1].n.rec.ProgramHash)
	if !ok {
		return nil, nil, 0, false
	}
	res = restoreResult(path, prog, k, cfg)
	c.mu.Lock()
	c.programHits++
	c.mu.Unlock()
	return res, path, tier, true
}

// restore rebuilds k's compilation from tier i, read through s: it
// walks k's trie there (each node from the decoded-node memo or read
// from the tier), then takes the leaf's program from the
// decoded-program memo or, on a memo miss, from the blob on the same
// tier. It returns the path, and the blob's bytes when this lookup
// fetched them (nil when the memo had the program), so the tiers it is
// offered to get the bytes it read. Any failure is a miss for the tier:
// a node the tier lacks, a Get error (wrapping artifact.ErrCorrupt when
// the tier reports corrupt bytes), or bytes that fail to decode or are
// misfiled, which read deletes. A leaf whose blob is missing, corrupt
// or unreachable stays: the compile that follows writes the blob back.
func (c *Cache) restore(k Key, i int, s artifact.Store) (res *Result, path []step, blob []byte, err error) {
	cfg, err := k.opts.config()
	if err != nil {
		return nil, nil, nil, err
	}
	if path, _, err = c.walk(k, cfg.Processor, i, s); err != nil {
		return nil, nil, nil, err
	}
	prog, blob, err := c.program(path[len(path)-1].n.rec.ProgramHash, i, s)
	if err != nil {
		return nil, nil, nil, err
	}
	return restoreResult(path, prog, k, cfg), path, blob, nil
}

// program returns the verified program whose content hash is hash:
// from the decoded-program memo, or else decoded from its blob on tier
// i. Concurrent callers for one hash share one blob load; a caller
// whose shared load failed reads its own tier next. The caller that
// loaded the blob also gets its bytes; the memo keeps only the program.
func (c *Cache) program(hash string, i int, s artifact.Store) (*vm.Program, []byte, error) {
	for {
		var blob []byte
		loaded := false
		prog, err, shared := c.progs.Do(bgCtx, hash, func() (*vm.Program, error) {
			loaded = true
			key := artifact.BlobKey(hash)
			prog, data, err := read(s, key, func(b []byte) (*vm.Program, error) { return artifact.DecodeBlob(b, hash) })
			if err != nil {
				return nil, err
			}
			blob = data
			c.held.Add(entryAt{key, i}, struct{}{})
			c.mu.Lock()
			c.blobDecodes++
			c.mu.Unlock()
			return prog, nil
		})
		switch {
		case err != nil && shared:
			continue
		case !loaded:
			c.mu.Lock()
			c.programHits++
			c.mu.Unlock()
		}
		return prog, blob, err
	}
}

// read gets key from s and decodes its bytes, returning them too.
// Bytes that fail to decode or are misfiled are deleted from s
// best-effort, so they are not fetched again.
func read[T any](s artifact.Store, key string, decode func([]byte) (T, error)) (v T, data []byte, err error) {
	if data, err = s.Get(key); err == nil {
		if v, err = decode(data); err != nil {
			s.Delete(key) // best-effort; a failure just leaves a dead entry
		}
	}
	return v, data, err
}
