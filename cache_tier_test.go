package mat2c

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"mat2c/internal/artifact"
	"mat2c/internal/core"
)

// openTestStore attaches a fresh DiskStore over dir to a new Cache.
func openTestStore(t *testing.T, dir string) *artifact.DiskStore {
	t.Helper()
	s, err := artifact.OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDiskTierWarmsSecondCache(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Target: "dspasip"}

	c1 := NewCache(8)
	c1.SetStore(openTestStore(t, dir))
	orig, hit, err := CompileCached(c1, cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("cold compile reported hit")
	}
	c1.Flush()
	if st := c1.Stats(); st.Compiles != 1 || st.DiskMisses != 1 {
		t.Errorf("cold stats = %+v, want 1 compile / 1 disk miss", st)
	}

	// A second cache over the same directory — a separate process in
	// miniature — must restore the artifact from disk without compiling.
	c2 := NewCache(8)
	c2.SetStore(openTestStore(t, dir))
	res, hit, err := CompileCached(c2, cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("warm cache missed: disk tier not consulted")
	}
	st := c2.Stats()
	if st.Compiles != 0 {
		t.Errorf("warm cache compiled %d times, want 0", st.Compiles)
	}
	if st.DiskHits != 1 {
		t.Errorf("disk hits = %d, want 1", st.DiskHits)
	}
	if st.Disk == nil {
		t.Fatal("Stats.Disk is nil with a DiskStore attached")
	}
	// One compilation is its trie path, a node per question it asked
	// and the leaf, and its program blob, and a restore reads them all.
	if n := uint64(len(orig.res.Queries) + 2); st.Disk.Hits != n || st.Disk.Entries != int(n) || st.BlobDecodes != 1 {
		t.Errorf("store stats = %+v, want %d hits / %d entries and 1 blob decode", st.Disk, n, n)
	}

	// The restored Result is equivalent to the original: same rendered
	// artifacts, and it still executes.
	if res.CSource() != orig.CSource() {
		t.Error("restored C source differs")
	}
	if res.CHeader() != orig.CHeader() {
		t.Error("restored C header differs")
	}
	if res.CPrototype() != orig.CPrototype() {
		t.Error("restored C prototype differs")
	}
	checkRestoredContract(t, c2, res, orig)
	if got, want := res.res.Program.ContentHash(), orig.res.Program.ContentHash(); got != want {
		t.Errorf("restored program hash %s, want %s", got, want)
	}
	out, _, err := res.Run(NewVector(1, 2), 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if a := out[0].(*Array); a.F[0] != 3 || a.F[1] != 5 {
		t.Errorf("restored result computed %v", a.F)
	}

	// The memory tier now fronts the restored entry.
	if _, hit, _ = CompileCached(c2, cacheTestSrc, "scale", cacheTestParams, opts); !hit {
		t.Error("second warm lookup missed memory")
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Errorf("memory hit went back to disk: %d disk hits", st.DiskHits)
	}
}

// checkRestoredContract holds a result restored by cache c to its
// contract: its IR and AST listings equal those of orig, a fresh
// compile of the same inputs; its stage timings are one zero entry per
// stage name, since no stage ran; and reading them moves no counter of
// c. c must have no store write in flight.
func checkRestoredContract(t *testing.T, c *Cache, res, orig *Result) {
	t.Helper()
	before := c.Stats()
	if res.IRText() != orig.IRText() {
		t.Error("restored IR text differs")
	}
	if res.AST() != orig.AST() {
		t.Error("restored AST differs")
	}
	names := StageNames()
	stages := res.StageTimings()
	if len(stages) != len(names) {
		t.Fatalf("restored result has %d stage timings, want %d", len(stages), len(names))
	}
	for i, st := range stages {
		if st.Stage != names[i] || st.Duration != 0 {
			t.Errorf("restored stage %d = %+v, want a zero %s", i, st, names[i])
		}
	}
	if after := c.Stats(); !reflect.DeepEqual(after, before) {
		t.Errorf("rendering a restored result's listings moved cache counters:\n got %+v\nwant %+v", after, before)
	}
}

// encodeV2Record encodes r's record under key in the record format's
// version 2, which also carried the target name, the IR and AST
// listings and stage timings.
func encodeV2Record(key string, r *Result) []byte {
	field := func(buf []byte, s string) []byte {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		return append(buf, s...)
	}
	data := binary.LittleEndian.AppendUint32([]byte("M2CR"), 2)
	for _, f := range []string{cacheKeyVersion, key, r.Entry(), r.Processor().Name, r.Program().ContentHash(),
		r.CSource(), r.CHeader(), r.CPrototype(), r.IRText(), r.AST()} {
		data = field(data, f)
	}
	data = binary.LittleEndian.AppendUint32(data, 0) // warnings
	data = binary.LittleEndian.AppendUint32(data, uint32(r.VectorizedLoops()))
	data = binary.LittleEndian.AppendUint32(data, 0) // intrinsics
	data = binary.LittleEndian.AppendUint32(data, 1) // stage timings
	data = binary.LittleEndian.AppendUint64(field(data, "parse"), 1200)
	sum := sha256.Sum256(data)
	return append(data, sum[:]...)
}

// TestDiskTierCorruptionDegradesToRecompile is the acceptance criterion
// that a corrupted store entry can never fail a request: the decode
// failure is counted, the entry is dropped, and the caller gets a
// freshly compiled result, which is written back in the current format.
// The entry spoilt is the compile's trie leaf, its record; a record of
// the format's version 2 takes the same path.
func TestDiskTierCorruptionDegradesToRecompile(t *testing.T) {
	opts := Options{Target: "dspasip"}
	key := leafKey(t, opts)
	for name, spoil := range map[string]func(data []byte, orig *Result) []byte{
		// The checksum catches a flipped byte on read.
		"flipped byte": func(data []byte, _ *Result) []byte {
			data[len(data)/2] ^= 0x40
			return data
		},
		"v2 record": func(_ []byte, orig *Result) []byte {
			data := encodeV2Record(key, orig)
			if _, err := artifact.DecodeRecord(data, cacheKeyVersion); !errors.Is(err, artifact.ErrVersion) {
				t.Errorf("v2 record: err = %v, want ErrVersion", err)
			}
			return data
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			store := openTestStore(t, dir)
			c1 := NewCache(8)
			c1.SetStore(store)
			orig, _, err := CompileCached(c1, cacheTestSrc, "scale", cacheTestParams, opts)
			if err != nil {
				t.Fatal(err)
			}
			c1.Flush()
			if err := store.Put(key, spoil(mustGet(t, store, key), orig)); err != nil {
				t.Fatal(err)
			}

			c2 := NewCache(8)
			c2.SetStore(openTestStore(t, dir))
			res, hit, err := CompileCached(c2, cacheTestSrc, "scale", cacheTestParams, opts)
			if err != nil {
				t.Fatalf("spoilt store entry surfaced an error: %v", err)
			}
			if hit {
				t.Error("spoilt entry reported as a hit")
			}
			if res == nil {
				t.Fatal("no result after degrade-to-recompile")
			}
			st := c2.Stats()
			if st.DecodeErrors != 1 {
				t.Errorf("decode errors = %d, want 1", st.DecodeErrors)
			}
			if st.Compiles != 1 {
				t.Errorf("compiles = %d, want 1 (recompile)", st.Compiles)
			}
			if st.Disk.Deletes != 1 {
				t.Errorf("store deletes = %d, want 1 (the spoilt record)", st.Disk.Deletes)
			}
			out, _, err := res.Run(NewVector(3), 2.0)
			if err != nil {
				t.Fatal(err)
			}
			if a := out[0].(*Array); a.F[0] != 7 {
				t.Errorf("recompiled result computed %v", a.F)
			}

			// The recompile wrote a current record back through; a third
			// cache must get a clean disk hit. (The first store's index
			// still holds the entry it wrote: another store's later write
			// of a key it holds is seen after a reopen.)
			c2.Flush()
			if _, err := decodeNode(mustGet(t, openTestStore(t, dir), key), key); err != nil {
				t.Errorf("the recompile wrote no current record back: %v", err)
			}
			c3 := NewCache(8)
			c3.SetStore(openTestStore(t, dir))
			res, hit, err = CompileCached(c3, cacheTestSrc, "scale", cacheTestParams, opts)
			if err != nil || !hit {
				t.Fatalf("store not healed after recompile: hit=%v err=%v", hit, err)
			}
			checkRestoredContract(t, c3, res, orig)
		})
	}
}

func TestCachePutWritesThrough(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Target: "dspasip"}
	res, err := Compile(cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	key, err := CacheKey(cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatal(err)
	}

	store := openTestStore(t, dir)
	c := NewCache(8)
	c.SetStore(store)
	// The server's cache-bypass path: compiled outside the cache, stored
	// explicitly. It must reach the durable tier too, filed under the
	// compile's inputs.
	c.Put(key, res)
	c.Flush()
	if _, err := store.Get(leafKey(t, opts)); err != nil {
		t.Fatalf("explicit Put did not write through: %v", err)
	}

	c2 := NewCache(8)
	c2.SetStore(openTestStore(t, dir))
	if _, hit, err := CompileCached(c2, cacheTestSrc, "scale", cacheTestParams, opts); err != nil || !hit {
		t.Errorf("written-through entry not restored: hit=%v err=%v", hit, err)
	}
}

// gatedStore is an artifact.Store that counts the Puts it receives,
// of trie nodes and of program blobs, and holds nothing. Its first blob
// Put parks until the test closes release, and fails when failFirst is
// set.
type gatedStore struct {
	failFirst bool
	started   chan struct{} // closed when the first blob Put begins
	release   chan struct{}

	mu                sync.Mutex
	recPuts, blobPuts int
}

func newGatedStore(failFirst bool) *gatedStore {
	return &gatedStore{failFirst: failFirst, started: make(chan struct{}), release: make(chan struct{})}
}

func (s *gatedStore) Get(key string) ([]byte, error) {
	return nil, fmt.Errorf("gated: %w", artifact.ErrNotFound)
}

func (s *gatedStore) Put(key string, data []byte) error {
	s.mu.Lock()
	if !isBlobKey(key) {
		s.recPuts++
		s.mu.Unlock()
		return nil
	}
	s.blobPuts++
	first := s.blobPuts == 1
	s.mu.Unlock()
	if !first {
		return nil
	}
	close(s.started)
	<-s.release
	if s.failFirst {
		return errors.New("gated: put failed")
	}
	return nil
}

func (s *gatedStore) Delete(key string) error { return nil }
func (s *gatedStore) Len() (int, error)       { return 0, nil }

// puts returns the node and blob Puts counted so far.
func (s *gatedStore) puts() (rec, blob int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recPuts, s.blobPuts
}

// TestConcurrentOffersPutBlobOnce offers one compile under distinct
// memory keys, concurrently, to a disk and a remote tier: the first
// offer writes the blob to each tier and the others wait for it, so
// each tier gets one blob Put and each node of the compile's path once.
// When that first write fails, its offer writes no node there, and the
// next offer writes the blob again and then the path.
func TestConcurrentOffersPutBlobOnce(t *testing.T) {
	res, err := Compile(cacheTestSrc, "scale", cacheTestParams, Options{Target: "dspasip"})
	if err != nil {
		t.Fatal(err)
	}
	const offers = 8
	for _, failFirst := range []bool{false, true} {
		disk, remote := newGatedStore(failFirst), newGatedStore(false)
		close(remote.release)
		c := NewCache(0)
		c.SetStore(disk)
		c.SetRemoteStore(remote)
		waits := make(chan struct{}, 2*offers) // the waits of two rounds of writes: the hook never blocks
		c.held.OnWait(func(e entryAt) {
			if e.tier == diskTier && isBlobKey(e.key) {
				waits <- struct{}{}
			}
		})
		for i := 0; i < offers; i++ {
			c.Put(fmt.Sprintf("%064x", i), res)
		}
		<-disk.started
		// Release the first disk blob write once every other offer
		// waits on it.
		for i := 0; i < offers-1; i++ {
			select {
			case <-waits:
			case <-time.After(10 * time.Second):
				t.Fatalf("failFirst=%v: only %d of %d offers waited on the first blob write", failFirst, i, offers-1)
			}
		}
		close(disk.release)
		c.Flush()

		nodes := len(res.res.Queries) + 1
		wantBlob, wantErrs := 1, uint64(0)
		if failFirst {
			wantBlob, wantErrs = 2, 1
		}
		if rec, blob := disk.puts(); rec != nodes || blob != wantBlob {
			t.Errorf("failFirst=%v: disk got %d node and %d blob Puts, want %d and %d", failFirst, rec, blob, nodes, wantBlob)
		}
		if rec, blob := remote.puts(); rec != nodes || blob != 1 {
			t.Errorf("failFirst=%v: remote got %d node and %d blob Puts, want %d and 1", failFirst, rec, blob, nodes)
		}
		if st := c.Stats(); st.StoreErrors != wantErrs || st.RemoteStoreErrors != 0 {
			t.Errorf("failFirst=%v: store errors disk %d remote %d, want %d and 0", failFirst, st.StoreErrors, st.RemoteStoreErrors, wantErrs)
		}
	}
}

// blobGateStore serves trie nodes and blobs from a fixed map. Its first
// blob Get parks until the test closes release, and then fails.
type blobGateStore struct {
	data             map[string][]byte
	started, release chan struct{}

	mu       sync.Mutex
	blobGets int
}

func (s *blobGateStore) Get(key string) ([]byte, error) {
	if isBlobKey(key) {
		s.mu.Lock()
		s.blobGets++
		first := s.blobGets == 1
		s.mu.Unlock()
		if first {
			close(s.started)
			<-s.release
			return nil, errors.New("gated: get failed")
		}
	}
	if data, ok := s.data[key]; ok {
		return data, nil
	}
	return nil, fmt.Errorf("gated: %w", artifact.ErrNotFound)
}

func (s *blobGateStore) Put(key string, data []byte) error { return nil }
func (s *blobGateStore) Delete(key string) error           { return nil }
func (s *blobGateStore) Len() (int, error)                 { return len(s.data), nil }

// TestConcurrentBlobLoadFailureRereads: two cost siblings reach one
// leaf on the disk tier, naming one program. The lookup of the second waits on the first's blob
// load; when that load fails, it reads the blob from its tier itself
// and restores, while the first lookup misses the tier and compiles
// (held in the compile driver's hook until the second has restored, so
// its compiled program cannot reach the program memo first).
func TestConcurrentBlobLoadFailureRereads(t *testing.T) {
	base, err := LoadProcessor("dspasip")
	if err != nil {
		t.Fatal(err)
	}
	// A cost sibling under the same name, so with C output it shares
	// the trie path too.
	sibling, err := base.Derive("dspasip", func(p *Processor) { p.Costs = map[string]int{"fmul": 1} })
	if err != nil {
		t.Fatal(err)
	}
	store := &blobGateStore{data: map[string][]byte{}, started: make(chan struct{}), release: make(chan struct{})}
	var keys []Key
	for _, proc := range []*Processor{base, sibling} {
		opts := Options{Processor: proc}
		ks, err := Keys(opts, Input{Source: cacheTestSrc, Entry: "scale", Params: cacheTestParams})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Compile(cacheTestSrc, "scale", cacheTestParams, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range compiledPath(ks[0].root, res) {
			store.data[st.key] = encodeNode(st.key, st.n)
		}
		store.data[artifact.BlobKey(res.Program().ContentHash())] = artifact.EncodeProgram(res.Program())
		keys = append(keys, ks[0])
		if len(store.data) != len(res.res.Queries)+2 {
			t.Fatal("cost siblings must share a trie path and a program")
		}
	}
	core.ResetMemos()
	held := make(chan struct{})
	t.Cleanup(core.SetBackHooks(func() error { <-held; return nil }, nil))
	c := NewCache(8)
	c.SetStore(store)
	waits := make(chan struct{}, 2) // one per lookup at most: the hook never blocks
	c.progs.OnWait(func(string) { waits <- struct{}{} })

	type outcome struct {
		hit bool
		err error
	}
	lookup := func(k Key) chan outcome {
		out := make(chan outcome, 1)
		go func() {
			_, hit, err := CompileKey(context.Background(), c, k)
			out <- outcome{hit, err}
		}()
		return out
	}
	first := lookup(keys[0])
	<-store.started
	second := lookup(keys[1])
	select {
	case <-waits:
	case <-time.After(10 * time.Second):
		t.Fatal("the second lookup never waited on the first blob load")
	}
	close(store.release)
	if o := <-second; o.err != nil || !o.hit {
		t.Errorf("second lookup: hit=%v err=%v, want a disk hit from its own blob read", o.hit, o.err)
	}
	close(held)
	if o := <-first; o.err != nil || o.hit {
		t.Errorf("first lookup: hit=%v err=%v, want a compile after its blob load failed", o.hit, o.err)
	}
	c.Flush()
	st := c.Stats()
	if st.DiskHits != 1 || st.Compiles != 1 || st.BlobDecodes != 1 || store.blobGets != 2 {
		t.Errorf("disk hits %d, compiles %d, blob decodes %d, blob Gets %d; want 1, 1, 1, 2",
			st.DiskHits, st.Compiles, st.BlobDecodes, store.blobGets)
	}
	assertStatsConsistent(t, c)
}

func TestDiskTierMissingEntryCounted(t *testing.T) {
	c := NewCache(8)
	c.SetStore(openTestStore(t, t.TempDir()))
	// Drain the async write-through before TempDir cleanup removes the
	// store directory out from under it.
	defer c.Flush()
	if _, hit, err := CompileCached(c, cacheTestSrc, "scale", cacheTestParams, Options{Target: "dspasip", SkipC: true}); err != nil || hit {
		t.Fatalf("empty store: hit=%v err=%v", hit, err)
	}
	st := c.Stats()
	if st.DiskMisses != 1 || st.DiskHits != 0 {
		t.Errorf("stats = %+v, want 1 disk miss / 0 disk hits", st)
	}
}

// TestDecodeArtifactRejectsKeyMismatch pins the defense against a store
// that hands back a trie node, inner node or leaf, filed under the
// wrong key.
func TestDecodeArtifactRejectsKeyMismatch(t *testing.T) {
	opts := Options{Target: "dspasip"}
	res, err := Compile(cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := Keys(opts, Input{Source: cacheTestSrc, Entry: "scale", Params: cacheTestParams})
	if err != nil {
		t.Fatal(err)
	}
	path := compiledPath(keys[0].root, res)
	if len(path) < 2 {
		t.Fatalf("the test kernel's path has %d nodes, want an inner node and a leaf", len(path))
	}
	for i, st := range path {
		data := encodeNode(st.key, st.n)
		if _, err := decodeNode(data, st.key); err != nil {
			t.Fatalf("node %d: round trip under the right key failed: %v", i, err)
		}
		other := path[(i+1)%len(path)].key
		if _, err := decodeNode(data, other); !errors.Is(err, artifact.ErrCorrupt) {
			t.Errorf("node %d: key mismatch returned %v, want ErrCorrupt", i, err)
		}
	}
}

// TestRestoreRejectsBlobHashMismatch is the blob analogue: a valid
// trie path whose leaf's blob key holds another program's blob is a
// corrupt miss that deletes the misfiled blob, and the compile that
// follows writes the right blob back.
func TestRestoreRejectsBlobHashMismatch(t *testing.T) {
	opts := Options{Target: "dspasip"}
	res, err := Compile(cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Compile(cacheTestSrc, "scale", cacheTestParams, Options{Target: "scalar"})
	if err != nil {
		t.Fatal(err)
	}
	hash := res.Program().ContentHash()
	if other.Program().ContentHash() == hash {
		t.Fatal("the two targets compile to one program")
	}
	store := openTestStore(t, t.TempDir())
	putPath(t, store, opts, res)
	if err := store.Put(artifact.BlobKey(hash), artifact.EncodeProgram(other.Program())); err != nil {
		t.Fatal(err)
	}

	c := NewCache(8)
	c.SetStore(store)
	got, hit, err := CompileCached(c, cacheTestSrc, "scale", cacheTestParams, opts)
	c.Flush()
	if err != nil || hit {
		t.Fatalf("misfiled blob: hit=%v err=%v, want a recompile", hit, err)
	}
	if got.Program().ContentHash() != hash {
		t.Fatal("served a program other than the record's")
	}
	if st := c.Stats(); st.DecodeErrors != 1 || st.DiskMisses != 1 || st.Compiles != 1 || st.BlobDecodes != 0 {
		t.Errorf("stats = %+v, want 1 disk decode error and 1 recompile", st)
	}
	if _, err := artifact.DecodeBlob(mustGet(t, store, artifact.BlobKey(hash)), hash); err != nil {
		t.Errorf("blob not healed after the recompile: %v", err)
	}
}

// testPath returns the trie path a compile of the test kernel under
// opts, which compiled to res, is filed under.
func testPath(t *testing.T, opts Options, res *Result) []step {
	t.Helper()
	keys, err := Keys(opts, Input{Source: cacheTestSrc, Entry: "scale", Params: cacheTestParams})
	if err != nil {
		t.Fatal(err)
	}
	return compiledPath(keys[0].root, res)
}

// testPathLen is the number of nodes of the test kernel's trie path
// under opts.
func testPathLen(t *testing.T, opts Options) int {
	t.Helper()
	res, err := Compile(cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	return len(res.res.Queries) + 1
}

// leafKey returns the key of the trie leaf a compile of the test kernel
// under opts is filed under.
func leafKey(t *testing.T, opts Options) string {
	t.Helper()
	res, err := Compile(cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := testPath(t, opts, res)
	return path[len(path)-1].key
}

// putPath writes the trie path of the test kernel's compile under opts,
// which compiled to res, to s, without its program blob.
func putPath(t *testing.T, s artifact.Store, opts Options, res *Result) {
	t.Helper()
	for _, st := range testPath(t, opts, res) {
		if err := s.Put(st.key, encodeNode(st.key, st.n)); err != nil {
			t.Fatal(err)
		}
	}
}

// mustGet returns the entry s holds under key.
func mustGet(t *testing.T, s artifact.Store, key string) []byte {
	t.Helper()
	data, err := s.Get(key)
	if err != nil {
		t.Fatalf("get %s: %v", key, err)
	}
	return data
}

// restoreFrom rebuilds the test kernel's compilation under opts from s
// the way a fresh cache does: the trie path, then the program blob its
// leaf names.
func restoreFrom(t *testing.T, s artifact.Store, opts Options) (*Result, error) {
	t.Helper()
	keys, err := Keys(opts, Input{Source: cacheTestSrc, Entry: "scale", Params: cacheTestParams})
	if err != nil {
		t.Fatal(err)
	}
	res, _, _, err := NewCache(1).restore(keys[0], diskTier, s)
	return res, err
}

// TestReplacedStoreGetsBlobs: what a cache knows of one store's
// entries does not carry over to the store that replaces it, so a path
// written to the new store is never left without its nodes or blob.
func TestReplacedStoreGetsBlobs(t *testing.T) {
	base, err := LoadProcessor("dspasip")
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := base.Derive("dspasip-fastmul", func(p *Processor) { p.Costs = map[string]int{"fmul": 1} })
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(8)
	c.SetStore(openTestStore(t, t.TempDir()))
	if _, _, err := CompileCached(c, cacheTestSrc, "scale", cacheTestParams, Options{Processor: base}); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	dir := t.TempDir()
	c.SetStore(openTestStore(t, dir))
	opts := Options{Processor: sibling}
	if _, _, err := CompileCached(c, cacheTestSrc, "scale", cacheTestParams, opts); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	if _, err := restoreFrom(t, openTestStore(t, dir), opts); err != nil {
		t.Errorf("the replacement store cannot restore its record: %v", err)
	}
}
