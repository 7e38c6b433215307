package mat2c

import (
	"errors"
	"testing"

	"mat2c/internal/artifact"
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
	// One compilation is two entries, the record and its program blob,
	// and a restore reads both.
	if st.Disk.Hits != 2 || st.Disk.Entries != 2 || st.BlobDecodes != 1 {
		t.Errorf("store stats = %+v, want 2 hits / 2 entries and 1 blob decode", st.Disk)
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
	if res.IRText() != orig.IRText() {
		t.Error("restored IR text differs")
	}
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

// TestDiskTierCorruptionDegradesToRecompile is the acceptance criterion
// that a corrupted store entry can never fail a request: the decode
// failure is counted, the entry is dropped, and the caller gets a
// freshly compiled result.
func TestDiskTierCorruptionDegradesToRecompile(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Target: "dspasip"}
	key, err := CacheKey(cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatal(err)
	}

	store := openTestStore(t, dir)
	c1 := NewCache(8)
	c1.SetStore(store)
	if _, _, err := CompileCached(c1, cacheTestSrc, "scale", cacheTestParams, opts); err != nil {
		t.Fatal(err)
	}
	c1.Flush()

	// Flip a byte in the stored entry. The checksum catches it on read.
	data, err := store.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := store.Put(key, data); err != nil {
		t.Fatal(err)
	}

	c2 := NewCache(8)
	c2.SetStore(openTestStore(t, dir))
	res, hit, err := CompileCached(c2, cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatalf("corrupted store entry surfaced an error: %v", err)
	}
	if hit {
		t.Error("corrupted entry reported as a hit")
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
	out, _, err := res.Run(NewVector(3), 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if a := out[0].(*Array); a.F[0] != 7 {
		t.Errorf("recompiled result computed %v", a.F)
	}

	// The recompile wrote a good entry back through; a third cache must
	// get a clean disk hit.
	c2.Flush()
	c3 := NewCache(8)
	c3.SetStore(openTestStore(t, dir))
	if _, hit, err := CompileCached(c3, cacheTestSrc, "scale", cacheTestParams, opts); err != nil || !hit {
		t.Errorf("store not healed after recompile: hit=%v err=%v", hit, err)
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
	// explicitly. It must reach the durable tier too.
	c.Put(key, res)
	c.Flush()
	if _, err := store.Get(key); err != nil {
		t.Fatalf("explicit Put did not write through: %v", err)
	}

	c2 := NewCache(8)
	c2.SetStore(openTestStore(t, dir))
	if _, hit, err := CompileCached(c2, cacheTestSrc, "scale", cacheTestParams, opts); err != nil || !hit {
		t.Errorf("written-through entry not restored: hit=%v err=%v", hit, err)
	}
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
// that hands back a record filed under the wrong key.
func TestDecodeArtifactRejectsKeyMismatch(t *testing.T) {
	opts := Options{Target: "dspasip"}
	res, err := Compile(cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	key, err := CacheKey(cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	data := encodeRecord(key, res)
	if _, err := decodeRecord(data, key); err != nil {
		t.Fatalf("round trip under the right key failed: %v", err)
	}
	_, err = decodeRecord(data, "0000000000000000000000000000000000000000000000000000000000000000")
	if !errors.Is(err, artifact.ErrCorrupt) {
		t.Errorf("key mismatch returned %v, want ErrCorrupt", err)
	}
}

// TestRestoreRejectsBlobHashMismatch is the blob analogue: a valid
// record whose blob key holds another program's blob is a corrupt miss
// that deletes the misfiled blob, and the compile that follows writes
// the right blob back.
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
	key, err := CacheKey(cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	hash := res.Program().ContentHash()
	if other.Program().ContentHash() == hash {
		t.Fatal("the two targets compile to one program")
	}
	store := openTestStore(t, t.TempDir())
	if err := store.Put(key, encodeRecord(key, res)); err != nil {
		t.Fatal(err)
	}
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

// mustGet returns the entry s holds under key.
func mustGet(t *testing.T, s artifact.Store, key string) []byte {
	t.Helper()
	data, err := s.Get(key)
	if err != nil {
		t.Fatalf("get %s: %v", key, err)
	}
	return data
}

// restoreFrom rebuilds key's compilation from s the way a fresh cache
// does: the record, then the program blob it names.
func restoreFrom(s artifact.Store, key string, opts Options) (*Result, error) {
	res, _, err := NewCache(1).restore(key, diskTier, s, opts)
	return res, err
}

// TestReplacedStoreGetsBlobs: what a cache knows of one store's blobs
// does not carry over to the store that replaces it, so a record
// written to the new store is never left without its blob.
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
	key, err := CacheKey(cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restoreFrom(openTestStore(t, dir), key, opts); err != nil {
		t.Errorf("the replacement store cannot restore its record: %v", err)
	}
}
