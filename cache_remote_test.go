package mat2c

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mat2c/internal/artifact"
	"mat2c/internal/artifact/remote"
	"mat2c/internal/vm"
)

// openTestOrigin stands up a blob-protocol origin over a fresh disk
// store and returns a client factory for it, plus the backing store for
// direct inspection.
func openTestOrigin(t *testing.T) (*artifact.DiskStore, func() *remote.RemoteStore) {
	t.Helper()
	store, err := artifact.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(remote.NewServer(store, 0).Handler())
	t.Cleanup(ts.Close)
	return store, func() *remote.RemoteStore {
		return remote.New(ts.URL+"/artifact", remote.Options{})
	}
}

// TestRemoteTierWarmsSecondProcess is the fleet warm-start criterion in
// miniature: a cache that never compiled (and whose local disk never
// saw) a variant restores it from the shared remote with zero compiles.
func TestRemoteTierWarmsSecondProcess(t *testing.T) {
	_, client := openTestOrigin(t)
	opts := Options{Target: "dspasip"}

	// "Worker A": compiles cold, writes through to its disk and the remote.
	cA := NewCache(8)
	cA.SetStore(openTestStore(t, t.TempDir()))
	cA.SetRemoteStore(client())
	orig, hit, err := CompileCached(cA, cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("cold compile reported hit")
	}
	cA.Flush()
	if st := cA.Stats(); st.Compiles != 1 || st.RemoteStoreErrors != 0 {
		t.Fatalf("worker A stats: %+v", st)
	}

	// "Worker B": fresh memory, fresh (empty) disk, same remote.
	cB := NewCache(8)
	cB.SetStore(openTestStore(t, t.TempDir()))
	cB.SetRemoteStore(client())
	res, hit, err := CompileCached(cB, cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("warm worker missed: remote tier not consulted")
	}
	st := cB.Stats()
	if st.Compiles != 0 {
		t.Errorf("warm worker compiled %d times, want 0", st.Compiles)
	}
	if st.RemoteHits != 1 || st.DiskMisses != 1 {
		t.Errorf("stats = %+v, want 1 remote hit after 1 disk miss", st)
	}
	if st.Misses != st.Compiles+st.DiskHits+st.RemoteHits+st.FlightWaits {
		t.Errorf("miss invariant violated: %+v", st)
	}
	if n := uint64(len(orig.res.Queries) + 2); st.Remote == nil || st.Remote.Hits != n || st.Remote.BreakerState != "closed" {
		t.Errorf("remote client stats: %+v", st.Remote)
	}
	if res.CSource() != orig.CSource() {
		t.Error("remotely restored artifact differs from the original")
	}
	cB.Flush() // the offer to the local tier moves its counters
	checkRestoredContract(t, cB, res, orig)
	out, _, err := res.Run(NewVector(1, 2), 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if a := out[0].(*Array); a.F[0] != 3 || a.F[1] != 5 {
		t.Errorf("restored result computed %v", a.F)
	}

	// The remote hit warmed memory AND the local disk: the next lookup
	// hits memory, and a third cache over B's disk dir needs no network.
	if _, hit, _ = CompileCached(cB, cacheTestSrc, "scale", cacheTestParams, opts); !hit {
		t.Error("post-restore lookup missed memory")
	}
	cB.Flush()
	after := cB.Stats()
	if after.RemoteHits != 1 {
		t.Errorf("memory hit went back to the remote: %d remote hits", after.RemoteHits)
	}
	if after.Disk == nil || after.Disk.Entries == 0 {
		t.Error("remote hit did not warm the local disk tier")
	}
}

// TestRemoteCorruptEntryDegradesToRecompile plants an entry in the
// origin that passes the wire checksum but fails artifact decoding: the
// cache counts a remote decode error, recompiles, and deletes the dead
// entry from the origin so the fleet stops fetching it.
func TestRemoteCorruptEntryDegradesToRecompile(t *testing.T) {
	origin, client := openTestOrigin(t)
	opts := Options{Target: "dspasip"}
	keys, err := Keys(opts, Input{Source: cacheTestSrc, Entry: "scale", Params: cacheTestParams})
	if err != nil {
		t.Fatal(err)
	}
	// A well-framed entry that is not a decodable artifact, at the root
	// of the compile's trie.
	if err := origin.Put(keys[0].root, []byte("not an artifact at all")); err != nil {
		t.Fatal(err)
	}

	c := NewCache(8)
	c.SetRemoteStore(client())
	res, hit, err := CompileCached(c, cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatalf("corrupt remote entry surfaced an error: %v", err)
	}
	if hit {
		t.Error("corrupt remote entry reported as a hit")
	}
	if res == nil {
		t.Fatal("no result after degrade-to-recompile")
	}
	c.Flush()
	st := c.Stats()
	if st.RemoteDecodeErrors != 1 || st.RemoteHits != 0 || st.Compiles != 1 {
		t.Errorf("stats = %+v, want 1 remote decode error and 1 recompile", st)
	}
	// The dead entry was evicted from the origin; the recompile's
	// write-through replaced it with a good one.
	if _, err := restoreFrom(t, origin, opts); err != nil {
		t.Errorf("origin not healed after recompile: %v", err)
	}
}

// TestRemoteOutageDegradesToLocal points the remote tier at a dead
// address: every lookup and write-through must succeed locally with the
// failure counted, never surfaced.
func TestRemoteOutageDegradesToLocal(t *testing.T) {
	opts := Options{Target: "dspasip"}
	c := NewCache(8)
	c.SetStore(openTestStore(t, t.TempDir()))
	c.SetRemoteStore(remote.New("http://127.0.0.1:1/artifact", remote.Options{}))
	res, hit, err := CompileCached(c, cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatalf("remote outage failed the request: %v", err)
	}
	if hit || res == nil {
		t.Fatalf("outage compile: hit=%v res=%v", hit, res != nil)
	}
	c.Flush() // must return despite the dead remote
	st := c.Stats()
	if st.Compiles != 1 || st.RemoteMisses != 1 {
		t.Errorf("stats = %+v, want 1 compile / 1 remote miss", st)
	}
	if st.RemoteStoreErrors != 1 {
		t.Errorf("write-through against dead remote not counted: %+v", st)
	}
	if st.Misses != st.Compiles+st.DiskHits+st.RemoteHits+st.FlightWaits {
		t.Errorf("miss invariant violated: %+v", st)
	}
}

// TestDiskHitPublishesUpward: an artifact compiled before the shared
// cache existed (local disk only) is offered to the remote on the next
// disk hit, so the fleet converges without recompiles.
func TestDiskHitPublishesUpward(t *testing.T) {
	origin, client := openTestOrigin(t)
	opts := Options{Target: "dspasip"}
	dir := t.TempDir()
	key := leafKey(t, opts)

	// Seed the local disk with no remote attached.
	seed := NewCache(8)
	seed.SetStore(openTestStore(t, dir))
	if _, _, err := CompileCached(seed, cacheTestSrc, "scale", cacheTestParams, opts); err != nil {
		t.Fatal(err)
	}
	seed.Flush()

	// A fresh cache over the same disk, now fleet-connected: the disk
	// hit publishes upward.
	c := NewCache(8)
	c.SetStore(openTestStore(t, dir))
	c.SetRemoteStore(client())
	if _, hit, err := CompileCached(c, cacheTestSrc, "scale", cacheTestParams, opts); err != nil || !hit {
		t.Fatalf("disk hit: hit=%v err=%v", hit, err)
	}
	c.Flush()
	if has, err := origin.Has(key); err != nil || !has {
		t.Fatalf("disk hit did not publish to the remote: has=%v err=%v", has, err)
	}
	if st := c.Stats(); st.DiskHits != 1 || st.RemoteStoreErrors != 0 {
		t.Errorf("stats = %+v", st)
	}

	// A second disk hit must not re-upload: the Has probe short-circuits.
	c2 := NewCache(8)
	c2.SetStore(openTestStore(t, dir))
	rc := client()
	c2.SetRemoteStore(rc)
	if _, hit, err := CompileCached(c2, cacheTestSrc, "scale", cacheTestParams, opts); err != nil || !hit {
		t.Fatalf("second disk hit: hit=%v err=%v", hit, err)
	}
	c2.Flush()
	if st := rc.Stats(); st.Puts != 0 {
		t.Errorf("already-published entry re-uploaded: %+v", st)
	}
}

// TestWriteThroughReachesBothTiers: a fresh compile lands in the local
// store and the remote origin, every node of its trie path and its
// blob, with the same bytes in both.
func TestWriteThroughReachesBothTiers(t *testing.T) {
	origin, client := openTestOrigin(t)
	opts := Options{Target: "dspasip"}
	local := openTestStore(t, t.TempDir())
	c := NewCache(8)
	c.SetStore(local)
	c.SetRemoteStore(client())
	res, _, err := CompileCached(c, cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Flush()
	keys := []string{artifact.BlobKey(res.Program().ContentHash())}
	for _, st := range testPath(t, opts, res) {
		keys = append(keys, st.key)
	}
	for _, key := range keys {
		localData, err := local.Get(key)
		if err != nil {
			t.Fatalf("local tier missing the compile: %v", err)
		}
		remoteData, err := origin.Get(key)
		if err != nil {
			t.Fatalf("remote tier missing the compile: %v", err)
		}
		if string(localData) != string(remoteData) {
			t.Error("tiers hold different bytes for one key")
		}
	}
}

// swapOnBatch is a remote store that, after each batch read, has the
// cache attach another remote, as a fleet worker may while a sweep
// runs.
type swapOnBatch struct {
	*remote.RemoteStore
	swap func()
}

func (s *swapOnBatch) GetBatch(keys []string) ([]artifact.Fetched, error) {
	got, err := s.RemoteStore.GetBatch(keys)
	s.swap()
	return got, err
}

// TestPrefetchOvertakenBySetRemoteStore: Prefetch stops walking a
// remote that SetRemoteStore replaces while it runs, files nothing that
// remote answered, and a run's view of it is not read, so no lookup
// takes its answers as the new remote's replies; the lookup reads the
// new remote.
func TestPrefetchOvertakenBySetRemoteStore(t *testing.T) {
	_, client := openTestOrigin(t)
	opts := Options{Target: "dspasip"}
	warm := NewCache(8)
	warm.SetRemoteStore(client())
	res, _, err := CompileCached(warm, cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm.Flush()

	keys, err := Keys(opts, Input{Source: cacheTestSrc, Entry: "scale", Params: cacheTestParams})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(8)
	old, next := client(), client()
	c.SetRemoteStore(&swapOnBatch{old, func() { c.SetRemoteStore(next) }})
	run := c.Prefetch([]Want{{Key: keys[0]}})
	if st := old.Stats(); st.Batches != 1 || st.BatchKeys != 1 {
		t.Fatalf("the replaced remote's batches read %d keys in %d batches, want the root alone", st.BatchKeys, st.Batches)
	}
	if _, hit, err := CompileKey(context.Background(), run, keys[0]); err != nil || !hit {
		t.Fatalf("lookup: hit=%v err=%v", hit, err)
	}
	if n := uint64(len(res.res.Queries) + 2); next.Stats().Gets != n || next.Stats().Hits != n {
		t.Errorf("new remote: %+v; want the %d nodes of the path and the blob read from it", next.Stats(), n-1)
	}
}

// TestPrefetchViewIsTheRunsOwn: the trie nodes a run's Prefetch reads
// go into the cache's node memo, which every lookup walks, but the
// blobs it reads ahead are read only by lookups through its handle. A
// lookup through the cache itself, or through another run's handle,
// reads its blob from the remote by key and leaves the answers to the
// run, whose lookup later takes them without a Get, concurrently with
// the other run's.
func TestPrefetchViewIsTheRunsOwn(t *testing.T) {
	_, client := openTestOrigin(t)
	opts := Options{Target: "dspasip"}
	var ins []Input
	for i := 0; i < 2; i++ {
		src := strings.Replace(cacheTestSrc, "+ 1", fmt.Sprintf("+ %d", i+1), 1)
		ins = append(ins, Input{Source: src, Entry: "scale", Params: cacheTestParams})
	}
	keys, err := Keys(opts, ins...)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewCache(8)
	warm.SetRemoteStore(client())
	for _, k := range keys {
		if _, _, err := CompileKey(context.Background(), warm, k); err != nil {
			t.Fatal(err)
		}
	}
	warm.Flush()

	// A memory tier and program memo of one entry each, so the second
	// key's lookup evicts the first key's compilation and program.
	c := NewCache(1)
	far := client()
	c.SetRemoteStore(far)
	runs := []*Cache{c.Prefetch([]Want{{Key: keys[0]}}), c.Prefetch([]Want{{Key: keys[1]}})}
	// Each key's path and blob.
	perKey := uint64(testPathLen(t, opts) + 1)
	if st := far.Stats(); st.BatchKeys != 2*perKey || st.Gets != 0 {
		t.Fatalf("Prefetch: %d keys batch-read and %d gets, want %d and 0", st.BatchKeys, st.Gets, 2*perKey)
	}
	lookup := func(c *Cache, k Key) {
		if _, hit, err := CompileKey(context.Background(), c, k); err != nil || !hit {
			t.Errorf("lookup: hit=%v err=%v", hit, err)
		}
	}
	lookup(c, keys[0])
	lookup(runs[0], keys[1])
	if st := far.Stats(); st.Gets != 2 {
		t.Fatalf("lookups outside the runs made %d remote gets, want the 2 blobs read by key", st.Gets)
	}
	var wg sync.WaitGroup
	for i, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lookup(run, keys[i])
		}()
	}
	wg.Wait()
	if st := far.Stats(); st.Gets != 2 {
		t.Errorf("the runs' lookups made %d more remote gets, want 0: they take their own answers", st.Gets-2)
	}
	if st := c.Stats(); st.RemoteHits+st.Hits != 4 || st.Compiles != 0 {
		t.Errorf("stats %+v: want 4 lookups served without a compile", st)
	}
}

// storeEvents compiles the test kernel through a cache over the
// origin, runs it, and writes the run's events under digest, as a
// verified simulation does (Events). It returns the program and the
// compilation's key.
func storeEvents(t *testing.T, origin *remote.RemoteStore, digest string) (*vm.Program, Key) {
	t.Helper()
	opts := Options{Target: "dspasip"}
	warm := NewCache(8)
	warm.SetRemoteStore(origin)
	res, _, err := CompileCached(warm, cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*vm.Events, error) {
		_, ev, err := vm.NewMachine(res.Processor()).RunEvents(context.Background(), res.Program(), NewVector(1, 2, 3, 4), 2.0)
		if err == nil && ev == nil {
			err = errors.New("the run recorded no events")
		}
		return ev, err
	}
	if _, simulated, err := warm.Events(context.Background(), res.Program(), digest, run); err != nil || !simulated {
		t.Fatalf("storing events: simulated %v, err %v", simulated, err)
	}
	warm.Flush()
	keys, err := Keys(opts, Input{Source: cacheTestSrc, Entry: "scale", Params: cacheTestParams})
	if err != nil {
		t.Fatal(err)
	}
	return res.Program(), keys[0]
}

// noSimulation is the simulate of a lookup that must not simulate.
func noSimulation(t *testing.T) func() (*vm.Events, error) {
	return func() (*vm.Events, error) {
		t.Error("an events lookup simulated")
		return nil, errors.New("unexpected simulation")
	}
}

// TestPrefetchEventsAnsweredOnce: a run's view answers its events read,
// and the events memo serves every later lookup of the key, through
// the cache or any of its handles, so Prefetch does not read the entry
// ahead again.
func TestPrefetchEventsAnsweredOnce(t *testing.T) {
	_, client := openTestOrigin(t)
	const digest = "0123abcd"
	prog, key := storeEvents(t, client(), digest)
	wants := []Want{{Key: key, CaseDigest: digest}}

	c := NewCache(8)
	far := client()
	c.SetRemoteStore(far)
	run := c.Prefetch(wants)
	path := uint64(testPathLen(t, key.opts))
	if st := far.Stats(); st.BatchKeys != path+2 {
		t.Fatalf("Prefetch read %d keys, want the %d nodes of the path, the blob and the events", st.BatchKeys, path)
	}
	for _, lookup := range []*Cache{run, run, c} {
		if ev, _, err := lookup.Events(context.Background(), prog, digest, noSimulation(t)); err != nil || ev == nil {
			t.Fatalf("Events missed the origin's entry: %v", err)
		}
	}
	if st := far.Stats(); st.Gets != 0 {
		t.Fatalf("events lookups made %d remote gets, want 0", st.Gets)
	}
	if st := c.Stats(); st.EventHits != 1 || st.EventMemoHits != 2 || st.EventMisses != 0 {
		t.Errorf("event hits %d, memo hits %d, misses %d; want 1, 2 and 0", st.EventHits, st.EventMemoHits, st.EventMisses)
	}
	c.Prefetch(wants)
	if st := far.Stats(); st.BatchKeys != path+3 {
		t.Errorf("after Events: %d keys read in batches, want %d: the blob, but neither the path, which the node memo holds, nor the events entry", st.BatchKeys, path+3)
	}
}

// TestPrefetchViewAnswersEventsOnce: a run's view answers each events
// key it read ahead once, so a second read of the key through the
// handle, once the events memo has evicted it, costs one remote get.
func TestPrefetchViewAnswersEventsOnce(t *testing.T) {
	_, client := openTestOrigin(t)
	digests := []string{"0123abcd", "4567cdef"}
	var prog *vm.Program
	var wants []Want
	for _, d := range digests {
		p, key := storeEvents(t, client(), d)
		prog = p
		wants = append(wants, Want{Key: key, CaseDigest: d})
	}

	// An events memo of one entry, so the second digest's lookup
	// evicts the first's events.
	c := NewCache(1)
	far := client()
	c.SetRemoteStore(far)
	run := c.Prefetch(wants)
	if n := uint64(testPathLen(t, wants[0].Key.opts) + 3); far.Stats().BatchKeys != n || far.Stats().Gets != 0 {
		t.Fatalf("Prefetch: %+v, want %d keys batch-read: the path, the blob and 2 events entries, and 0 gets", far.Stats(), n)
	}
	for i, d := range append(digests, digests[0]) {
		if ev, _, err := run.Events(context.Background(), prog, d, noSimulation(t)); err != nil || ev == nil {
			t.Fatalf("lookup %d: Events missed the origin's entry: %v", i, err)
		}
		want := uint64(0)
		if i == len(digests) {
			want = 1
		}
		if st := far.Stats(); st.Gets != want {
			t.Fatalf("lookup %d: %d remote gets, want %d: the view answers a key once", i, st.Gets, want)
		}
	}
	if st := c.Stats(); st.EventHits != 3 || st.EventMemoHits != 0 {
		t.Errorf("event hits %d, memo hits %d; want 3 and 0", st.EventHits, st.EventMemoHits)
	}
}

// TestPrefetchEventsAfterEmptyLookup: an events lookup that yielded
// nothing (its simulation was cancelled) leaves its key to be read
// ahead, so a later run that finds the entry stored meanwhile reads it
// in its batch, with no read by key.
func TestPrefetchEventsAfterEmptyLookup(t *testing.T) {
	_, client := openTestOrigin(t)
	const digest = "0123abcd"
	prog, key := storeEvents(t, client(), "another case")

	c := NewCache(8)
	far := client()
	c.SetRemoteStore(far)
	cancelled := func() (*vm.Events, error) { return nil, context.Canceled }
	if _, simulated, err := c.Events(context.Background(), prog, digest, cancelled); !simulated || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lookup: simulated %v, err %v", simulated, err)
	}
	storeEvents(t, client(), digest)
	gets := far.Stats().Gets
	run := c.Prefetch([]Want{{Key: key, CaseDigest: digest}})
	if ev, _, err := run.Events(context.Background(), prog, digest, noSimulation(t)); err != nil || ev == nil {
		t.Fatalf("Events missed the stored entry: %v", err)
	}
	if got := far.Stats().Gets - gets; got != 0 {
		t.Errorf("the later run read the events by key %d times, want 0: its Prefetch reads them ahead", got)
	}
}

// fetchedBlobs wraps a remote tier and keeps the blob bytes it returns.
type fetchedBlobs struct {
	*remote.RemoteStore
	mu    sync.Mutex
	blobs map[string][]byte
}

func (f *fetchedBlobs) keep(key string, data []byte) {
	if isBlobKey(key) && data != nil {
		f.mu.Lock()
		f.blobs[key] = data
		f.mu.Unlock()
	}
}

func (f *fetchedBlobs) Get(key string) ([]byte, error) {
	data, err := f.RemoteStore.Get(key)
	f.keep(key, data)
	return data, err
}

func (f *fetchedBlobs) GetBatch(keys []string) ([]artifact.Fetched, error) {
	got, err := f.RemoteStore.GetBatch(keys)
	for i, g := range got {
		f.keep(keys[i], g.Data)
	}
	return got, err
}

// putLog is a disk store that keeps the bytes of every Put.
type putLog struct {
	*artifact.DiskStore
	mu   sync.Mutex
	puts map[string][]byte
}

func (p *putLog) Put(key string, data []byte) error {
	p.mu.Lock()
	p.puts[key] = data
	p.mu.Unlock()
	return p.DiskStore.Put(key, data)
}

// TestRemoteFedBlobWrittenAsFetched: a lookup that restores a program
// from the remote tier writes the blob it fetched to the local tier as
// it fetched it — the origin's entry byte for byte, in the very buffer
// the remote read returned, not a re-encoding of the decoded program —
// with and without a Prefetch in front.
func TestRemoteFedBlobWrittenAsFetched(t *testing.T) {
	origin, client := openTestOrigin(t)
	opts := Options{Target: "dspasip"}
	warm := NewCache(8)
	warm.SetRemoteStore(client())
	res, _, err := CompileCached(warm, cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm.Flush()
	blobKey := artifact.BlobKey(res.res.Program.ContentHash())
	want, err := origin.Get(blobKey)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := Keys(opts, Input{Source: cacheTestSrc, Entry: "scale", Params: cacheTestParams})
	if err != nil {
		t.Fatal(err)
	}

	for _, prefetch := range []bool{false, true} {
		local := &putLog{DiskStore: openTestStore(t, t.TempDir()), puts: map[string][]byte{}}
		fetched := &fetchedBlobs{RemoteStore: client(), blobs: map[string][]byte{}}
		c := NewCache(8)
		c.SetStore(local)
		c.SetRemoteStore(fetched)
		run := c
		if prefetch {
			run = c.Prefetch([]Want{{Key: keys[0]}})
		}
		if _, hit, err := CompileKey(context.Background(), run, keys[0]); err != nil || !hit {
			t.Fatalf("prefetch %v: remote-fed lookup: hit=%v err=%v", prefetch, hit, err)
		}
		c.Flush()
		got, from := local.puts[blobKey], fetched.blobs[blobKey]
		if !bytes.Equal(got, want) {
			t.Fatalf("prefetch %v: the local blob Put differs from the origin's entry (%d vs %d bytes)", prefetch, len(got), len(want))
		}
		if len(from) == 0 || &got[0] != &from[0] {
			t.Errorf("prefetch %v: the local blob Put is not the buffer the remote read returned", prefetch)
		}
	}
}
