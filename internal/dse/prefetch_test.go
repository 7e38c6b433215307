package dse

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	mat2c "mat2c"
	"mat2c/internal/artifact"
	"mat2c/internal/artifact/remote"
	"mat2c/internal/bench"
	"mat2c/internal/core"
)

// legacyCacheKey is mat2c.CacheKey restated for the options a sweep
// compiles under, rendering the processor with encoding/json, so the
// key bytes stay pinned: the digest over the input's digest (over the
// cache-key version, source, entry and parameter types) and the
// target's digest (over the processor and the option fields).
func legacyCacheKey(t *testing.T, k *bench.Kernel, v *Variant) string {
	t.Helper()
	cfg := core.Proposed(v.Proc)
	cfg.EmitC = false
	procJSON, err := json.Marshal(cfg.Processor)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	field := func(f []byte) {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(f)))
		buf = append(buf, f...)
	}
	field([]byte("mat2c-cache-v3"))
	field([]byte(k.Source))
	field([]byte(k.Entry))
	for _, p := range k.Params {
		f := strconv.AppendInt(nil, int64(p.Class), 10)
		f = strconv.AppendInt(append(f, '/'), int64(p.Shape.Rows), 10)
		f = strconv.AppendInt(append(f, '/'), int64(p.Shape.Cols), 10)
		field(f)
	}
	in := sha256.Sum256(buf)
	buf = buf[:0]
	field(procJSON)
	f := strconv.AppendInt(nil, int64(cfg.OptLevel), 10)
	for _, on := range []bool{cfg.Vectorize, cfg.Intrinsics, cfg.Fusion, cfg.EmitC} {
		f = strconv.AppendBool(append(f, ' '), on)
	}
	field(f)
	target := sha256.Sum256(buf)
	buf = append(in[:], target[:]...)
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestVariantKeysMatchCacheKey: the keys a sweep computes once per
// variant equal CacheKey's, and the key bytes before Keys, for every
// default-sweep variant and kernel.
func TestVariantKeysMatchCacheKey(t *testing.T) {
	vs, err := (&Sweep{}).Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	kernels := bench.Kernels()
	opts := Options{}.withDefaults()
	for _, v := range vs {
		keys, err := variantKeys(v, kernels, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != len(kernels) {
			t.Fatalf("%s: %d keys for %d kernels", v.Proc.Name, len(keys), len(kernels))
		}
		for i, k := range kernels {
			want, err := mat2c.CacheKey(k.Source, k.Entry, k.Params, compileOptions(v, opts))
			if err != nil {
				t.Fatal(err)
			}
			if got := keys[i].String(); got != want || got != legacyCacheKey(t, k, v) {
				t.Fatalf("%s/%s: key %s, CacheKey %s, legacy %s", v.Proc.Name, k.Name, got, want, legacyCacheKey(t, k, v))
			}
		}
	}
}

// perKeyStore hides a remote store's batch reads, leaving the per-key
// path (and Has, which the cache probes before publishing).
type perKeyStore struct{ *remote.RemoteStore }

func (s perKeyStore) GetBatch() {} // shadows RemoteStore.GetBatch with another signature

// seed1Sweep is sized like the end-to-end benchmark's seed-1 sweep: the
// default axes crossed with two cost sets, 272 variants.
func seed1Sweep() *Sweep {
	return &Sweep{Costs: []CostOverride{{}, {Name: "seeded", Costs: map[string]int{"load": 3, "fmul": 2, "branch": 2}}}}
}

// TestRemoteFedSweepWithBatches runs a seed-1-sized sweep cold, then
// fed by a warm origin with a fresh local tier — reading key by key,
// and reading ahead in batches. The three reports have one identity
// (Report.Identity); every lookup of a remote-fed sweep hits, and the
// batched one reads in a few dozen batches and no Gets, from the
// origin or from the local tier.
func TestRemoteFedSweepWithBatches(t *testing.T) {
	origin, err := artifact.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(remote.NewServer(origin, 0).Handler())
	defer srv.Close()

	sweep := func(s artifact.Store, local bool) (*Report, mat2c.CacheStats) {
		t.Helper()
		c := mat2c.NewCache(0)
		if local {
			disk, err := artifact.OpenDisk(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			c.SetStore(disk)
		}
		if s != nil {
			c.SetRemoteStore(s)
		}
		rep, err := ExploreSweep(seed1Sweep(), Options{Jobs: 2, Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		c.Flush()
		st := c.Stats()
		if st.Misses != st.Compiles+st.DiskHits+st.RemoteHits+st.FlightWaits {
			t.Fatalf("miss invariant violated: %+v", st)
		}
		return rep, st
	}
	client := func() *remote.RemoteStore { return remote.New(srv.URL+"/artifact", remote.Options{}) }
	identity := func(rep *Report) []byte {
		t.Helper()
		id, err := rep.Identity()
		if err != nil {
			t.Fatal(err)
		}
		return id
	}

	cold, _ := sweep(client(), false) // warms the origin
	if len(cold.Variants) != 272 {
		t.Fatalf("%d variants, want 272", len(cold.Variants))
	}
	perKey, pst := sweep(perKeyStore{client()}, true)
	batched, bst := sweep(client(), true)

	if !bytes.Equal(identity(cold), identity(batched)) {
		t.Error("the batched remote-fed report differs from the cold one")
	}
	if !bytes.Equal(identity(perKey), identity(batched)) {
		t.Error("the batched remote-fed report differs from the per-key one")
	}
	for _, r := range []struct {
		name string
		rep  *Report
		st   mat2c.CacheStats
	}{{"per-key", perKey, pst}, {"batched", batched, bst}} {
		if r.rep.CacheHits != r.rep.CacheLookups || r.st.Compiles != 0 || r.st.RemoteHits == 0 {
			t.Errorf("%s: %d of %d lookups hit, %d compiles, %d remote hits; want every lookup served by the remote",
				r.name, r.rep.CacheHits, r.rep.CacheLookups, r.st.Compiles, r.st.RemoteHits)
		}
	}
	// A per-key lookup may find a trie leaf another worker's lookup
	// already wrote to the fresh local tier, where Prefetch answered it
	// absent for the run, so only the tiers' sum is compared.
	if pst.RemoteHits+pst.DiskHits != bst.RemoteHits+bst.DiskHits || pst.RemoteMisses != bst.RemoteMisses ||
		pst.RemoteDecodeErrors != bst.RemoteDecodeErrors || pst.DecodeErrors != bst.DecodeErrors || pst.BlobDecodes != bst.BlobDecodes {
		t.Errorf("cache counters differ: per-key %+v, batched %+v", pst, bst)
	}
	if pst.Remote.Batches != 0 || pst.Remote.Gets == 0 {
		t.Errorf("per-key sweep: %d batches, %d gets", pst.Remote.Batches, pst.Remote.Gets)
	}
	// A run reads one batch per trie level its walks meet new nodes at,
	// and one for blobs and events: about 38 batches per sweep.
	if bst.Remote.Gets != 0 || bst.Remote.Batches == 0 || bst.Remote.Batches > 56 {
		t.Errorf("batched sweep: %d gets and %d batches, want 0 and at most 56", bst.Remote.Gets, bst.Remote.Batches)
	}
	// Prefetch found every trie node, blob and events entry absent from
	// the fresh local tier, so no lookup reads it.
	if bst.Disk.Gets != 0 || bst.EventHits == 0 {
		t.Errorf("batched sweep: the local tier saw %d Gets, want 0 (%d events hits)", bst.Disk.Gets, bst.EventHits)
	}
}

// TestTrieTwoCachesFillOneStore: two caches, each over its own handle
// on one store directory (two processes in miniature), run a
// seed-1-sized sweep into the empty store at once, racing to file the
// same compiles in its tries. Both reports have the identity of a
// sweep without a store, and so has a third sweep over the filled
// store, which compiles nothing.
func TestTrieTwoCachesFillOneStore(t *testing.T) {
	identity := func(rep *Report) []byte {
		t.Helper()
		id, err := rep.Identity()
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	sweep := func(dir string) (*Report, mat2c.CacheStats, error) {
		c := mat2c.NewCache(0)
		if dir != "" {
			s, err := artifact.OpenDisk(dir, 0)
			if err != nil {
				return nil, mat2c.CacheStats{}, err
			}
			defer s.Close()
			c.SetStore(s)
		}
		rep, err := ExploreSweep(seed1Sweep(), Options{Jobs: 2, Cache: c})
		c.Flush()
		return rep, c.Stats(), err
	}
	cold, _, err := sweep("")
	if err != nil {
		t.Fatal(err)
	}
	want := identity(cold)
	dir := t.TempDir()
	var reps [2]*Report
	var errs [2]error
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], _, errs[i] = sweep(dir)
		}()
	}
	wg.Wait()
	for i, rep := range reps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(identity(rep), want) {
			t.Errorf("filling sweep %d: the report differs from the sweep without a store", i)
		}
	}
	warm, st, err := sweep(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(identity(warm), want) {
		t.Error("the sweep over the filled store differs from the sweep without a store")
	}
	if st.Compiles != 0 || st.DiskHits != st.Misses || st.DecodeErrors != 0 {
		t.Errorf("sweep over the filled store: %+v, want every lookup a disk hit", st)
	}
}
