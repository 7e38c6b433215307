package mat2c

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mat2c/internal/artifact"
)

// Scripted outcomes of one store Get, for a record key or a blob key.
const (
	getMiss       = iota // clean miss (ErrNotFound)
	getHit               // the key's valid encoding
	getBadBytes          // a flipped or truncated encoding
	getErrCorrupt        // the store itself reports corrupt bytes
	getOutage            // any other error: outage, open breaker
	getMisfiled          // another key's valid entry: a record of another key, a blob of another program
	numGetModes
)

// Scripted outcomes of one Has probe.
const (
	hasFalse = iota
	hasTrue
	hasErr
	numHasModes
)

// script is a fakeTier's scripted answers for one kind of key.
type script struct {
	getMode int
	getData []byte // returned for getHit, getBadBytes and getMisfiled
	hasMode int
	putFail bool
}

// fakeTier is an artifact.Store whose every answer is scripted by the
// test before each lookup, separately for record and blob keys; it logs
// the calls it receives as "<op> rec" or "<op> blob". checkerTier adds
// Has, batchTier and batchCheckerTier GetBatch.
type fakeTier struct {
	mu        sync.Mutex
	rec, blob script
	log       []string
	puts      []fakePut
	// batchFail makes GetBatch fail as a whole.
	batchFail bool
}

type fakePut struct {
	blob bool
	data []byte
}

func isBlobKey(key string) bool { return strings.HasSuffix(key, artifact.BlobKey("")) }

// call logs op on key and returns the script for the key's kind.
func (f *fakeTier) call(op, key string) *script {
	f.mu.Lock()
	defer f.mu.Unlock()
	if isBlobKey(key) {
		f.log = append(f.log, op+" blob")
		return &f.blob
	}
	f.log = append(f.log, op+" rec")
	return &f.rec
}

func (f *fakeTier) Get(key string) ([]byte, error) { return f.answer("get", key) }

// answer is the scripted reply to a read of key, logged as op.
func (f *fakeTier) answer(op, key string) ([]byte, error) {
	sc := f.call(op, key)
	switch sc.getMode {
	case getMiss:
		return nil, fmt.Errorf("fake: %w", artifact.ErrNotFound)
	case getErrCorrupt:
		return nil, fmt.Errorf("fake: %w: bad frame", artifact.ErrCorrupt)
	case getOutage:
		return nil, errors.New("fake: unavailable")
	}
	return append([]byte(nil), sc.getData...), nil
}

func (f *fakeTier) Put(key string, data []byte) error {
	sc := f.call("put", key)
	f.mu.Lock()
	f.puts = append(f.puts, fakePut{blob: isBlobKey(key), data: data})
	f.mu.Unlock()
	if sc.putFail {
		return errors.New("fake: put failed")
	}
	return nil
}

func (f *fakeTier) Delete(key string) error { f.call("delete", key); return nil }
func (f *fakeTier) Len() (int, error)       { return 0, nil }

type checkerTier struct{ *fakeTier }

func (c checkerTier) Has(key string) (bool, error) {
	switch c.call("has", key).hasMode {
	case hasTrue:
		return true, nil
	case hasErr:
		return false, errors.New("fake: unavailable")
	}
	return false, nil
}

// getBatch answers each key as Get would, logging "batch rec" or
// "batch blob" per key, or fails as a whole when batchFail is set.
func (f *fakeTier) getBatch(keys []string) ([]artifact.Fetched, error) {
	if f.batchFail {
		f.call("batchfail", "")
		return nil, errors.New("fake: batch failed")
	}
	out := make([]artifact.Fetched, len(keys))
	for i, key := range keys {
		out[i].Data, out[i].Err = f.answer("batch", key)
	}
	return out, nil
}

type batchTier struct{ *fakeTier }

func (b batchTier) GetBatch(keys []string) ([]artifact.Fetched, error) { return b.getBatch(keys) }

type batchCheckerTier struct{ checkerTier }

func (b batchCheckerTier) GetBatch(keys []string) ([]artifact.Fetched, error) {
	return b.getBatch(keys)
}

// propKey is one distinct compilation the property test looks up, with
// its fresh-compile reference and its durable encodings.
type propKey struct {
	src  string
	opts Options
	key  string
	k    Key
	want *Result
	hash string // the program's content hash
	rec  []byte // the record's encoding
	blob []byte // the program blob's encoding
}

// tierModel is the test's own account of one tier's counters.
type tierModel struct{ hits, misses, decodeErrors, storeErrors uint64 }

// progModel is the test's account of one decoded-program memo entry.
type progModel struct {
	hash   string
	stored [numTiers]bool
}

// lruModel is a most-recent-first list bounded to max entries; touch
// moves or inserts key at the front and returns its index in order.
type lruModel[T any] struct {
	order []T
	max   int
	keyOf func(T) string
}

func (m *lruModel[T]) find(key string) int {
	for i, v := range m.order {
		if m.keyOf(v) == key {
			return i
		}
	}
	return -1
}

// touch promotes key's entry, inserting mk() when absent, and returns it.
func (m *lruModel[T]) touch(key string, mk func() T) T {
	var v T
	if i := m.find(key); i >= 0 {
		v = m.order[i]
		m.order = append(m.order[:i], m.order[i+1:]...)
	} else {
		v = mk()
	}
	m.order = append([]T{v}, m.order...)
	if len(m.order) > m.max {
		m.order = m.order[:m.max]
	}
	return v
}

// TestTierResolutionProperty drives seeded random lookup sequences
// through every tier setup against scripted stores, and checks each
// lookup against a model of tier resolution: probe nearest first; a
// record hit takes its program from the decoded-program memo, or else
// from its blob on the same tier; any store failure, record or blob, is
// a miss; undecodable or misfiled bytes are deleted; and whatever
// settles the lookup is offered to the other tiers — a plain Put of the
// record to the nearer ones (they just missed), Has before Put to the
// deeper ones (they were never asked), Put everywhere after a compile,
// each record preceded by its blob under the same rule unless the tier
// is known to hold it.
// The keys are two sources on two cost siblings, so pairs of keys share
// one program blob.
// In the batch setups the remote also reads in batches, and every
// lookup is prefetched first and made through the handle
// Cache.Prefetch returns: the model, counters and outcomes are those
// of the per-key path unchanged, and only the reads move from the
// remote's Gets into its batches.
func TestTierResolutionProperty(t *testing.T) {
	base, err := LoadProcessor("dspasip")
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := base.Derive("dspasip-fastmul", func(p *Processor) { p.Costs = map[string]int{"fmul": 1} })
	if err != nil {
		t.Fatal(err)
	}
	var keys []propKey
	for i := 0; i < 2; i++ {
		src := fmt.Sprintf("function y = prop(x, a)\ny = a .* x + %d;\nend", i+1)
		for _, proc := range []*Processor{base, sibling} {
			opts := Options{Processor: proc}
			ks, err := Keys(opts, Input{Source: src, Entry: "prop", Params: cacheTestParams})
			if err != nil {
				t.Fatal(err)
			}
			key := ks[0].String()
			want, err := Compile(src, "prop", cacheTestParams, opts)
			if err != nil {
				t.Fatal(err)
			}
			prog := want.Program()
			keys = append(keys, propKey{src: src, opts: opts, key: key, k: ks[0], want: want,
				hash: prog.ContentHash(), rec: encodeRecord(key, want), blob: artifact.EncodeProgram(prog)})
		}
	}
	if keys[0].hash != keys[1].hash || keys[0].hash == keys[2].hash {
		t.Fatal("cost siblings must share a program, and the two sources must not")
	}
	setups := []struct {
		name                string
		disk, remote, batch bool
	}{
		{"none", false, false, false}, {"disk", true, false, false}, {"remote", false, true, false}, {"both", true, true, false},
		{"remote+batch", false, true, true}, {"both+batch", true, true, true},
	}
	for _, setup := range setups {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", setup.name, seed), func(t *testing.T) {
				runTierProperty(t, seed, setup.disk, setup.remote, setup.batch, keys)
			})
		}
	}
}

func runTierProperty(t *testing.T, seed int64, disk, remote, batch bool, keys []propKey) {
	rng := rand.New(rand.NewSource(seed))
	const memCap = 2
	c := NewCache(memCap)
	// tiers[i] is nil when tier i is detached.
	var tiers [numTiers]*fakeTier
	attach := func(i int, set func(artifact.Store)) {
		f := &fakeTier{}
		tiers[i] = f
		checker := rng.Intn(2) == 0
		switch {
		case batch && i == remoteTier && checker:
			set(batchCheckerTier{checkerTier{f}})
		case batch && i == remoteTier:
			set(batchTier{f})
		case checker:
			set(checkerTier{f})
		default:
			set(f)
		}
	}
	if disk {
		attach(diskTier, c.SetStore)
	}
	if remote {
		attach(remoteTier, c.SetRemoteStore)
	}
	isChecker := func(i int) bool {
		_, ok := c.stores()[i].(artifact.Checker)
		return ok
	}
	attached := disk || remote

	// Models of the memory tier (key indices) and of the decoded-program
	// memo, most recent first, both bounded like the cache's.
	mem := lruModel[int]{max: memCap, keyOf: func(i int) string { return keys[i].key }}
	progs := lruModel[*progModel]{max: memCap, keyOf: func(p *progModel) string { return p.hash }}
	var model [numTiers]tierModel
	var compiles, blobDecodes, programHits uint64
	// In the batch setups: the remote's reads in the model, the Gets it
	// saw, and the keys its batches answered.
	var modelGets, remoteGets, batchReads int
	for step := 0; step < 60; step++ {
		fail := func(format string, args ...interface{}) {
			t.Helper()
			t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
		}
		ki := rng.Intn(len(keys))
		k := keys[ki]
		for _, f := range tiers {
			if f == nil {
				continue
			}
			f.log, f.puts = nil, nil
			f.batchFail = rng.Intn(4) == 0
			for _, sc := range []*script{&f.rec, &f.blob} {
				sc.getMode = rng.Intn(numGetModes)
				sc.putFail = rng.Intn(3) == 0
				sc.hasMode = rng.Intn(numHasModes)
			}
			f.rec.getData = scriptedBytes(rng, f.rec.getMode, k.rec, keys[(ki+2)%len(keys)].rec)
			f.blob.getData = scriptedBytes(rng, f.blob.getMode, k.blob, keys[(ki+2)%len(keys)].blob)
		}

		// Model the lookup.
		want := make([][]string, numTiers)
		memHit := mem.find(k.key) >= 0
		from := numTiers // the tier that settles the lookup; numTiers = compile
		// Prefetch probes the local tier for the record and, when it
		// answers absent and the remote's batch holds the record, the
		// lookup takes that answer as the local tier's miss.
		probedAbsent := batch && disk && remote && isChecker(diskTier) &&
			tiers[diskTier].rec.hasMode == hasFalse && !tiers[remoteTier].batchFail
		if !memHit {
			for i, f := range tiers {
				if f == nil || from < numTiers {
					continue
				}
				if i == diskTier && probedAbsent {
					model[i].misses++
					continue
				}
				want[i] = append(want[i], "get rec")
				ok, corrupt := false, false
				switch f.rec.getMode {
				case getHit:
					if progs.find(k.hash) >= 0 {
						progs.touch(k.hash, nil)
						programHits++
						ok = true
						break
					}
					want[i] = append(want[i], "get blob")
					switch f.blob.getMode {
					case getHit:
						blobDecodes++
						progs.touch(k.hash, func() *progModel { return &progModel{hash: k.hash} }).stored[i] = true
						ok = true
					case getBadBytes, getMisfiled:
						want[i] = append(want[i], "delete blob")
						corrupt = true
					case getErrCorrupt:
						corrupt = true
					}
				case getBadBytes, getMisfiled:
					want[i] = append(want[i], "delete rec")
					corrupt = true
				case getErrCorrupt:
					corrupt = true
				}
				switch {
				case ok:
					model[i].hits++
					from = i
				case corrupt:
					model[i].misses++
					model[i].decodeErrors++
				default:
					model[i].misses++
				}
			}
			if from == numTiers {
				compiles++
			}
			if attached && (from == numTiers || disk && remote) {
				e := progs.touch(k.hash, func() *progModel { return &progModel{hash: k.hash} })
				for i, f := range tiers {
					if f == nil || i == from {
						continue
					}
					if i > from && isChecker(i) {
						want[i] = append(want[i], "has rec")
						if f.rec.hasMode != hasFalse {
							continue
						}
					}
					if !e.stored[i] {
						probe := i > from && isChecker(i)
						if probe {
							want[i] = append(want[i], "has blob")
							if f.blob.hasMode == hasErr {
								continue
							}
						}
						if !probe || f.blob.hasMode == hasFalse {
							want[i] = append(want[i], "put blob")
							if f.blob.putFail {
								model[i].storeErrors++
								continue
							}
						}
						e.stored[i] = true
					}
					want[i] = append(want[i], "put rec")
					if f.rec.putFail {
						model[i].storeErrors++
					}
				}
			}
		}
		mem.touch(k.key, func() int { return ki })

		run := c.Prefetch([]Want{{Key: k.k}})
		res, hit, err := CompileCached(run, k.src, "prop", cacheTestParams, k.opts)
		c.Flush()
		if err != nil {
			fail("store failure reached the caller: %v", err)
		}
		if wantHit := memHit || from < numTiers; hit != wantHit {
			fail("hit = %v, want %v", hit, wantHit)
		}
		if res.CSource() != k.want.CSource() {
			fail("C source differs from a fresh compile")
		}
		if got := res.Program().ContentHash(); got != k.hash {
			fail("program hash %s, want %s", got, k.hash)
		}
		for i, f := range tiers {
			if f == nil {
				continue
			}
			log := f.log
			if batch {
				// Compare the calls besides reads: the disk's presence
				// probes that Prefetch makes, and the remote's reads,
				// which a batch may answer in place of a Get.
				if i == remoteTier {
					modelGets += countOp(want[i], "get")
					remoteGets += countOp(f.log, "get")
					batchReads += countOp(f.log, "batch")
				}
				log, want[i] = nonReads(i, log), nonReads(i, want[i])
			}
			if !reflect.DeepEqual(log, want[i]) {
				fail("tier %d (record get/has %d/%d, blob get/has %d/%d, checker %v) saw calls %v, want %v",
					i, f.rec.getMode, f.rec.hasMode, f.blob.getMode, f.blob.hasMode, isChecker(i), f.log, want[i])
			}
			for _, p := range f.puts {
				if p.blob {
					if string(p.data) != string(k.blob) {
						fail("tier %d was offered a blob other than the program's", i)
					}
					continue
				}
				if from < numTiers && string(p.data) != string(k.rec) {
					fail("tier %d was offered bytes other than the verified record", i)
				}
				if got, err := decodeRecord(p.data, k.key); err != nil || got.CSource != k.want.CSource() || got.ProgramHash != k.hash {
					fail("tier %d was offered a record that does not restore the compilation: %v", i, err)
				}
			}
		}

		st := c.Stats()
		if st.Misses != st.Compiles+st.DiskHits+st.RemoteHits+st.FlightWaits {
			fail("miss invariant violated: %+v", st)
		}
		got := [numTiers]tierModel{
			{st.DiskHits, st.DiskMisses, st.DecodeErrors, st.StoreErrors},
			{st.RemoteHits, st.RemoteMisses, st.RemoteDecodeErrors, st.RemoteStoreErrors},
		}
		if got != model || st.Compiles != compiles {
			fail("tier counters %+v and %d compiles, model %+v and %d", got, st.Compiles, model, compiles)
		}
		if st.BlobDecodes != blobDecodes || st.ProgramHits != programHits {
			fail("%d blob decodes and %d program hits, model %d and %d", st.BlobDecodes, st.ProgramHits, blobDecodes, programHits)
		}
		if st.Entries != len(mem.order) {
			fail("%d entries in memory, model %d", st.Entries, len(mem.order))
		}
	}
	// The lookups read what the model says they read; the Gets they
	// did not make were answered by a batch.
	if batch && (batchReads == 0 || remoteGets >= modelGets) {
		t.Fatalf("seed %d: %d remote reads modelled, %d made by Get, %d keys read in batches: prefetched answers went unused",
			seed, modelGets, remoteGets, batchReads)
	}
}

// countOp counts the calls of op in a tier's call log.
func countOp(log []string, op string) int {
	n := 0
	for _, e := range log {
		if strings.Fields(e)[0] == op {
			n++
		}
	}
	return n
}

// nonReads drops from a tier's call log what a prefetched lookup may
// do differently: the remote's reads (Get or batch) and its failed
// batches, and the local tier's presence probes.
func nonReads(tier int, log []string) []string {
	var out []string
	for _, e := range log {
		op := strings.Fields(e)[0]
		if tier == remoteTier && (op == "get" || op == "batch" || op == "batchfail") || tier == diskTier && op == "has" {
			continue
		}
		out = append(out, e)
	}
	return out
}

// scriptedBytes returns what a scripted Get hands back: the valid
// encoding, a flipped or truncated copy of it, or another key's valid
// entry.
func scriptedBytes(rng *rand.Rand, mode int, valid, other []byte) []byte {
	switch mode {
	case getBadBytes:
		b := append([]byte(nil), valid...)
		if rng.Intn(2) == 0 {
			b[rng.Intn(len(b))] ^= 0x40
			return b
		}
		return b[:rng.Intn(len(b))]
	case getMisfiled:
		return other
	}
	return valid
}

// countingStore counts the Gets a disk store sees, by kind of key.
type countingStore struct {
	*artifact.DiskStore
	mu   sync.Mutex
	gets map[string]int // by "record", "blob" or "events"
}

func (c *countingStore) Get(key string) ([]byte, error) {
	kind := "record"
	switch {
	case isBlobKey(key):
		kind = "blob"
	case strings.Contains(key, artifact.EventsKey("", "")):
		kind = "events"
	}
	c.mu.Lock()
	c.gets[kind]++
	c.mu.Unlock()
	return c.DiskStore.Get(key)
}

// TestPrefetchedRecordsSkipLocalReads is a remote-fed sweep in
// miniature over a fresh local tier: Prefetch probes each record key
// there, finds it absent and batch-reads it from the origin, and the
// lookups then take the origin's answers without reading the local
// tier again. Each still counts a local miss, and the entries they
// restore are written to the local tier.
func TestPrefetchedRecordsSkipLocalReads(t *testing.T) {
	_, client := openTestOrigin(t)
	const n = 6
	var ins []Input
	for i := 0; i < n; i++ {
		src := strings.Replace(cacheTestSrc, "+ 1", fmt.Sprintf("+ %d", i+1), 1)
		ins = append(ins, Input{Source: src, Entry: "scale", Params: cacheTestParams})
	}
	keys, err := Keys(Options{Target: "dspasip"}, ins...)
	if err != nil {
		t.Fatal(err)
	}
	var wants []Want
	for _, k := range keys {
		wants = append(wants, Want{Key: k})
	}
	warm := NewCache(n)
	warm.SetRemoteStore(client())
	for _, k := range keys {
		if _, _, err := CompileKey(context.Background(), warm, k); err != nil {
			t.Fatal(err)
		}
	}
	warm.Flush()

	dir := t.TempDir()
	local := &countingStore{DiskStore: openTestStore(t, dir), gets: make(map[string]int)}
	c := NewCache(n)
	c.SetStore(local)
	c.SetRemoteStore(client())
	run := c.Prefetch(wants)
	for _, k := range keys {
		if _, hit, err := CompileKey(context.Background(), run, k); err != nil || !hit {
			t.Fatalf("remote-fed lookup: hit=%v err=%v", hit, err)
		}
	}
	c.Flush()
	if got := local.gets["record"]; got != 0 {
		t.Errorf("the local tier saw %d record Gets after Prefetch found every record absent, want 0", got)
	}
	if st := c.Stats(); st.DiskMisses != n || st.RemoteHits != n || st.Compiles != 0 {
		t.Errorf("stats: %d disk misses, %d remote hits, %d compiles; want %d, %d, 0", st.DiskMisses, st.RemoteHits, st.Compiles, n, n)
	}
	again := NewCache(n)
	again.SetStore(openTestStore(t, dir))
	for _, k := range keys {
		if _, hit, err := CompileKey(context.Background(), again, k); err != nil || !hit {
			t.Fatalf("local rerun: hit=%v err=%v", hit, err)
		}
	}
	if st := again.Stats(); st.DiskHits != n {
		t.Errorf("local rerun: %d disk hits, want %d", st.DiskHits, n)
	}
}

// failPutStore is a real disk store whose writes all fail.
type failPutStore struct{ *artifact.DiskStore }

func (failPutStore) Put(string, []byte) error { return errors.New("disk full") }

// TestDiskWriteThroughErrorCounted: a compile whose disk write-through
// fails still succeeds, the failure is counted in disk_store_errors,
// and the result is still served from memory.
func TestDiskWriteThroughErrorCounted(t *testing.T) {
	c := NewCache(8)
	c.SetStore(failPutStore{openTestStore(t, t.TempDir())})
	opts := Options{Target: "dspasip"}
	first, hit, err := CompileCached(c, cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil || hit {
		t.Fatalf("compile over a failing disk: hit=%v err=%v", hit, err)
	}
	c.Flush()
	st := c.Stats()
	if st.StoreErrors != 1 || st.Compiles != 1 {
		t.Errorf("stats = %+v, want 1 disk store error after 1 compile", st)
	}
	js, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"disk_store_errors":1`) {
		t.Errorf("disk_store_errors not reported: %s", js)
	}
	again, hit, err := CompileCached(c, cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil || !hit || again != first {
		t.Fatalf("second lookup: hit=%v same=%v err=%v, want the memory entry", hit, again == first, err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Compiles != 1 || st.DiskHits != 0 {
		t.Errorf("stats = %+v, want 1 memory hit and no second compile", st)
	}
}
