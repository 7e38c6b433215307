package mat2c

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"mat2c/internal/artifact"
)

// Scripted outcomes of one store Get, for a trie node key or a blob key.
const (
	getMiss       = iota // clean miss (ErrNotFound)
	getHit               // the key's valid encoding
	getBadBytes          // a flipped or truncated encoding
	getErrCorrupt        // the store itself reports corrupt bytes
	getOutage            // any other error: outage, open breaker
	getMisfiled          // another key's valid entry: a node of another path, a blob of another program
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
	hasMode int
	putFail bool
}

// fakeTier is an artifact.Store whose every answer is scripted by the
// test before each lookup, separately for trie node keys and blob
// keys; it logs the calls it receives as "<op> node" or "<op> blob".
// checkerTier adds Has, batchTier and batchCheckerTier GetBatch. A hit
// returns the key's valid encoding from valid, and a misfiled entry
// the encoding misfiled names for the key.
type fakeTier struct {
	mu         sync.Mutex
	node, blob script
	valid      map[string][]byte
	misfiled   map[string]string
	badSeed    int64
	log        []string
	puts       []fakePut
	// batchFail makes GetBatch fail as a whole.
	batchFail bool
}

type fakePut struct {
	key  string
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
	f.log = append(f.log, op+" node")
	return &f.node
}

func (f *fakeTier) Get(key string) ([]byte, error) { return f.answer("get", key) }

// answer is the scripted reply to a read of key, logged as op.
func (f *fakeTier) answer(op, key string) ([]byte, error) {
	sc := f.call(op, key)
	valid := append([]byte(nil), f.valid[key]...)
	switch sc.getMode {
	case getMiss:
		return nil, fmt.Errorf("fake: %w", artifact.ErrNotFound)
	case getErrCorrupt:
		return nil, fmt.Errorf("fake: %w: bad frame", artifact.ErrCorrupt)
	case getOutage:
		return nil, errors.New("fake: unavailable")
	case getBadBytes:
		rng := rand.New(rand.NewSource(f.badSeed))
		if rng.Intn(2) == 0 {
			valid[rng.Intn(len(valid))] ^= 0x40
			return valid, nil
		}
		return valid[:rng.Intn(len(valid))], nil
	case getMisfiled:
		return append([]byte(nil), f.valid[f.misfiled[key]]...), nil
	}
	return valid, nil
}

func (f *fakeTier) Put(key string, data []byte) error {
	sc := f.call("put", key)
	f.mu.Lock()
	f.puts = append(f.puts, fakePut{key: key, data: data})
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

// getBatch answers each key as Get would, logging "batch node" or
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
// its fresh-compile reference and the keys of its trie path and blob.
type propKey struct {
	src  string
	opts Options
	key  string
	k    Key
	want *Result
	hash string   // the program's content hash
	path []string // the trie path's node keys, root first
	blob string   // the program blob's key
}

// lruModel is a most-recent-first list bounded to max entries; touch
// moves or inserts key at the front.
type lruModel[T comparable] struct {
	order []T
	max   int
}

func (m *lruModel[T]) has(v T) bool { return slices.Contains(m.order, v) }

func (m *lruModel[T]) touch(v T) {
	if i := slices.Index(m.order, v); i >= 0 {
		m.order = slices.Delete(m.order, i, i+1)
	}
	m.order = append([]T{v}, m.order...)
	if len(m.order) > m.max {
		m.order = m.order[:m.max]
	}
}

// TestTierResolutionProperty drives seeded random lookup sequences
// through every tier setup against scripted stores, and checks each
// lookup, call by call, against a model of tier resolution over the
// compile trie: a walk through the node and program memos alone is
// settled by the tier its leaf was read from; otherwise each tier
// nearest first walks the path, taking each inner node from the memo
// or reading it, the leaf from the memo if it was read from this tier
// or else from the tier, then the leaf's program from the memo or its
// blob on the same tier; any store failure, node or blob, is a miss; undecodable
// or misfiled bytes are deleted; and whatever settles the lookup is
// offered to the other tiers — the blob, then the leaf, then the inner
// nodes up to the root, each written unless the tier is known to hold
// it, a plain Put to the nearer tiers (they just missed), Has before
// Put to the deeper ones (they were never asked), Put everywhere after
// a compile, and nothing more for a tier after its first failure.
// The keys are two sources on two cost siblings, so pairs of keys share
// one trie path and one program blob.
// In the batch setups the remote also reads in batches, and every
// lookup is prefetched first and made through the handle
// Cache.Prefetch returns: the model walks the trie level by level as
// Prefetch does, probing the local tier and reading there what it
// holds, batch-reading the rest, and files what it reads in the node
// memo or as the run's answers.
func TestTierResolutionProperty(t *testing.T) {
	base, err := LoadProcessor("dspasip")
	if err != nil {
		t.Fatal(err)
	}
	// A cost sibling under the same name: C output prints the target's
	// name, so a renamed sibling files its C apart.
	sibling, err := base.Derive("dspasip", func(p *Processor) { p.Costs = map[string]int{"fmul": 1} })
	if err != nil {
		t.Fatal(err)
	}
	var keys []propKey
	valid := map[string][]byte{}
	for i := 0; i < 2; i++ {
		src := fmt.Sprintf("function y = prop(x, a)\ny = a .* x + %d;\nend", i+1)
		for _, proc := range []*Processor{base, sibling} {
			opts := Options{Processor: proc}
			ks, err := Keys(opts, Input{Source: src, Entry: "prop", Params: cacheTestParams})
			if err != nil {
				t.Fatal(err)
			}
			want, err := Compile(src, "prop", cacheTestParams, opts)
			if err != nil {
				t.Fatal(err)
			}
			prog := want.Program()
			pk := propKey{src: src, opts: opts, key: ks[0].String(), k: ks[0], want: want,
				hash: prog.ContentHash(), blob: artifact.BlobKey(prog.ContentHash())}
			for _, st := range compiledPath(ks[0].root, want) {
				pk.path = append(pk.path, st.key)
				valid[st.key] = encodeNode(st.key, st.n)
			}
			valid[pk.blob] = artifact.EncodeProgram(prog)
			keys = append(keys, pk)
		}
	}
	if !slices.Equal(keys[0].path, keys[1].path) || keys[0].hash != keys[1].hash ||
		len(keys[0].path) != len(keys[2].path) || keys[0].path[0] == keys[2].path[0] || keys[0].hash == keys[2].hash {
		t.Fatal("cost siblings must share a path and a program, and the two sources must not")
	}
	if len(keys[0].path) < 2 || 2*len(keys[0].path) > nodesPerEntry*2 {
		t.Fatalf("a path of %d nodes: want an inner node, and room for both paths in the node memo", len(keys[0].path))
	}
	// A misfiled entry is the other source's entry at the same place.
	misfiled := map[string]string{keys[0].blob: keys[2].blob, keys[2].blob: keys[0].blob}
	for j := range keys[0].path {
		misfiled[keys[0].path[j]], misfiled[keys[2].path[j]] = keys[2].path[j], keys[0].path[j]
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
				runTierProperty(t, seed, setup.disk, setup.remote, setup.batch, keys, valid, misfiled)
			})
		}
	}
}

// getOutcome classifies a read: a hit, a corrupt entry (deleted when
// the tier returned bytes), or a plain miss.
func getOutcome(mode int) (hit, corrupt, deleted bool) {
	switch mode {
	case getHit:
		return true, false, false
	case getBadBytes, getMisfiled:
		return false, true, true
	case getErrCorrupt:
		return false, true, false
	}
	return false, false, false
}

// viewAnswer is the model of one read-ahead view answer: the scripted
// mode of the read Prefetch made, standing for its outcome.
type viewAnswer struct{ mode int }

func runTierProperty(t *testing.T, seed int64, disk, remote, batch bool, keys []propKey, valid map[string][]byte, misfiled map[string]string) {
	rng := rand.New(rand.NewSource(seed))
	const memCap = 2
	c := NewCache(memCap)
	// tiers[i] is nil when tier i is detached.
	var tiers [numTiers]*fakeTier
	attach := func(i int, set func(artifact.Store)) {
		f := &fakeTier{valid: valid, misfiled: misfiled}
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

	// Models of the memory tier (key indices) and the decoded-program
	// memo, most recent first and bounded like the cache's; of the
	// decoded-node memo (node key → the tier it was read from) and of
	// the entries each tier is known to hold, which these lookups never
	// fill past their bounds.
	mem := lruModel[int]{max: memCap}
	progs := lruModel[string]{max: memCap}
	memo := map[string]int{}
	held := map[entryAt]bool{}
	var model [numTiers]tierModel
	var compiles, blobDecodes, programHits uint64
	batchReads := 0
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
			f.badSeed = rng.Int63()
			for _, sc := range []*script{&f.node, &f.blob} {
				sc.getMode = rng.Intn(numGetModes)
				sc.putFail = rng.Intn(3) == 0
				sc.hasMode = rng.Intn(numHasModes)
			}
		}
		scriptOf := func(i int, key string) *script {
			if isBlobKey(key) {
				return &tiers[i].blob
			}
			return &tiers[i].node
		}
		kind := func(key string) string {
			if isBlobKey(key) {
				return "blob"
			}
			return "node"
		}

		want := make([][]string, numTiers)
		logOp := func(i int, op, key string) { want[i] = append(want[i], op+" "+kind(key)) }
		memHit := mem.has(ki)
		leaf := k.path[len(k.path)-1]

		// Model Prefetch: the run's view answers, per tier.
		views := [numTiers]map[string]viewAnswer{{}, {}}
		const absentAnswer = getMiss
		if batch && !memHit {
			near := disk && isChecker(diskTier)
			// probe returns whether the local tier holds key, and
			// whether it lacks it for sure.
			probe := func(key string) (holds, lacks bool) {
				if !near {
					return false, false
				}
				logOp(diskTier, "has", key)
				m := scriptOf(diskTier, key).hasMode
				return m == hasTrue, m == hasFalse
			}
			// fetch batch-reads key: the answer, or false when the batch failed.
			fetch := func(key string, lacks bool) (int, bool) {
				f := tiers[remoteTier]
				if f.batchFail {
					want[remoteTier] = append(want[remoteTier], "batchfail node")
					return 0, false
				}
				logOp(remoteTier, "batch", key)
				batchReads++
				if lacks {
					views[diskTier][key] = viewAnswer{absentAnswer}
				}
				return scriptOf(remoteTier, key).getMode, true
			}
			reached := true
			for _, key := range k.path {
				if src, ok := memo[key]; ok {
					// A leaf read from another tier is probed, as the
					// local tier's walk would read it again.
					if key == leaf && src != diskTier {
						if _, lacks := probe(key); lacks {
							views[diskTier][key] = viewAnswer{absentAnswer}
						}
					}
					continue
				}
				holds, lacks := probe(key)
				if holds {
					logOp(diskTier, "get", key)
					if m := scriptOf(diskTier, key).getMode; m == getHit {
						memo[key], held[entryAt{key, diskTier}] = diskTier, true
						continue
					} else {
						views[diskTier][key] = viewAnswer{m}
					}
					reached = false
					break
				}
				m, ok := fetch(key, lacks)
				if ok && m == getHit {
					memo[key], held[entryAt{key, remoteTier}] = remoteTier, true
					continue
				}
				if ok {
					views[remoteTier][key] = viewAnswer{m}
				}
				reached = false
				break
			}
			if reached && !progs.has(k.hash) {
				if holds, lacks := probe(k.blob); !holds {
					if m, ok := fetch(k.blob, lacks); ok {
						views[remoteTier][k.blob] = viewAnswer{m}
					}
				}
			}
		}

		// Model the lookup.
		from := numTiers // the tier that settles the lookup; numTiers = compile
		if !memHit {
			recalled := attached && progs.has(k.hash)
			for _, key := range k.path {
				if _, ok := memo[key]; !ok {
					recalled = false
				}
			}
			if recalled {
				from = memo[leaf]
				for i := range from {
					if tiers[i] != nil {
						model[i].misses++
					}
				}
				model[from].hits++
				programHits++
				progs.touch(k.hash)
			}
			// read is a read of key on tier i through the run's view:
			// its mode, and whether it was logged.
			read := func(i int, key string) int {
				if a, ok := views[i][key]; ok {
					if a.mode != absentAnswer {
						delete(views[i], key)
					}
					return a.mode
				}
				logOp(i, "get", key)
				return scriptOf(i, key).getMode
			}
			for i, f := range tiers {
				if f == nil || from < numTiers {
					continue
				}
				ok, corrupt := true, false
				for _, key := range k.path {
					if a, lacks := views[i][key]; lacks && a.mode == absentAnswer {
						ok = false
						break
					}
					// The leaf is read from this tier unless the memo
					// has it from here.
					src, in := memo[key]
					if in && (key != leaf || src == i) {
						continue
					}
					hit, bad, del := getOutcome(read(i, key))
					if del {
						logOp(i, "delete", key)
					}
					if !hit {
						ok, corrupt = false, bad
						break
					}
					if !in {
						memo[key] = i
					}
					held[entryAt{key, i}] = true
				}
				if ok {
					if progs.has(k.hash) {
						progs.touch(k.hash)
						programHits++
					} else {
						hit, bad, del := getOutcome(read(i, k.blob))
						if del {
							logOp(i, "delete", k.blob)
						}
						if hit {
							blobDecodes++
							progs.touch(k.hash)
							held[entryAt{k.blob, i}] = true
						}
						ok, corrupt = hit, bad
					}
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
			if attached {
				progs.touch(k.hash)
				entries := []string{k.blob}
				for j := len(k.path) - 1; j >= 0; j-- {
					entries = append(entries, k.path[j])
				}
				for i, f := range tiers {
					if f == nil || i == from {
						continue
					}
					probe := i > from && isChecker(i)
					for _, key := range entries {
						if held[entryAt{key, i}] {
							continue
						}
						sc := scriptOf(i, key)
						if probe {
							logOp(i, "has", key)
							if sc.hasMode == hasErr {
								break
							}
							if sc.hasMode == hasTrue {
								held[entryAt{key, i}] = true
								continue
							}
						}
						logOp(i, "put", key)
						if sc.putFail {
							model[i].storeErrors++
							break
						}
						held[entryAt{key, i}] = true
					}
				}
			}
		}
		mem.touch(ki)

		run := c
		if batch {
			run = c.Prefetch([]Want{{Key: k.k}})
		}
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
			if !reflect.DeepEqual(f.log, want[i]) {
				fail("tier %d (node get/has %d/%d, blob get/has %d/%d, checker %v, batch fails %v) saw calls %v, want %v",
					i, f.node.getMode, f.node.hasMode, f.blob.getMode, f.blob.hasMode, isChecker(i), f.batchFail, f.log, want[i])
			}
			for _, p := range f.puts {
				if string(p.data) != string(valid[p.key]) {
					fail("tier %d was offered bytes under %s other than the entry's", i, p.key)
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
	if batch && batchReads == 0 {
		t.Fatalf("seed %d: no lookup was read ahead", seed)
	}
}

// tierModel is the test's own account of one tier's counters.
type tierModel struct{ hits, misses, decodeErrors, storeErrors uint64 }

// countingStore counts the Gets a disk store sees, by kind of key.
type countingStore struct {
	*artifact.DiskStore
	mu   sync.Mutex
	gets map[string]int // by "node", "blob" or "events"
}

func (c *countingStore) Get(key string) ([]byte, error) {
	kind := "node"
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
// miniature over a fresh local tier: Prefetch probes each trie node
// there, finds it absent and batch-reads it from the origin, and the
// lookups then walk what it read without reading the local tier. Each still counts a local miss, and the entries they
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
	if got := local.gets["node"]; got != 0 {
		t.Errorf("the local tier saw %d trie node Gets after Prefetch found every node absent, want 0", got)
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
