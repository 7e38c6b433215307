package mat2c

import (
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

// Scripted outcomes of one store Get.
const (
	getMiss       = iota // clean miss (ErrNotFound)
	getHit               // the key's valid encoding
	getBadBytes          // bytes that fail to decode under the key
	getErrCorrupt        // the store itself reports corrupt bytes
	getOutage            // any other error: outage, open breaker
	numGetModes
)

// Scripted outcomes of one Has probe.
const (
	hasFalse = iota
	hasTrue
	hasErr
	numHasModes
)

// fakeTier is an artifact.Store whose every answer is scripted by the
// test before each lookup; it logs the calls it receives. checkerTier
// adds Has.
type fakeTier struct {
	mu      sync.Mutex
	getMode int
	getData []byte // returned for getHit and getBadBytes
	putFail bool
	hasMode int
	log     []string
	puts    [][]byte
}

func (f *fakeTier) record(op string) {
	f.mu.Lock()
	f.log = append(f.log, op)
	f.mu.Unlock()
}

func (f *fakeTier) Get(key string) ([]byte, error) {
	f.record("get")
	switch f.getMode {
	case getMiss:
		return nil, fmt.Errorf("fake: %w", artifact.ErrNotFound)
	case getErrCorrupt:
		return nil, fmt.Errorf("fake: %w: bad frame", artifact.ErrCorrupt)
	case getOutage:
		return nil, errors.New("fake: unavailable")
	}
	return append([]byte(nil), f.getData...), nil
}

func (f *fakeTier) Put(key string, data []byte) error {
	f.record("put")
	f.mu.Lock()
	f.puts = append(f.puts, data)
	f.mu.Unlock()
	if f.putFail {
		return errors.New("fake: put failed")
	}
	return nil
}

func (f *fakeTier) Delete(key string) error { f.record("delete"); return nil }
func (f *fakeTier) Len() (int, error)       { return 0, nil }

type checkerTier struct{ *fakeTier }

func (c checkerTier) Has(key string) (bool, error) {
	c.record("has")
	switch c.hasMode {
	case hasTrue:
		return true, nil
	case hasErr:
		return false, errors.New("fake: unavailable")
	}
	return false, nil
}

// propKey is one distinct compilation the property test looks up, with
// its fresh-compile reference.
type propKey struct {
	src, key string
	want     *Result
	enc      []byte
}

// tierModel is the test's own account of one tier's counters.
type tierModel struct{ hits, misses, decodeErrors, storeErrors uint64 }

// TestTierResolutionProperty drives seeded random lookup sequences
// through every tier setup against scripted stores, and checks each
// lookup against a model of tier resolution: probe nearest first, any
// store failure is a miss, undecodable bytes are deleted, and whatever
// settles the lookup is offered to the other tiers — a plain Put to the
// nearer ones (they just missed), Has before Put to the deeper ones
// (they were never asked), Put everywhere after a compile.
func TestTierResolutionProperty(t *testing.T) {
	opts := Options{Target: "dspasip"}
	const nkeys = 4
	keys := make([]propKey, nkeys)
	for i := range keys {
		src := fmt.Sprintf("function y = prop(x, a)\ny = a .* x + %d;\nend", i+1)
		key, err := CacheKey(src, "prop", cacheTestParams, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Compile(src, "prop", cacheTestParams, opts)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = propKey{src: src, key: key, want: want, enc: encodeArtifact(key, want)}
	}
	setups := []struct {
		name         string
		disk, remote bool
	}{{"none", false, false}, {"disk", true, false}, {"remote", false, true}, {"both", true, true}}
	for _, setup := range setups {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", setup.name, seed), func(t *testing.T) {
				runTierProperty(t, seed, setup.disk, setup.remote, keys, opts)
			})
		}
	}
}

func runTierProperty(t *testing.T, seed int64, disk, remote bool, keys []propKey, opts Options) {
	rng := rand.New(rand.NewSource(seed))
	const memCap = 2
	c := NewCache(memCap)
	// tiers[i] is nil when tier i is detached.
	var tiers [numTiers]*fakeTier
	attach := func(i int, set func(artifact.Store)) {
		f := &fakeTier{}
		tiers[i] = f
		if rng.Intn(2) == 0 {
			set(checkerTier{f})
		} else {
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

	var mem []int // model of the memory tier: key indices, most recent first
	var model [numTiers]tierModel
	var compiles uint64
	for step := 0; step < 40; step++ {
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
			f.getMode = rng.Intn(numGetModes)
			f.putFail = rng.Intn(3) == 0
			f.hasMode = rng.Intn(numHasModes)
			switch f.getMode {
			case getHit:
				f.getData = k.enc
			case getBadBytes:
				f.getData = corruptEncoding(rng, k, keys[(ki+1)%len(keys)])
			}
		}

		// Model the lookup.
		want := make([][]string, numTiers)
		memHit := false
		for j, m := range mem {
			if m == ki {
				memHit = true
				mem = append(mem[:j], mem[j+1:]...)
				break
			}
		}
		from := numTiers // the tier that settles the lookup; numTiers = compile
		if !memHit {
			for i, f := range tiers {
				if f == nil || from < numTiers {
					continue
				}
				want[i] = append(want[i], "get")
				switch f.getMode {
				case getHit:
					model[i].hits++
					from = i
				case getBadBytes:
					want[i] = append(want[i], "delete")
					model[i].misses++
					model[i].decodeErrors++
				case getErrCorrupt:
					model[i].misses++
					model[i].decodeErrors++
				default:
					model[i].misses++
				}
			}
			if from == numTiers {
				compiles++
			}
			for i, f := range tiers {
				if f == nil || i == from {
					continue
				}
				if i > from && isChecker(i) {
					want[i] = append(want[i], "has")
					if f.hasMode != hasFalse {
						continue
					}
				}
				want[i] = append(want[i], "put")
				if f.putFail {
					model[i].storeErrors++
				}
			}
		}
		mem = append([]int{ki}, mem...)
		if len(mem) > memCap {
			mem = mem[:memCap]
		}

		res, hit, err := CompileCached(c, k.src, "prop", cacheTestParams, opts)
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
		if got, w := res.res.Program.ContentHash(), k.want.res.Program.ContentHash(); got != w {
			fail("program hash %s, want %s", got, w)
		}
		for i, f := range tiers {
			if f == nil {
				continue
			}
			if !reflect.DeepEqual(f.log, want[i]) {
				fail("tier %d (get mode %d, has mode %d, checker %v) saw calls %v, want %v",
					i, f.getMode, f.hasMode, isChecker(i), f.log, want[i])
			}
			for _, data := range f.puts {
				if from < numTiers && string(data) != string(k.enc) {
					fail("tier %d was offered bytes other than the verified entry", i)
				}
				if got, err := decodeArtifact(data, k.key, opts); err != nil || got.CSource() != k.want.CSource() {
					fail("tier %d was offered an entry that does not restore the artifact: %v", i, err)
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
		if st.Entries != len(mem) {
			fail("%d entries in memory, model %d", st.Entries, len(mem))
		}
	}
}

// corruptEncoding returns bytes that must fail to decode under k.key:
// a flipped byte, a truncation, or another key's valid entry.
func corruptEncoding(rng *rand.Rand, k, other propKey) []byte {
	b := append([]byte(nil), k.enc...)
	switch rng.Intn(3) {
	case 0:
		b[rng.Intn(len(b))] ^= 0x40
		return b
	case 1:
		return b[:rng.Intn(len(b))]
	}
	return other.enc
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
