package bench

import (
	"context"
	"errors"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	mat2c "mat2c"
	"mat2c/internal/artifact"
	"mat2c/internal/artifact/remote"
	"mat2c/internal/ir"
	"mat2c/internal/pdesc"
	"mat2c/internal/vm"
)

// Stored run events, tier by tier: Simulate behind a cache with store
// tiers prices from a stored verified run when one is sound, and
// otherwise simulates, verifies and stores exactly as without one.

// scriptedStore wraps one tier's store. While down, every call fails
// as an outage would; deletes records the keys the cache deleted.
type scriptedStore struct {
	artifact.Store
	down bool

	mu      sync.Mutex
	deleted []string
}

var errOutage = errors.New("scripted outage")

func (s *scriptedStore) Get(key string) ([]byte, error) {
	if s.down {
		return nil, errOutage
	}
	return s.Store.Get(key)
}

func (s *scriptedStore) Put(key string, data []byte) error {
	if s.down {
		return errOutage
	}
	return s.Store.Put(key, data)
}

func (s *scriptedStore) Delete(key string) error {
	s.mu.Lock()
	s.deleted = append(s.deleted, key)
	s.mu.Unlock()
	if s.down {
		return errOutage
	}
	return s.Store.Delete(key)
}

func (s *scriptedStore) Has(key string) (bool, error) {
	if s.down {
		return false, errOutage
	}
	return s.Store.(artifact.Checker).Has(key)
}

// eventTier is one tier position and how a test stands it up: the
// store the cache talks to, the disk store behind it (itself for the
// disk tier, the origin's for the remote), and how a cache attaches it.
type eventTier struct {
	name  string
	open  func(t *testing.T) (client artifact.Store, backing *artifact.DiskStore)
	apply func(c *mat2c.Cache, s artifact.Store)
}

func openDisk(t *testing.T) *artifact.DiskStore {
	t.Helper()
	s, err := artifact.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var eventTiers = []eventTier{
	{
		name: "disk",
		open: func(t *testing.T) (artifact.Store, *artifact.DiskStore) {
			s := openDisk(t)
			return s, s
		},
		apply: (*mat2c.Cache).SetStore,
	},
	{
		name: "remote",
		open: func(t *testing.T) (artifact.Store, *artifact.DiskStore) {
			origin := openDisk(t)
			ts := httptest.NewServer(remote.NewServer(origin, 0).Handler())
			t.Cleanup(ts.Close)
			return remote.New(ts.URL+"/artifact", remote.Options{}), origin
		},
		apply: (*mat2c.Cache).SetRemoteStore,
	},
}

// newTierCache returns a cache whose only store tier is tier over
// client, wrapped so the test can script it.
func newTierCache(tier eventTier, client artifact.Store) (*mat2c.Cache, *scriptedStore) {
	s := &scriptedStore{Store: client}
	c := mat2c.NewCache(0)
	tier.apply(c, s)
	return c, s
}

// eventsKey is where Simulate files k's events for prog at size n.
func eventsKey(k *Kernel, prog *vm.Program, n int) string {
	return artifact.EventsKey(prog.ContentHash(), k.Case(n).Digest())
}

// simulateIn runs one Simulate through c and waits for its writes.
func simulateIn(t *testing.T, c *mat2c.Cache, k *Kernel, m *vm.Machine, prog *vm.Program, n int) error {
	t.Helper()
	_, err := k.Simulate(context.Background(), c, m, prog, n)
	c.Flush()
	return err
}

// pricedIn runs one Simulate through c, which must price the run from
// stored or memoized events without running the program, and waits
// for c's writes.
func pricedIn(t *testing.T, c *mat2c.Cache, k *Kernel, m *vm.Machine, prog *vm.Program, n int) {
	t.Helper()
	ctx := doneCalls{context.Background(), make(chan struct{}, 1)}
	if _, err := k.Simulate(ctx, c, m, prog, n); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	if len(ctx.calls) != 0 {
		t.Error("the call ran the program instead of pricing it")
	}
}

// eventCounts returns c's run-events counters: lookups the memo served,
// lookups a tier served, simulations, and entries written to a tier.
func eventCounts(c *mat2c.Cache) [4]uint64 {
	st := c.Stats()
	return [4]uint64{st.EventMemoHits, st.EventHits, st.EventMisses, st.EventPuts}
}

// TestStoredEventsPriceWithoutSimulating: a verified run's events,
// written through one cache, let a second cache over the same tier
// price the run without simulating, with a fresh run's accounting.
func TestStoredEventsPriceWithoutSimulating(t *testing.T) {
	k, prog, proc := memoProgram(t, "fir", "dspasip")
	const n = 64
	want, err := freshRun(t, k, prog, proc, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range eventTiers {
		t.Run(tier.name, func(t *testing.T) {
			client, backing := tier.open(t)
			c1, _ := newTierCache(tier, client)
			if err := simulateIn(t, c1, k, vm.NewMachine(proc), prog, n); err != nil {
				t.Fatal(err)
			}
			if got := eventCounts(c1); got != [4]uint64{0, 0, 1, 1} {
				t.Errorf("first cache: event memo hits/hits/misses/puts = %v, want [0 0 1 1]", got)
			}
			if has, _ := backing.Has(eventsKey(k, prog, n)); !has {
				t.Fatal("verified run stored no events")
			}
			c2, _ := newTierCache(tier, client)
			m := vm.NewMachine(proc)
			pricedIn(t, c2, k, m, prog, n)
			assertSameAccounting(t, "priced from the store", m, want)
			if got := eventCounts(c2); got != [4]uint64{0, 1, 0, 0} {
				t.Errorf("second cache: event memo hits/hits/misses/puts = %v, want [0 1 0 0]", got)
			}
			if st := c2.Stats(); st.Misses != 0 || st.DiskHits+st.RemoteHits+st.DiskMisses+st.RemoteMisses != 0 {
				t.Errorf("events lookups moved the compile counters: %+v", st)
			}
		})
	}
}

// TestStoredEventsFailuresResimulate scripts each way a stored entry
// can be unusable, on each tier: the caller simulates, verifies and
// gets a fresh run's accounting; bad bytes are deleted and replaced by
// the fresh run's events.
func TestStoredEventsFailuresResimulate(t *testing.T) {
	k, prog, proc := memoProgram(t, "fir", "dspasip")
	const n, other = 64, 80
	want, err := freshRun(t, k, prog, proc, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	failures := []struct {
		name string
		// spoil damages the entry stored under key; bad reports
		// whether the cache should find bad bytes and delete them.
		spoil func(t *testing.T, backing *artifact.DiskStore, s *scriptedStore, key string)
		bad   bool
	}{
		{"missing", func(t *testing.T, b *artifact.DiskStore, _ *scriptedStore, key string) {
			if err := b.Delete(key); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"bad bytes", func(t *testing.T, b *artifact.DiskStore, _ *scriptedStore, key string) {
			data, err := b.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x40
			if err := b.Put(key, data); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"misfiled", func(t *testing.T, b *artifact.DiskStore, _ *scriptedStore, key string) {
			// The sound events of the same program on another case.
			data, err := b.Get(eventsKey(k, prog, other))
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Put(key, data); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"outage", func(t *testing.T, _ *artifact.DiskStore, s *scriptedStore, _ string) {
			s.down = true
		}, false},
	}
	for _, tier := range eventTiers {
		for _, f := range failures {
			t.Run(tier.name+"/"+f.name, func(t *testing.T) {
				client, backing := tier.open(t)
				c1, _ := newTierCache(tier, client)
				for _, size := range []int{n, other} {
					if err := simulateIn(t, c1, k, vm.NewMachine(proc), prog, size); err != nil {
						t.Fatal(err)
					}
				}
				key := eventsKey(k, prog, n)
				stored, err := backing.Get(key)
				if err != nil {
					t.Fatal(err)
				}

				c2, s2 := newTierCache(tier, client)
				f.spoil(t, backing, s2, key)
				m := vm.NewMachine(proc)
				if err := simulateIn(t, c2, k, m, prog, n); err != nil {
					t.Fatalf("simulate over a spoiled entry: %v", err)
				}
				assertSameAccounting(t, "re-simulated", m, want)
				puts := uint64(1)
				if f.name == "outage" {
					puts = 0
				}
				if got := eventCounts(c2); got != [4]uint64{0, 0, 1, puts} {
					t.Errorf("event memo hits/hits/misses/puts = %v, want [0 0 1 %d]", got, puts)
				}
				if got := slices.Contains(s2.deleted, key); got != f.bad {
					t.Errorf("entry deleted = %v, want %v", got, f.bad)
				}
				if f.name == "outage" {
					return
				}
				// The fresh run's events replaced whatever was there.
				if got, err := backing.Get(key); err != nil || string(got) != string(stored) {
					t.Errorf("entry after the re-simulation: err %v, equal to the verified run's %v", err, string(got) == string(stored))
				}
			})
		}
	}
}

// TestStoredEventsNeverSkipVerification: a kernel double whose
// reference disagrees with the program fails verification on every
// cache over a store that holds the real kernel's verified events, and
// its failed runs write nothing.
func TestStoredEventsNeverSkipVerification(t *testing.T) {
	k, prog, proc := memoProgram(t, "fir", "dspasip")
	const n = 48
	for _, tier := range eventTiers {
		t.Run(tier.name, func(t *testing.T) {
			client, backing := tier.open(t)
			c, _ := newTierCache(tier, client)
			if err := simulateIn(t, c, k, vm.NewMachine(proc), prog, n); err != nil {
				t.Fatal(err)
			}
			double := *k
			double.Reference = func(args []interface{}) []interface{} {
				y := firRef(args)
				y[0].(*ir.Array).F[3] += 1
				return y
			}
			for i := 0; i < 2; i++ {
				ci, _ := newTierCache(tier, client)
				err := simulateIn(t, ci, &double, vm.NewMachine(proc), prog, n)
				var verr *VerifyError
				if !errors.As(err, &verr) {
					t.Fatalf("cache %d: %v, want a *VerifyError", i, err)
				}
				if got := eventCounts(ci); got[3] != 0 {
					t.Errorf("cache %d: a run that failed verification wrote %d events entries", i, got[3])
				}
			}
			if n, _ := backing.Len(); n != 1 {
				t.Errorf("store holds %d entries, want only the real kernel's events", n)
			}
		})
	}
}

// TestStoredEventsOnlyFromCompletedRuns: a run that faults on a
// missing intrinsic writes no events, and neither does one whose cycle
// limit falls inside its last block: the compiled engine hands that
// block to the reference interpreter, which completes the run (the
// limit is checked before each instruction) with no events to give.
func TestStoredEventsOnlyFromCompletedRuns(t *testing.T) {
	k, prog, proc := memoProgram(t, "fir", "dspasip")
	const n = 48
	full, err := freshRun(t, k, prog, proc, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	lacking := proc.Clone()
	lacking.Instructions = slices.DeleteFunc(slices.Clone(lacking.Instructions), func(in pdesc.Instr) bool {
		return full.ClassCounts[in.Name] > 0
	})
	if len(lacking.Instructions) == len(proc.Instructions) {
		t.Fatal("fir selected no custom instruction to remove")
	}
	limited := vm.NewMachine(proc)
	limited.MaxCycles = full.Cycles - 1
	for name, tc := range map[string]struct {
		m     *vm.Machine
		fault bool
	}{
		"missing intrinsic": {vm.NewMachine(lacking), true},
		"handed-off tail":   {limited, false},
	} {
		t.Run(name, func(t *testing.T) {
			client, backing := eventTiers[0].open(t)
			c, _ := newTierCache(eventTiers[0], client)
			if err := simulateIn(t, c, k, tc.m, prog, n); (err != nil) != tc.fault {
				t.Fatalf("err = %v, want a fault: %v", err, tc.fault)
			}
			if !tc.fault {
				assertSameAccounting(t, "handed-off run", tc.m, full)
			}
			if got := eventCounts(c); got != [4]uint64{0, 0, 1, 0} {
				t.Errorf("event memo hits/hits/misses/puts = %v, want [0 0 1 0]", got)
			}
			if n, _ := backing.Len(); n != 0 {
				t.Errorf("the run left %d store entries", n)
			}
		})
	}
}

// TestEventsNeedStoreTiers: behind a cache with no store tiers, the
// first call simulates and the second is priced from the events memo;
// nothing is written anywhere.
func TestEventsNeedStoreTiers(t *testing.T) {
	k, prog, proc := memoProgram(t, "fir", "dspasip")
	const n = 40
	want, err := freshRun(t, k, prog, proc, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := mat2c.NewCache(0)
	m := vm.NewMachine(proc)
	if err := simulateIn(t, c, k, m, prog, n); err != nil {
		t.Fatal(err)
	}
	assertSameAccounting(t, "no store tiers", m, want)
	m = vm.NewMachine(proc)
	pricedIn(t, c, k, m, prog, n)
	assertSameAccounting(t, "priced from the memo", m, want)
	if got := eventCounts(c); got != [4]uint64{1, 0, 1, 0} {
		t.Errorf("event memo hits/hits/misses/puts = %v, want [1 0 1 0]", got)
	}
}

// TestStoredEventsCrossTiers: events a disk-only process cannot see are
// read from the remote and written to the local disk, where the next
// process finds them.
func TestStoredEventsCrossTiers(t *testing.T) {
	k, prog, proc := memoProgram(t, "cfir", "dspasip")
	const n = 64
	remoteClient, origin := eventTiers[1].open(t)
	c1, _ := newTierCache(eventTiers[1], remoteClient)
	if err := simulateIn(t, c1, k, vm.NewMachine(proc), prog, n); err != nil {
		t.Fatal(err)
	}
	disk := openDisk(t)
	c2 := mat2c.NewCache(0)
	c2.SetStore(disk)
	c2.SetRemoteStore(remoteClient)
	pricedIn(t, c2, k, vm.NewMachine(proc), prog, n)
	if got := eventCounts(c2); got != [4]uint64{0, 1, 0, 1} {
		t.Errorf("disk and remote cache: event memo hits/hits/misses/puts = %v, want [0 1 0 1]", got)
	}
	key := eventsKey(k, prog, n)
	want, _ := origin.Get(key)
	if got, err := disk.Get(key); err != nil || string(got) != string(want) {
		t.Errorf("remote hit not written to the local disk: err %v", err)
	}
	c3 := mat2c.NewCache(0)
	c3.SetStore(disk)
	pricedIn(t, c3, k, vm.NewMachine(proc), prog, n)
	if got := eventCounts(c3); got != [4]uint64{0, 1, 0, 0} {
		t.Errorf("disk-only cache: event memo hits/hits/misses/puts = %v, want [0 1 0 0]", got)
	}
}

// TestStoredEventsConcurrent: sweep workers share one cache; concurrent
// callers of one key share one events lookup, and the tier ends up
// holding each distinct run once, which a second cache prices from.
func TestStoredEventsConcurrent(t *testing.T) {
	k, prog, proc := memoProgram(t, "fir", "dspasip")
	sizes := []int{40, 56}
	disk := openDisk(t)
	const callers = 8
	for round, simulations := range []uint64{2, 0} {
		c := mat2c.NewCache(0)
		c.SetStore(disk)
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				if _, err := k.Simulate(context.Background(), c, vm.NewMachine(proc), prog, n); err != nil {
					t.Error(err)
				}
			}(sizes[i%len(sizes)])
		}
		wg.Wait()
		c.Flush()
		want := [4]uint64{callers - 2, 2 - simulations, simulations, simulations}
		if got := eventCounts(c); got != want {
			t.Errorf("round %d: event memo hits/hits/misses/puts = %v, want %v", round, got, want)
		}
	}
	if n, _ := disk.Len(); n != len(sizes) {
		t.Errorf("store holds %d entries, want %d", n, len(sizes))
	}
}
