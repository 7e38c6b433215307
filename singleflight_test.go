package mat2c

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mat2c/internal/artifact"
	"mat2c/internal/core"
	"mat2c/internal/vm"
)

const sfSrc = "function y = sf(x, a)\ny = a .* x + 2;\nend"

func sfTypes(t *testing.T) []Type {
	t.Helper()
	types, err := ParseTypes("real(1,:), real")
	if err != nil {
		t.Fatal(err)
	}
	return types
}

// assertStatsConsistent pins the miss-accounting invariant: a miss is
// counted exactly once per logical lookup, at the point it resolves, so
// the resolution counters must add up exactly — no matter how many
// times the retry loop re-probed the key or how the flights interleaved.
func assertStatsConsistent(t *testing.T, c *Cache) {
	t.Helper()
	st := c.Stats()
	if st.Misses != st.Compiles+st.DiskHits+st.FlightWaits {
		t.Errorf("stats inconsistent: misses=%d, want compiles(%d) + disk_hits(%d) + flight_waits(%d) = %d",
			st.Misses, st.Compiles, st.DiskHits, st.FlightWaits, st.Compiles+st.DiskHits+st.FlightWaits)
	}
}

// blockingStore is an artifact.Store whose Get parks until the test
// releases it, pinning the flight leader inside the disk tier so
// followers provably arrive while the compilation is in progress.
type blockingStore struct {
	gets chan chan struct{} // each Get sends its release channel
}

func newBlockingStore() *blockingStore {
	return &blockingStore{gets: make(chan chan struct{}, 16)}
}

func (s *blockingStore) Get(key string) ([]byte, error) {
	release := make(chan struct{})
	s.gets <- release
	<-release
	return nil, fmt.Errorf("blockingStore: %w", artifact.ErrNotFound)
}

func (s *blockingStore) Put(key string, data []byte) error { return nil }
func (s *blockingStore) Delete(key string) error           { return nil }
func (s *blockingStore) Len() (int, error)                 { return 0, nil }

// awaitGet returns the release channel of the next Get call.
func (s *blockingStore) awaitGet(t *testing.T) chan struct{} {
	t.Helper()
	select {
	case ch := <-s.gets:
		return ch
	case <-time.After(10 * time.Second):
		t.Fatal("store.Get was never called")
		return nil
	}
}

// awaitJoins makes c report each caller that joins a flight (starts
// waiting on another caller's resolution of its key) and returns a
// function that blocks until n more have joined.
func awaitJoins(t *testing.T, c *Cache) func(n int) {
	joins := make(chan struct{}, 64) // beyond any test's joins: the hook never blocks
	c.mem.OnWait(func(string) { joins <- struct{}{} })
	return func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case <-joins:
			case <-time.After(10 * time.Second):
				t.Fatalf("only %d of %d callers joined the flight", i, n)
			}
		}
	}
}

// TestSingleflightSharesOneCompile parks the leader in the disk tier,
// piles followers onto the same key, and asserts exactly one pipeline
// run served every caller with one shared artifact.
func TestSingleflightSharesOneCompile(t *testing.T) {
	cache := NewCache(8)
	store := newBlockingStore()
	cache.SetStore(store)
	awaitJoined := awaitJoins(t, cache)
	types := sfTypes(t)

	const followers = 8
	results := make(chan *Result, followers+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, _, err := CompileCached(cache, sfSrc, "sf", types, Options{})
		if err != nil {
			t.Error(err)
			return
		}
		results <- res
	}()
	release := store.awaitGet(t) // leader is now mid-miss

	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, hit, err := CompileCached(cache, sfSrc, "sf", types, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			if !hit {
				t.Error("follower reported hit=false")
			}
			results <- res
		}()
	}
	// Wait until every follower has joined the flight, then let the
	// leader proceed (disk miss -> compile).
	awaitJoined(followers)
	close(release)
	wg.Wait()
	close(results)

	st := cache.Stats()
	if st.Compiles != 1 {
		t.Errorf("Compiles = %d, want 1 (singleflight)", st.Compiles)
	}
	if st.FlightWaits != followers {
		t.Errorf("FlightWaits = %d, want %d", st.FlightWaits, followers)
	}
	var first *Result
	n := 0
	for res := range results {
		if first == nil {
			first = res
		} else if res != first {
			t.Error("callers received distinct Result pointers")
		}
		n++
	}
	if n != followers+1 {
		t.Errorf("%d callers returned, want %d", n, followers+1)
	}
	assertStatsConsistent(t, cache)
}

// TestSingleflightFollowerHonorsOwnContext: a follower waiting on
// another caller's compilation must still unblock when its own context
// is cancelled, without disturbing the leader.
func TestSingleflightFollowerHonorsOwnContext(t *testing.T) {
	cache := NewCache(8)
	store := newBlockingStore()
	cache.SetStore(store)
	awaitJoined := awaitJoins(t, cache)
	types := sfTypes(t)

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := CompileCached(cache, sfSrc, "sf", types, Options{})
		leaderDone <- err
	}()
	release := store.awaitGet(t)

	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, _, err := CompileCachedContext(ctx, cache, sfSrc, "sf", types, Options{})
		followerDone <- err
	}()
	awaitJoined(1)
	cancel()
	if err := <-followerDone; !errors.Is(err, context.Canceled) {
		t.Errorf("follower err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Errorf("leader err = %v", err)
	}
	// The follower left on its own context: it shared nothing and
	// counts neither a miss nor a flight wait.
	if st := cache.Stats(); st.Compiles != 1 || st.Misses != 1 || st.FlightWaits != 0 {
		t.Errorf("compiles=%d misses=%d flight_waits=%d, want 1, 1 and 0", st.Compiles, st.Misses, st.FlightWaits)
	}
	assertStatsConsistent(t, cache)
}

// TestSingleflightLeaderCancellationRetries: when the leader's own
// context dies mid-compile, followers must not inherit its
// cancellation error — one of them retries, becomes leader, and
// compiles.
func TestSingleflightLeaderCancellationRetries(t *testing.T) {
	cache := NewCache(8)
	store := newBlockingStore()
	cache.SetStore(store)
	awaitJoined := awaitJoins(t, cache)
	types := sfTypes(t)

	lctx, lcancel := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := CompileCachedContext(lctx, cache, sfSrc, "sf", types, Options{})
		leaderDone <- err
	}()
	release := store.awaitGet(t)

	followerDone := make(chan error, 1)
	go func() {
		res, hit, err := CompileCached(cache, sfSrc, "sf", types, Options{})
		if err == nil && res == nil {
			err = errors.New("nil result")
		}
		_ = hit
		followerDone <- err
	}()
	awaitJoined(1)

	// Kill the leader's context, then let its disk lookup return: the
	// pipeline observes the dead context and the flight is marked
	// cancelled, sending the follower around for another attempt (whose
	// own disk lookup must also be released).
	lcancel()
	close(release)
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Errorf("leader err = %v, want context.Canceled", err)
	}
	close(store.awaitGet(t)) // follower's retry hits the disk tier
	if err := <-followerDone; err != nil {
		t.Errorf("follower err = %v, want success after retry", err)
	}
	if st := cache.Stats(); st.Compiles != 1 {
		t.Errorf("Compiles = %d, want 1 (only the retrying follower compiled)", st.Compiles)
	}
	// The retrying follower went round and compiled: one compile, no
	// flight wait.
	assertStatsConsistent(t, cache)
}

// TestSingleflightSharesDeterministicErrors: a compile error that is
// not the leader's cancellation is the input's fault and is shared
// with followers rather than recompiled.
func TestSingleflightSharesDeterministicErrors(t *testing.T) {
	cache := NewCache(8)
	store := newBlockingStore()
	cache.SetStore(store)
	awaitJoined := awaitJoins(t, cache)
	types := sfTypes(t)
	bad := "function y = sf(x, a)\ny = undefined_fn(x);\nend"

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := CompileCached(cache, bad, "sf", types, Options{})
		leaderDone <- err
	}()
	release := store.awaitGet(t)
	followerDone := make(chan error, 1)
	go func() {
		_, _, err := CompileCached(cache, bad, "sf", types, Options{})
		followerDone <- err
	}()
	awaitJoined(1)
	close(release)
	lerr, ferr := <-leaderDone, <-followerDone
	if lerr == nil || ferr == nil {
		t.Fatalf("expected compile errors, got leader=%v follower=%v", lerr, ferr)
	}
	if lerr.Error() != ferr.Error() {
		t.Errorf("follower error %q differs from leader's %q", ferr, lerr)
	}
	if st := cache.Stats(); st.Compiles != 0 {
		t.Errorf("Compiles = %d, want 0 (errors are not cached but also not recompiled by followers)", st.Compiles)
	}
	// A failed compile resolves nothing, for its leader and the
	// follower that shared its error alike.
	if st := cache.Stats(); st.Misses != 0 || st.FlightWaits != 0 {
		t.Errorf("misses=%d flight_waits=%d, want 0 and 0", st.Misses, st.FlightWaits)
	}
	assertStatsConsistent(t, cache)
}

// TestSingleflightPanicEndsFlight: a compile that panics (once, through
// the compile driver's test hook) ends its flight, so the next lookup
// of the key compiles instead of waiting on a flight nobody leads.
func TestSingleflightPanicEndsFlight(t *testing.T) {
	// A source no other test compiles, and memos emptied of an earlier
	// pass's compile of it (-count), so the compile is not served from
	// the process-wide back-half memo and reaches the hook.
	const src = "function y = sfpanic(x, a)\ny = a .* x + 3;\nend"
	core.ResetMemos()
	panics := 1
	t.Cleanup(core.SetBackHooks(func() error {
		if panics > 0 {
			panics--
			panic("compile bug")
		}
		return nil
	}, nil))
	cache := NewCache(8)
	types := sfTypes(t)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the first compile did not panic")
			}
		}()
		CompileCached(cache, src, "sfpanic", types, Options{})
	}()

	// Without the fix this lookup joins the dead flight and waits out
	// its whole context.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, hit, err := CompileCachedContext(ctx, cache, src, "sfpanic", types, Options{})
	if err != nil || hit || res == nil {
		t.Fatalf("lookup after the panic: hit=%v err=%v", hit, err)
	}
	if st := cache.Stats(); st.Compiles != 1 || st.FlightWaits != 0 {
		t.Errorf("compiles=%d flight_waits=%d, want 1 and 0", st.Compiles, st.FlightWaits)
	}
	assertStatsConsistent(t, cache)
}

// TestEventsConcurrentLookupsShareOneOutcome: concurrent events lookups
// of one key share one simulation's outcome. A failed simulation is
// shared with the callers that waited on it but never stored, so the
// next lookup simulates again; a sound one serves every later lookup
// from the events memo.
func TestEventsConcurrentLookupsShareOneOutcome(t *testing.T) {
	res, err := Compile(sfSrc, "sf", sfTypes(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, want := res.Program(), &vm.Events{}
	c := NewCache(8)
	waits := make(chan struct{}, 8) // beyond the test's waits: the hook never blocks
	c.events.OnWait(func(string) { waits <- struct{}{} })
	errRun := errors.New("the run faulted")
	const followers = 3
	for _, fail := range []bool{true, false} {
		started, release := make(chan struct{}), make(chan struct{})
		leader := make(chan error, 1)
		go func() {
			_, simulated, err := c.Events(context.Background(), prog, "case", func() (*vm.Events, error) {
				close(started)
				<-release
				if fail {
					return nil, errRun
				}
				return want, nil
			})
			if !simulated {
				t.Error("the leader did not simulate")
			}
			leader <- err
		}()
		<-started
		var wg sync.WaitGroup
		for i := 0; i < followers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ev, simulated, err := c.Events(context.Background(), prog, "case", func() (*vm.Events, error) {
					t.Error("a follower simulated")
					return nil, errRun
				})
				if simulated || fail && err != errRun || !fail && (err != nil || ev != want) {
					t.Errorf("follower (failing run %v): events %p, simulated %v, err %v", fail, ev, simulated, err)
				}
			}()
		}
		for i := 0; i < followers; i++ {
			select {
			case <-waits:
			case <-time.After(10 * time.Second):
				t.Fatalf("only %d of %d followers waited", i, followers)
			}
		}
		close(release)
		wg.Wait()
		if err := <-leader; fail != (err == errRun) {
			t.Fatalf("leader (failing run %v): %v", fail, err)
		}
	}
	if ev, simulated, err := c.Events(context.Background(), prog, "case", nil); ev != want || simulated || err != nil {
		t.Errorf("after a sound run: events %p, simulated %v, err %v; want the memo's", ev, simulated, err)
	}
	if st := c.Stats(); st.EventMisses != 2 || st.EventMemoHits != followers+1 || st.EventPuts != 0 {
		t.Errorf("event misses %d, memo hits %d, puts %d; want 2, %d and 0", st.EventMisses, st.EventMemoHits, st.EventPuts, followers+1)
	}
}
