package lru

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// op is one scripted call. For "add", want is the resident value Add
// must return and evicted its eviction report; for "get", want is the
// value Get must return ("" for a miss).
type op struct {
	kind    string // "add", "get", "clear"
	key     string
	val     string
	want    string
	evicted bool
}

// keys returns the resident keys, most recently used first.
func (c *Cache[K, V]) keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ks []K
	for el := c.order.Front(); el != nil; el = el.Next() {
		ks = append(ks, el.Value.(*entry[K, V]).key)
	}
	return ks
}

func TestCache(t *testing.T) {
	add := func(k, v, want string, evicted bool) op { return op{"add", k, v, want, evicted} }
	get := func(k, want string) op { return op{kind: "get", key: k, want: want} }
	clr := op{kind: "clear"}
	cases := []struct {
		name string
		cap  int
		ops  []op
		keys []string // resident keys afterwards, most recent first
	}{
		{"empty", 2, nil, nil},
		{"under cap", 3, []op{add("a", "1", "1", false), add("b", "2", "2", false)}, []string{"b", "a"}},
		{"cap bound evicts oldest first", 2, []op{
			add("a", "1", "1", false), add("b", "2", "2", false),
			add("c", "3", "3", true), add("d", "4", "4", true),
			get("a", ""), get("b", ""),
		}, []string{"d", "c"}},
		{"cap one", 1, []op{add("a", "1", "1", false), add("b", "2", "2", true), get("a", "")}, []string{"b"}},
		{"get promotes", 2, []op{
			add("a", "1", "1", false), add("b", "2", "2", false),
			get("a", "1"), add("c", "3", "3", true),
		}, []string{"c", "a"}},
		{"add promotes", 2, []op{
			add("a", "1", "1", false), add("b", "2", "2", false),
			add("a", "9", "1", false), add("c", "3", "3", true),
		}, []string{"c", "a"}},
		{"first insert wins", 2, []op{
			add("a", "1", "1", false), add("a", "2", "1", false), get("a", "1"),
		}, []string{"a"}},
		{"miss does not insert", 2, []op{get("a", ""), add("b", "2", "2", false)}, []string{"b"}},
		{"clear empties and resets", 2, []op{
			add("a", "1", "1", false), add("b", "2", "2", false), clr,
			get("a", ""), add("c", "3", "3", false), add("a", "4", "4", false),
		}, []string{"a", "c"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string, string](tc.cap)
			for i, o := range tc.ops {
				switch o.kind {
				case "add":
					got, ev := c.Add(o.key, o.val)
					if got != o.want || ev != o.evicted {
						t.Fatalf("op %d: Add(%q, %q) = %q, %v; want %q, %v", i, o.key, o.val, got, ev, o.want, o.evicted)
					}
				case "get":
					got, ok := c.Get(o.key)
					if got != o.want || ok != (o.want != "") {
						t.Fatalf("op %d: Get(%q) = %q, %v; want %q", i, o.key, got, ok, o.want)
					}
				case "clear":
					c.Clear()
				}
				if n := c.Len(); n > tc.cap {
					t.Fatalf("op %d: Len() = %d over cap %d", i, n, tc.cap)
				}
			}
			if got := c.keys(); !reflect.DeepEqual(got, tc.keys) {
				t.Errorf("resident keys %q, want %q", got, tc.keys)
			}
			if c.Len() != len(tc.keys) {
				t.Errorf("Len() = %d, want %d", c.Len(), len(tc.keys))
			}
			if len(c.entries) != len(tc.keys) {
				t.Errorf("index holds %d keys, list %d", len(c.entries), len(tc.keys))
			}
			for _, k := range tc.keys {
				if !c.Contains(k) {
					t.Errorf("Contains(%q) = false for a resident key", k)
				}
			}
			if got := c.keys(); !reflect.DeepEqual(got, tc.keys) {
				t.Errorf("Contains changed recency: %q, want %q", got, tc.keys)
			}
			vals := []string{}
			for _, k := range tc.keys {
				vals = append(vals, c.entries[k].Value.(*entry[string, string]).value)
			}
			if got := c.Values(); !reflect.DeepEqual(got, vals) {
				t.Errorf("Values() = %q, want %q", got, vals)
			}
			if got := c.keys(); !reflect.DeepEqual(got, tc.keys) {
				t.Errorf("Values changed recency: %q, want %q", got, tc.keys)
			}
		})
	}
}

func TestNewRejectsZeroCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New[int, int](0)
}

// TestConcurrentFirstInsertWins: goroutines racing Get-then-Add on
// shared keys all end up with the first inserted value, and the bound
// holds throughout.
func TestConcurrentFirstInsertWins(t *testing.T) {
	const workers, keys = 8, 16
	c := New[string, *int](keys)
	got := make([][]*int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := fmt.Sprint(k)
				v, ok := c.Get(key)
				if !ok {
					v, _ = c.Add(key, new(int))
				}
				got[w] = append(got[w], v)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for k := range got[w] {
			if got[w][k] != got[0][k] {
				t.Fatalf("worker %d got a different value for key %d than worker 0", w, k)
			}
		}
	}
	if c.Len() != keys {
		t.Errorf("Len() = %d, want %d", c.Len(), keys)
	}
}

// gate is a Do computation the test holds: started closes when fn
// begins, and fn returns once release is closed.
type gate struct{ started, release chan struct{} }

func newGate() gate { return gate{make(chan struct{}), make(chan struct{})} }

// fn returns a computation that opens g, waits for release and then
// returns v and err, counting its run in *runs.
func (g gate) fn(runs *atomic.Int32, v string, err error) func() (string, error) {
	return func() (string, error) {
		runs.Add(1)
		close(g.started)
		<-g.release
		return v, err
	}
}

// awaitWaits makes c report each caller that starts waiting on another
// caller's computation and returns a function that blocks until n more
// have.
func awaitWaits(t *testing.T, c *Cache[string, string]) func(n int) {
	waits := make(chan string, 64) // beyond any test's waits: the hook never blocks
	c.OnWait(func(key string) { waits <- key })
	return func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case <-waits:
			case <-time.After(10 * time.Second):
				t.Fatalf("only %d of %d callers waited", i, n)
			}
		}
	}
}

// outcome is one Do call's results.
type outcome struct {
	v      string
	err    error
	shared bool
}

// goDo runs Do on its own goroutine and returns where its outcome lands.
func goDo(ctx context.Context, c *Cache[string, string], key string, fn func() (string, error)) chan outcome {
	out := make(chan outcome, 1)
	go func() {
		v, err, shared := c.Do(ctx, key, fn)
		out <- outcome{v, err, shared}
	}()
	return out
}

// TestDoComputesOnce: one computation serves every concurrent caller of
// a key, and the value stays for later hits.
func TestDoComputesOnce(t *testing.T) {
	c := New[string, string](4)
	await := awaitWaits(t, c)
	var runs atomic.Int32
	g := newGate()
	first := goDo(context.Background(), c, "k", g.fn(&runs, "v", nil))
	<-g.started
	const waiters = 8
	var outs []chan outcome
	for i := 0; i < waiters; i++ {
		outs = append(outs, goDo(context.Background(), c, "k", newGate().fn(&runs, "other", nil)))
	}
	await(waiters)
	close(g.release)
	if o := <-first; o != (outcome{"v", nil, false}) {
		t.Errorf("computing caller got %+v", o)
	}
	for i, out := range outs {
		if o := <-out; o != (outcome{"v", nil, true}) {
			t.Errorf("waiter %d got %+v, want the shared value", i, o)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1", n)
	}
	v, err, shared := c.Do(context.Background(), "k", newGate().fn(&runs, "other", nil))
	if v != "v" || err != nil || shared || runs.Load() != 1 {
		t.Errorf("hit: %q, %v, shared %v after %d runs; want the stored value and no run", v, err, shared, runs.Load())
	}
}

// TestDoSharesErrorsUnstored: an error reaches every waiter and is not
// stored, so the next miss computes again.
func TestDoSharesErrorsUnstored(t *testing.T) {
	c := New[string, string](4)
	await := awaitWaits(t, c)
	var runs atomic.Int32
	bad := errors.New("bad input")
	g := newGate()
	first := goDo(context.Background(), c, "k", g.fn(&runs, "", bad))
	<-g.started
	waiter := goDo(context.Background(), c, "k", newGate().fn(&runs, "other", nil))
	await(1)
	close(g.release)
	if o := <-first; o.err != bad || o.shared {
		t.Errorf("computing caller got %+v", o)
	}
	if o := <-waiter; o.err != bad || !o.shared {
		t.Errorf("waiter got %+v, want the shared error", o)
	}
	if c.Contains("k") || c.Len() != 0 {
		t.Error("an error was stored")
	}
	v, err, shared := c.Do(context.Background(), "k", func() (string, error) { runs.Add(1); return "v", nil })
	if v != "v" || err != nil || shared || runs.Load() != 2 {
		t.Errorf("after the error: %q, %v, shared %v after %d runs; want a fresh computation", v, err, shared, runs.Load())
	}
}

// TestDoComputingCallerCancelled: a computation that fails because its
// caller's own context ended sends its waiters round again, and one of
// them computes for the rest.
func TestDoComputingCallerCancelled(t *testing.T) {
	c := New[string, string](4)
	await := awaitWaits(t, c)
	var runs atomic.Int32
	ctx, cancel := context.WithCancel(context.Background())
	g := newGate()
	first := goDo(ctx, c, "k", func() (string, error) {
		runs.Add(1)
		close(g.started)
		<-g.release
		return "", ctx.Err()
	})
	<-g.started
	const waiters = 4
	var outs []chan outcome
	for i := 0; i < waiters; i++ {
		outs = append(outs, goDo(context.Background(), c, "k", func() (string, error) { runs.Add(1); return "v", nil }))
	}
	await(waiters)
	cancel()
	close(g.release)
	if o := <-first; !errors.Is(o.err, context.Canceled) || o.shared {
		t.Errorf("cancelled computing caller got %+v", o)
	}
	for i, out := range outs {
		if o := <-out; o.v != "v" || o.err != nil {
			t.Errorf("waiter %d got %+v, want the value a waiter computed", i, o)
		}
	}
	// A waiter that went round either computed, waited on the one that
	// did, or met the stored value.
	if n := runs.Load(); n != 2 {
		t.Errorf("fn ran %d times, want 2 (the cancelled one and one waiter's)", n)
	}
}

// TestDoPanic: a panic goes on in the computing caller, its waiters get
// ErrPanicked, and the next Do computes afresh.
func TestDoPanic(t *testing.T) {
	c := New[string, string](4)
	await := awaitWaits(t, c)
	g := newGate()
	panicked := make(chan interface{}, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do(context.Background(), "k", func() (string, error) {
			close(g.started)
			<-g.release
			panic("bug")
		})
	}()
	<-g.started
	waiter := goDo(context.Background(), c, "k", func() (string, error) { return "other", nil })
	await(1)
	close(g.release)
	if p := <-panicked; p != "bug" {
		t.Errorf("computing caller recovered %v, want the panic", p)
	}
	if o := <-waiter; !errors.Is(o.err, ErrPanicked) || !o.shared {
		t.Errorf("waiter got %+v, want ErrPanicked", o)
	}
	v, err, shared := c.Do(context.Background(), "k", func() (string, error) { return "v", nil })
	if v != "v" || err != nil || shared {
		t.Errorf("after the panic: %q, %v, shared %v; want a fresh computation", v, err, shared)
	}
}

// TestDoWaiterContext: a waiter's own context frees it, and the
// computation it left carries on.
func TestDoWaiterContext(t *testing.T) {
	c := New[string, string](4)
	await := awaitWaits(t, c)
	var runs atomic.Int32
	g := newGate()
	first := goDo(context.Background(), c, "k", g.fn(&runs, "v", nil))
	<-g.started
	ctx, cancel := context.WithCancel(context.Background())
	waiter := goDo(ctx, c, "k", newGate().fn(&runs, "other", nil))
	await(1)
	cancel()
	if o := <-waiter; !errors.Is(o.err, context.Canceled) || !o.shared {
		t.Errorf("waiter got %+v, want its own context's error", o)
	}
	close(g.release)
	if o := <-first; o != (outcome{"v", nil, false}) {
		t.Errorf("computing caller got %+v", o)
	}
	if v, ok := c.Get("k"); !ok || v != "v" || runs.Load() != 1 {
		t.Errorf("stored %q, %v after %d runs; want v after 1", v, ok, runs.Load())
	}
}

// TestDoResidentValueWins: a value Added while the computation runs is
// the one every caller gets, as with racing Adds.
func TestDoResidentValueWins(t *testing.T) {
	c := New[string, string](4)
	await := awaitWaits(t, c)
	g := newGate()
	first := goDo(context.Background(), c, "k", func() (string, error) {
		close(g.started)
		<-g.release
		c.Add("k", "added")
		return "computed", nil
	})
	<-g.started
	waiter := goDo(context.Background(), c, "k", func() (string, error) { return "other", nil })
	await(1)
	close(g.release)
	if o := <-first; o != (outcome{"added", nil, false}) {
		t.Errorf("computing caller got %+v, want the resident value", o)
	}
	if o := <-waiter; o != (outcome{"added", nil, true}) {
		t.Errorf("waiter got %+v, want the resident value", o)
	}
	if v, _ := c.Get("k"); v != "added" {
		t.Errorf("stored %q, want the resident value", v)
	}
}

// TestEvictions: Add and Do inserts both count the entries they evict;
// hits and errors insert nothing.
func TestEvictions(t *testing.T) {
	c := New[string, string](1)
	val := func(v string) func() (string, error) { return func() (string, error) { return v, nil } }
	c.Add("a", "1")
	c.Add("b", "2")                               // evicts a
	c.Do(context.Background(), "c", val("3"))     // evicts b
	c.Do(context.Background(), "c", val("other")) // hit
	c.Add("c", "other")                           // resident
	c.Do(context.Background(), "d", func() (string, error) { return "", errors.New("no") })
	if n := c.Evictions(); n != 2 {
		t.Errorf("Evictions() = %d, want 2", n)
	}
	if v, _ := c.Get("c"); v != "3" || c.Len() != 1 {
		t.Errorf("resident %q of %d entries, want c=3 alone", v, c.Len())
	}
}
