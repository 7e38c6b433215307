// Package lru is a bounded least-recently-used map, safe for concurrent
// use. It is the one LRU behind the process's memo tables: the
// compilation cache's memory tier, program memo, events memo and
// blob-write record, the compile driver's memos, and the verification
// oracle.
//
// It also holds the one rule for concurrent misses of a key (Do): one
// caller computes the value outside the lock, and the others wait for
// its outcome and share it. Every memo that computes on a miss uses it,
// so none of them writes its own wait-and-share protocol.
package lru

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// ErrPanicked is the error Do returns to callers that waited on a
// computation that panicked.
var ErrPanicked = errors.New("lru: the computation panicked")

// Cache holds at most a fixed number of entries. Get, Add and Do all
// count as a use; inserting a new key into a full cache evicts the
// least recently used entry. An evicted entry is unlinked completely,
// so the cache never keeps its key or value reachable.
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	cap       int
	order     *list.List // of *entry[K, V]; front = most recently used
	entries   map[K]*list.Element
	calls     map[K]*call[V] // Do computations in progress
	evictions uint64
	onWait    func(K)
}

// call is one Do computation in progress. Its computing caller sets
// every field before it closes done.
type call[V any] struct {
	done  chan struct{}
	value V
	err   error
	// retry marks a computation that failed because its caller's own
	// context ended: that error is private, and the waiters try again.
	retry bool
}

type entry[K comparable, V any] struct {
	key   K
	value V
}

// New returns an empty cache holding at most cap entries. It panics if
// cap < 1.
func New[K comparable, V any](cap int) *Cache[K, V] {
	if cap < 1 {
		panic("lru: capacity must be at least 1")
	}
	return &Cache[K, V]{cap: cap, order: list.New(), entries: make(map[K]*list.Element), calls: make(map[K]*call[V])}
}

// Get returns the value under key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).value, true
	}
	var zero V
	return zero, false
}

// Add inserts value under key unless key is already resident, marks the
// key most recently used, and returns the resident value: value itself,
// or the earlier value, which wins so that racing inserters of one key
// all end up sharing the first. evicted reports whether the insert
// pushed out the least recently used entry.
func (c *Cache[K, V]) Add(key K, value V) (resident V, evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.add(key, value)
}

// add is Add with c.mu held.
func (c *Cache[K, V]) add(key K, value V) (resident V, evicted bool) {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).value, false
	}
	c.entries[key] = c.order.PushFront(&entry[K, V]{key: key, value: value})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry[K, V]).key)
		c.evictions++
		evicted = true
	}
	return value, evicted
}

// Do returns the value under key, computing it with fn on a miss. One
// caller of a missing key runs fn, outside the lock; concurrent callers
// of that key wait for its outcome, or for their own ctx to end, and
// share what they waited for (shared is true). A value fn returns is
// stored as Add stores it, so a value inserted meanwhile wins and every
// caller gets the resident one. An error is returned and never stored:
// the next miss computes again. When fn fails after the computing
// caller's own ctx ended, the error is that caller's alone, and its
// waiters go round again, one of them computing. When fn panics, the
// panic goes on in the computing caller, its waiters get ErrPanicked,
// and the key is free for the next miss. A hit and the computing caller
// report shared false; only the computing caller's fn has run.
func (c *Cache[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (v V, err error, shared bool) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.order.MoveToFront(el)
			v = el.Value.(*entry[K, V]).value
			c.mu.Unlock()
			return v, nil, false
		}
		if cl, ok := c.calls[key]; ok {
			onWait := c.onWait
			c.mu.Unlock()
			if onWait != nil {
				onWait(key)
			}
			select {
			case <-cl.done:
				if cl.retry {
					continue
				}
				return cl.value, cl.err, true
			case <-ctx.Done():
				return v, ctx.Err(), true
			}
		}
		cl := &call[V]{done: make(chan struct{})}
		c.calls[key] = cl
		c.mu.Unlock()
		c.compute(ctx, key, cl, fn)
		return cl.value, cl.err, false
	}
}

// compute runs fn as the computing caller of key and publishes its
// outcome on cl from a deferred call, so a panicking fn still frees the
// key and wakes the waiters.
func (c *Cache[K, V]) compute(ctx context.Context, key K, cl *call[V], fn func() (V, error)) {
	cl.err = ErrPanicked // what the waiters get unless fn returns
	defer func() {
		c.mu.Lock()
		if cl.err == nil {
			cl.value, _ = c.add(key, cl.value)
		}
		delete(c.calls, key)
		c.mu.Unlock()
		close(cl.done)
	}()
	cl.value, cl.err = fn()
	cl.retry = cl.err != nil && ctx.Err() != nil
}

// OnWait makes Do call f, outside the lock, each time a caller starts
// waiting on another caller's computation of key (nil turns it off).
// Tests use it to learn that callers wait, rather than sleeping.
func (c *Cache[K, V]) OnWait(f func(key K)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onWait = f
}

// Evictions returns how many entries Add and Do inserts have evicted
// since New.
func (c *Cache[K, V]) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Contains reports whether key is resident without marking it used.
func (c *Cache[K, V]) Contains(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Values returns the resident values, most recently used first,
// without marking any of them used.
func (c *Cache[K, V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	vs := make([]V, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		vs = append(vs, el.Value.(*entry[K, V]).value)
	}
	return vs
}

// Clear removes every entry.
func (c *Cache[K, V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	clear(c.entries)
}
