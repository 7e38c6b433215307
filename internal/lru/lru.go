// Package lru is a bounded least-recently-used map, safe for concurrent
// use. It is the one LRU behind the process's memo tables: the
// compilation cache's memory tier and program table, the compile
// driver's memos, the verification oracle, and the simulation memo.
package lru

import (
	"container/list"
	"sync"
)

// Cache holds at most a fixed number of entries. Get and Add both count
// as a use; adding a new key to a full cache evicts the least recently
// used entry. An evicted entry is unlinked completely, so the cache
// never keeps its key or value reachable.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // of *entry[K, V]; front = most recently used
	entries map[K]*list.Element
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
	return &Cache[K, V]{cap: cap, order: list.New(), entries: make(map[K]*list.Element)}
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
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).value, false
	}
	c.entries[key] = c.order.PushFront(&entry[K, V]{key: key, value: value})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry[K, V]).key)
		evicted = true
	}
	return value, evicted
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
