package bench

import (
	"container/list"
	"sync"
)

// The verification oracle.
//
// A kernel's inputs and its Go reference outputs are pure functions of
// (kernel, problem size), but every harness run needs them: a DSE sweep
// verifies each kernel on hundreds of processor variants, and the
// reference for fft is an O(n^2) DFT. Case memoizes them per process so
// each (kernel, size) pays for its oracle once, while every run is
// still verified against it.
//
// Invariants:
//   - The key is the *Kernel pointer and the size, never the kernel's
//     name: a kernel built outside the suite (a test double reusing a
//     suite name, say) gets its own entry and its own reference.
//   - Each entry is computed at most once while it is cached, behind a
//     per-entry sync.Once, so concurrent sweep workers asking for the
//     same key wait for one computation instead of racing two.
//   - A *Case is immutable once built: runs take fresh copies of the
//     inputs from Args, and Want is only ever read (by Verify).
//   - The cache holds at most DefaultOracleCacheSize entries, evicting
//     the least recently used, so a long-lived service taking sweeps at
//     arbitrary scales stays bounded.

// DefaultOracleCacheSize bounds the process-wide oracle cache (entries,
// not bytes; a paper-scale entry is a few tens of KiB).
const DefaultOracleCacheSize = 64

// Case is one kernel's verification oracle at one problem size: its
// deterministic inputs and the reference outputs for them.
type Case struct {
	args []interface{}
	// Want holds the reference outputs. It is shared by every caller of
	// Kernel.Case and must only be read, by passing it to Verify.
	Want []interface{}
}

// Args returns a fresh deep copy of the case's inputs for one run.
func (c *Case) Args() []interface{} { return cloneArgs(c.args) }

// Case returns kernel k's inputs and reference outputs at problem size
// n, computing them once per process while they stay cached.
func (k *Kernel) Case(n int) *Case { return oracle.get(k, n) }

func newCase(k *Kernel, n int) *Case {
	args := k.Inputs(n)
	return &Case{args: args, Want: k.Reference(cloneArgs(args))}
}

type caseKey struct {
	k *Kernel
	n int
}

type caseEntry struct {
	key  caseKey
	once sync.Once
	c    *Case
}

// caseCache is a bounded LRU of oracle entries.
type caseCache struct {
	mu      sync.Mutex
	entries map[caseKey]*list.Element
	order   *list.List // front = most recently used
	cap     int
}

func newCaseCache(cap int) *caseCache {
	return &caseCache{entries: make(map[caseKey]*list.Element), order: list.New(), cap: cap}
}

var oracle = newCaseCache(DefaultOracleCacheSize)

func (cc *caseCache) get(k *Kernel, n int) *Case {
	key := caseKey{k, n}
	cc.mu.Lock()
	el, ok := cc.entries[key]
	if ok {
		cc.order.MoveToFront(el)
	} else {
		el = cc.order.PushFront(&caseEntry{key: key})
		cc.entries[key] = el
		for cc.order.Len() > cc.cap {
			old := cc.order.Back()
			cc.order.Remove(old)
			delete(cc.entries, old.Value.(*caseEntry).key)
		}
	}
	e := el.Value.(*caseEntry)
	cc.mu.Unlock()
	// Computed outside the lock: other keys stay servable meanwhile. An
	// entry evicted mid-computation still completes for its waiters.
	e.once.Do(func() { e.c = newCase(k, n) })
	return e.c
}

func (cc *caseCache) len() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.order.Len()
}
