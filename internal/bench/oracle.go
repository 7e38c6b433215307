package bench

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"sync"
	"sync/atomic"

	mat2c "mat2c"
	"mat2c/internal/ir"
	"mat2c/internal/lru"
	"mat2c/internal/vm"
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
//   - Each entry is computed at most once while it is cached: concurrent
//     sweep workers asking for the same key wait for one computation
//     instead of racing two (lru.Cache.Do).
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

	digestOnce sync.Once
	digest     string
}

// Args returns a fresh deep copy of the case's inputs for one run.
func (c *Case) Args() []interface{} { return cloneArgs(c.args) }

// Digest is the SHA-256 hex digest of a canonical binary rendering of
// the case's inputs and reference outputs, computed on first use: cases
// with equal digests run any program on the same inputs and verify its
// outputs against the same reference. It is empty when a value has a
// type the rendering does not cover (none of the suite's do).
func (c *Case) Digest() string {
	c.digestOnce.Do(func() {
		buf, ok := appendValues(nil, c.args)
		if ok {
			buf, ok = appendValues(buf, c.Want)
		}
		if ok {
			sum := sha256.Sum256(buf)
			c.digest = hex.EncodeToString(sum[:])
		}
	})
	return c.digest
}

// appendValues renders a value list: its length, then each value as a
// type tag and its exact bits. ok is false for an unsupported type.
func appendValues(buf []byte, vals []interface{}) ([]byte, bool) {
	u64 := binary.LittleEndian.AppendUint64
	f64s := func(buf []byte, fs ...float64) []byte {
		for _, f := range fs {
			buf = u64(buf, math.Float64bits(f))
		}
		return buf
	}
	buf = u64(buf, uint64(len(vals)))
	for _, v := range vals {
		switch v := v.(type) {
		case float64:
			buf = f64s(append(buf, 'f'), v)
		case int64:
			buf = u64(append(buf, 'i'), uint64(v))
		case complex128:
			buf = f64s(append(buf, 'c'), real(v), imag(v))
		case *ir.Array:
			buf = append(buf, 'a', byte(v.Elem))
			buf = u64(u64(buf, uint64(v.Rows)), uint64(v.Cols))
			buf = u64(buf, uint64(len(v.F)))
			buf = f64s(buf, v.F...)
			buf = u64(buf, uint64(len(v.C)))
			for _, z := range v.C {
				buf = f64s(buf, real(z), imag(z))
			}
		default:
			return buf, false
		}
	}
	return buf, true
}

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

// caseCache is a bounded LRU of oracle entries.
type caseCache struct {
	*lru.Cache[caseKey, *Case]
}

func newCaseCache(cap int) caseCache {
	return caseCache{lru.New[caseKey, *Case](cap)}
}

var oracle = newCaseCache(DefaultOracleCacheSize)

func (cc caseCache) get(k *Kernel, n int) *Case {
	c, err, _ := cc.Do(context.Background(), caseKey{k, n}, func() (*Case, error) { return newCase(k, n), nil })
	if err != nil {
		// The computation this caller waited for panicked: its own
		// meets the same fault.
		return newCase(k, n)
	}
	return c
}

// The simulation memo.
//
// A DSE sweep runs each kernel on hundreds of processor variants, but
// most variants compile a kernel to a program some other variant
// already produced: the default sweep's 816 (variant, kernel) runs
// execute 56 distinct programs. A processor reaches a run's outcome
// only through prices, so Simulate runs and verifies each distinct
// (program, kernel, size) once per process and prices every other
// caller, on any processor, from that run's events (vm.Machine.Price).
//
// Invariants:
//   - The key is the program's content hash, the *Kernel pointer and
//     the size: content-identical programs on the same case share one
//     entry, whichever processor compiled them.
//   - An entry holds events only from a run that completed, recorded
//     events and whose outputs passed Verify. The same program on the
//     same inputs computes the same outputs, so every priced result is
//     verified too. A run that faults (on its own machine's limits,
//     say), fails verification, records no events or is cancelled
//     stores nothing, and the next caller simulates again.
//   - Concurrent callers of one missing entry wait for one simulation
//     (lru.Cache.Do), as with Kernel.Case, instead of racing two. A
//     waiter whose simulation stored nothing goes round and simulates
//     itself, or waits for another waiter that does.
//   - Pricing is exact or declines (vm.Machine.Price); a caller it
//     declines runs the program itself, so fault sites and partial
//     accounting still come from the engines.
//   - The memo holds at most DefaultSimMemoSize entries, evicting the
//     least recently used.
//
// Behind the memo, a cache with store tiers persists the events of
// every verified run (mat2c.Cache.PutEvents, keyed by the program hash
// and the case's Digest), and a memo miss consults them before
// simulating, so a warm or remote-fed sweep prices every variant
// without running anything. The memo's invariant carries over: only a
// run that completed on the compiled engine and passed Verify writes
// events, so a stored entry stands for a verified run of that program
// on that case. A missing or unusable entry is a miss: the caller
// simulates and verifies as without a cache.

// DefaultSimMemoSize bounds the process-wide simulation memo (entries,
// not bytes; an entry is one run's block counts, a few KiB at most).
const DefaultSimMemoSize = 1024

type simKey struct {
	prog string // vm.Program.ContentHash
	k    *Kernel
	n    int
}

var (
	sims             = lru.New[simKey, *vm.Events](DefaultSimMemoSize)
	simHits, simRuns atomic.Uint64
)

// errNoEvents is a completed, verified run that recorded no events:
// there is nothing to store or price from.
var errNoEvents = errors.New("bench: the run recorded no events")

// VerifyError reports that a run completed but its outputs did not
// match the kernel's reference.
type VerifyError struct{ Err error }

func (e *VerifyError) Error() string { return e.Err.Error() }
func (e *VerifyError) Unwrap() error { return e.Err }

// Simulate runs prog on machine m against k's case at size n and
// verifies the outputs, leaving the run's accounting (Cycles, Executed,
// ClassCounts) on m exactly as m.RunContext would. The first caller of
// each (program, kernel, size) simulates, unless cache's store tiers
// hold the events of a verified run of prog on the case; later callers
// are priced from those events. A fresh verified run's events are
// written to cache's store tiers. cache may be nil. A run error is
// returned as is; a verification failure is a *VerifyError.
func (k *Kernel) Simulate(ctx context.Context, cache *mat2c.Cache, m *vm.Machine, prog *vm.Program, n int) error {
	key := simKey{prog.ContentHash(), k, n}
	for {
		simulated := false
		var runErr error
		ev, err, _ := sims.Do(ctx, key, func() (*vm.Events, error) {
			digest := ""
			if cache != nil && cache.HasStores() {
				digest = k.Case(n).Digest()
			}
			if digest != "" {
				if ev := cache.Events(prog, digest); ev != nil {
					return ev, nil
				}
			}
			simulated = true
			ev, err := k.run(ctx, m, prog, n)
			runErr = err
			switch {
			case err != nil:
				return nil, err
			case ev == nil:
				return nil, errNoEvents
			}
			if digest != "" {
				cache.PutEvents(prog, digest, ev)
			}
			return ev, nil
		})
		switch {
		case simulated:
			return runErr
		case err == nil:
			return k.price(ctx, m, prog, n, ev)
		case ctx.Err() != nil:
			return &vm.CancelledError{Err: ctx.Err()}
		}
		// The run this caller waited for stored nothing: go round.
	}
}

// price prices the run from ev, or runs it when pricing declines.
func (k *Kernel) price(ctx context.Context, m *vm.Machine, prog *vm.Program, n int, ev *vm.Events) error {
	if m.Price(prog, ev) {
		simHits.Add(1)
		return nil
	}
	_, err := k.run(ctx, m, prog, n)
	return err
}

// run simulates prog on k's case and verifies the outputs, returning
// the run's events (nil when the engine recorded none).
func (k *Kernel) run(ctx context.Context, m *vm.Machine, prog *vm.Program, n int) (*vm.Events, error) {
	simRuns.Add(1)
	c := k.Case(n)
	out, ev, err := m.RunEvents(ctx, prog, c.Args()...)
	if err != nil {
		return nil, err
	}
	if err := verify(out, c.Want); err != nil {
		return nil, &VerifyError{err}
	}
	return ev, nil
}

// SimMemoInfo is a point-in-time snapshot of the simulation memo,
// exported for service metrics and tooling. Hits counts runs priced
// from a memoized run; Misses counts real simulations.
type SimMemoInfo struct {
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
}

// SimMemoStats reports memo occupancy and its hit/miss counters.
func SimMemoStats() SimMemoInfo {
	return SimMemoInfo{
		Entries:  sims.Len(),
		Capacity: DefaultSimMemoSize,
		Hits:     simHits.Load(),
		Misses:   simRuns.Load(),
	}
}

// ResetSimMemo empties the simulation memo and its counters (tests and
// benchmarks measuring cold paths).
func ResetSimMemo() {
	sims.Clear()
	simHits.Store(0)
	simRuns.Store(0)
}
