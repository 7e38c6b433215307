package bench

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"sync"

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

// Simulation through the cache.
//
// A DSE sweep runs each kernel on hundreds of processor variants, but
// most variants compile a kernel to a program some other variant
// already produced: the default sweep's 816 (variant, kernel) runs
// execute 56 distinct programs. A processor reaches a run's outcome
// only through prices, so Simulate runs and verifies each distinct
// (program, case) once per cache and prices every other caller, on any
// processor, from that run's events (vm.Machine.Price). The events are
// looked up like a compilation (mat2c.Cache.Events): from the cache's
// events memo, else from a store tier, else by the caller's run.
//
// Invariants:
//   - The key is the program's content hash and the case's Digest:
//     content-identical programs on cases with one digest share one
//     entry, whichever processor compiled them.
//   - An entry holds events only from a run that completed, recorded
//     events and whose outputs passed Verify. The same program on the
//     same inputs computes the same outputs, so every priced result is
//     verified too. A run that faults (on its own machine's limits,
//     say), fails verification, records no events or is cancelled
//     yields nothing, and the next caller simulates again.
//   - Concurrent callers of one missing entry wait for one lookup
//     (lru.Cache.Do), as with Kernel.Case, instead of racing two. A
//     waiter whose lookup yielded nothing goes round and simulates
//     itself, or waits for another waiter that does.
//   - Pricing is exact or declines (vm.Machine.Price); a caller it
//     declines runs the program itself, so fault sites and partial
//     accounting still come from the engines.
//
// A stored entry keeps the invariant across processes: only a run that
// completed on the compiled engine and passed Verify yields events, so
// an entry stands for a verified run of that program on that case. A
// missing or unusable entry is a miss: the caller simulates and
// verifies as without a cache.

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
// ClassCounts) on m exactly as m.RunContext would. Behind a cache, the
// first caller of each (program, case) simulates, unless the cache's
// memo or store tiers hold the events of a verified run of prog on the
// case; later callers are priced from those events. A nil cache, or a
// case without a digest, simulates every call. A run error is returned
// as is; a verification failure is a *VerifyError. On success it also
// returns the events of the verified run it ran or was priced from,
// nil when the run recorded none (see vm.Machine.RunEvents).
func (k *Kernel) Simulate(ctx context.Context, cache *mat2c.Cache, m *vm.Machine, prog *vm.Program, n int) (*vm.Events, error) {
	digest := ""
	if cache != nil {
		digest = k.Case(n).Digest()
	}
	if digest == "" {
		return k.run(ctx, m, prog, n)
	}
	for {
		var runErr error
		ev, simulated, err := cache.Events(ctx, prog, digest, func() (*vm.Events, error) {
			ev, err := k.run(ctx, m, prog, n)
			runErr = err
			switch {
			case err != nil:
				return nil, err
			case ev == nil:
				return nil, errNoEvents
			}
			return ev, nil
		})
		switch {
		case simulated:
			err = runErr
		case err == nil:
			err = k.price(ctx, m, prog, n, ev)
		case ctx.Err() != nil:
			return nil, &vm.CancelledError{Err: ctx.Err()}
		default:
			continue // the lookup this caller waited for yielded nothing: go round
		}
		if err != nil {
			return nil, err
		}
		return ev, nil
	}
}

// price prices the run from ev, or runs it when pricing declines.
func (k *Kernel) price(ctx context.Context, m *vm.Machine, prog *vm.Program, n int, ev *vm.Events) error {
	if m.Price(prog, ev) {
		return nil
	}
	_, err := k.run(ctx, m, prog, n)
	return err
}

// run simulates prog on k's case and verifies the outputs, returning
// the run's events (nil when the engine recorded none).
func (k *Kernel) run(ctx context.Context, m *vm.Machine, prog *vm.Program, n int) (*vm.Events, error) {
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
