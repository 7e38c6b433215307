package artifact

import (
	"fmt"
	"slices"

	"mat2c/internal/vm"
)

// Events framing. A stored events entry stands for a completed run of
// one program on one verification case whose outputs passed the
// harness's check, so eventsVersion covers what such a run means as
// well as the layout below: bump it when VM semantics change (the same
// program on the same inputs could complete different blocks or
// allocs) or when the verification rule changes (an entry's run might
// no longer pass it). Either bump turns every stored entry into
// ErrVersion, a miss, and the next run re-simulates and re-verifies.
const (
	eventsMagic   = "M2CE"
	eventsVersion = 1
)

// eventsInfix separates an events key's program hash from its case
// digest. No record key (a bare SHA-256 hex digest) or blob key
// contains it.
const eventsInfix = "-ev-"

// EventsKey is the store key of the run events of the program whose
// vm.Program content hash is progHash, run on the verification case
// whose digest is caseDigest.
func EventsKey(progHash, caseDigest string) string { return progHash + eventsInfix + caseDigest }

// EncodeEvents serializes a verified run's events, stored under key,
// under the given cache-key version. Each basic block is written with
// its pc span, so a decoder whose build lays the program out
// differently rejects the entry instead of pricing wrong blocks. The
// encoding is deterministic: allocs are sorted by element count.
func EncodeEvents(key string, ev *vm.Events, keyVersion string) []byte {
	var w writer
	w.buf = append(w.buf, eventsMagic...)
	w.u32(eventsVersion)
	w.str(keyVersion)
	w.str(key)
	blocks := ev.Blocks()
	w.u32(uint32(len(blocks)))
	for _, b := range blocks {
		w.u32(uint32(b.Start))
		w.u32(uint32(b.End))
		w.i64(b.Runs)
	}
	allocs := ev.Allocs()
	elems := make([]int64, 0, len(allocs))
	for e := range allocs {
		elems = append(elems, e)
	}
	slices.Sort(elems)
	w.u32(uint32(len(elems)))
	for _, e := range elems {
		w.i64(e)
		w.i64(allocs[e])
	}
	return w.bytes()
}

// DecodeEvents rebuilds the events stored under key for prog, the
// program key names, requiring both the format version and the
// cache-key version to match this build. Bytes that are malformed,
// embed another key, or describe blocks that do not match prog's
// layout span for span produce an error wrapping ErrCorrupt; a
// well-formed entry from another version produces one wrapping
// ErrVersion. Neither ever panics.
func DecodeEvents(data []byte, key string, prog *vm.Program, keyVersion string) (*vm.Events, error) {
	r, err := checkWrapper(data, eventsMagic)
	if err != nil {
		return nil, err
	}
	if v := r.u32(); r.err == nil && v != eventsVersion {
		return nil, fmt.Errorf("%w: events format v%d, this build reads v%d", ErrVersion, v, eventsVersion)
	}
	if kv := r.str(); r.err == nil && kv != keyVersion {
		return nil, fmt.Errorf("%w: cache-key version %q, this build uses %q", ErrVersion, kv, keyVersion)
	}
	if k := r.str(); r.err == nil && k != key {
		r.fail("events for %s stored under %s", k, key)
	}
	var blocks []vm.EventBlock
	if n := r.count(4 + 4 + 8); r.err == nil {
		blocks = make([]vm.EventBlock, n)
		for i := range blocks {
			blocks[i].Start = int32(r.u32())
			blocks[i].End = int32(r.u32())
			blocks[i].Runs = r.i64()
		}
	}
	var allocs map[int64]int64
	if n := r.count(8 + 8); r.err == nil && n > 0 {
		allocs = make(map[int64]int64, n)
		var last int64
		for i := 0; i < n && r.err == nil; i++ {
			elems, times := r.i64(), r.i64()
			if i > 0 && elems <= last {
				// Strictly ascending, as EncodeEvents writes them: a
				// repeated extent would silently drop a count.
				r.fail("alloc extents out of order at %d elements", elems)
			}
			allocs[elems], last = times, elems
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	ev, err := vm.NewEvents(prog, blocks, allocs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return ev, nil
}
