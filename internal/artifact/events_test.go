package artifact

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mat2c/internal/ir"
	"mat2c/internal/pdesc"
	"mat2c/internal/vm"
)

const eventsTestKV = "kv"

// testEvents runs the codec test kernel once on the compiled engine and
// returns the program, the events of that run, the machine it ran on,
// and a key to file them under.
func testEvents(t *testing.T) (*vm.Program, *vm.Events, *vm.Machine, string) {
	t.Helper()
	prog := compileTestResult(t).Program
	proc, err := pdesc.Resolve("dspasip")
	if err != nil {
		t.Fatal(err)
	}
	x := ir.NewFloatArray(1, 37)
	for i := range x.F {
		x.F[i] = float64(i) / 3
	}
	m := vm.NewMachine(proc)
	_, ev, err := m.RunEvents(context.Background(), prog, x, 2.5)
	if err != nil || ev == nil {
		t.Fatalf("run: events %v, err %v", ev, err)
	}
	if len(ev.Allocs()) == 0 {
		t.Fatal("test kernel executed no alloc; the alloc section goes untested")
	}
	return prog, ev, m, EventsKey(prog.ContentHash(), strings.Repeat("c", 64))
}

// rawEvents writes an events entry field by field, so tests can build
// encodings EncodeEvents never would.
type rawEvents struct {
	version    uint32
	keyVersion string
	key        string
	nBlocks    uint32 // the stated count; blocks holds what follows
	blocks     []vm.EventBlock
	nAllocs    uint32
	allocs     [][2]int64
}

func rawOf(key string, ev *vm.Events) rawEvents {
	r := rawEvents{version: eventsVersion, keyVersion: eventsTestKV, key: key, blocks: ev.Blocks()}
	r.nBlocks = uint32(len(r.blocks))
	elems := []int64{}
	allocs := ev.Allocs()
	for e := range allocs {
		elems = append(elems, e)
	}
	slices.Sort(elems)
	for _, e := range elems {
		r.allocs = append(r.allocs, [2]int64{e, allocs[e]})
	}
	r.nAllocs = uint32(len(r.allocs))
	return r
}

func (r rawEvents) encode() []byte {
	var w writer
	w.buf = append(w.buf, eventsMagic...)
	w.u32(r.version)
	w.str(r.keyVersion)
	w.str(r.key)
	w.u32(r.nBlocks)
	for _, b := range r.blocks {
		w.u32(uint32(b.Start))
		w.u32(uint32(b.End))
		w.i64(b.Runs)
	}
	w.u32(r.nAllocs)
	for _, a := range r.allocs {
		w.i64(a[0])
		w.i64(a[1])
	}
	return w.bytes()
}

// TestEventsRoundTrip: decoded events are the encoded ones, block for
// block and extent for extent, they price exactly what the run
// reported, and the encoding is deterministic and canonical.
func TestEventsRoundTrip(t *testing.T) {
	prog, ev, m, key := testEvents(t)
	data := EncodeEvents(key, ev, eventsTestKV)
	if !bytes.Equal(data, EncodeEvents(key, ev, eventsTestKV)) {
		t.Error("two encodings of the same events differ")
	}
	if !bytes.Equal(data, rawOf(key, ev).encode()) {
		t.Error("EncodeEvents differs from the documented layout")
	}
	dec, err := DecodeEvents(data, key, prog, eventsTestKV)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(dec.Blocks(), ev.Blocks()) || !reflect.DeepEqual(dec.Allocs(), ev.Allocs()) {
		t.Errorf("events changed across the round trip:\n got %v %v\nwant %v %v",
			dec.Blocks(), dec.Allocs(), ev.Blocks(), ev.Allocs())
	}
	if !bytes.Equal(EncodeEvents(key, dec, eventsTestKV), data) {
		t.Error("decode/encode is not canonical")
	}
	priced := vm.NewMachine(m.Proc)
	if !priced.Price(prog, dec) {
		t.Fatal("decoded events declined to price on the processor they ran on")
	}
	if priced.Cycles != m.Cycles || priced.Executed != m.Executed || !reflect.DeepEqual(priced.ClassCounts, m.ClassCounts) {
		t.Errorf("priced %d cycles / %d executed / %v, the run reported %d / %d / %v",
			priced.Cycles, priced.Executed, priced.ClassCounts, m.Cycles, m.Executed, m.ClassCounts)
	}
}

// TestEventsKeys: an events key is a valid store key, sharded by its
// program's hash, that no record or blob key can equal.
func TestEventsKeys(t *testing.T) {
	hash, digest := strings.Repeat("a", 64), strings.Repeat("b", 64)
	key := EventsKey(hash, digest)
	if err := ValidKey(key); err != nil {
		t.Fatal(err)
	}
	if isHexDigest(key) || key == BlobKey(hash) || key[:2] != hash[:2] {
		t.Errorf("events key %q collides with record or blob keys or shards apart from its program", key)
	}
}

// TestEventsTruncationAndBitFlips: every prefix of a valid entry, and
// every single-bit flip of it, is ErrCorrupt.
func TestEventsTruncationAndBitFlips(t *testing.T) {
	prog, ev, _, key := testEvents(t)
	data := EncodeEvents(key, ev, eventsTestKV)
	for i := 0; i < len(data); i++ {
		if _, err := DecodeEvents(data[:i], key, prog, eventsTestKV); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d/%d: err = %v, want ErrCorrupt", i, len(data), err)
		}
	}
	for i := 0; i < len(data)*8; i++ {
		mut := bytes.Clone(data)
		mut[i/8] ^= 1 << (i % 8)
		if _, err := DecodeEvents(mut, key, prog, eventsTestKV); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}

// TestEventsVersionsAndMagic: another kind's magic is corrupt; a
// well-formed entry written under another format or cache-key version
// is ErrVersion.
func TestEventsVersionsAndMagic(t *testing.T) {
	prog, ev, _, key := testEvents(t)
	data := EncodeEvents(key, ev, eventsTestKV)
	wrong := bytes.Clone(data)
	copy(wrong, recordMagic)
	if _, err := DecodeEvents(reseal(wrong), key, prog, eventsTestKV); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong magic: err = %v, want ErrCorrupt", err)
	}
	stale := rawOf(key, ev)
	stale.version = eventsVersion + 1
	if _, err := DecodeEvents(stale.encode(), key, prog, eventsTestKV); !errors.Is(err, ErrVersion) {
		t.Errorf("stale format version: err = %v, want ErrVersion", err)
	}
	if _, err := DecodeEvents(data, key, prog, "other-key-version"); !errors.Is(err, ErrVersion) {
		t.Errorf("stale key version: err = %v, want ErrVersion", err)
	}
}

// TestEventsRejectsMisfiled: a sound entry read under another key — the
// same program on another case, or another program — is corrupt.
func TestEventsRejectsMisfiled(t *testing.T) {
	prog, ev, _, key := testEvents(t)
	data := EncodeEvents(key, ev, eventsTestKV)
	other := EventsKey(prog.ContentHash(), strings.Repeat("d", 64))
	if _, err := DecodeEvents(data, other, prog, eventsTestKV); !errors.Is(err, ErrCorrupt) {
		t.Errorf("entry misfiled under another case: err = %v, want ErrCorrupt", err)
	}
}

// TestEventsHostile: entries with a valid checksum whose fields lie.
// Each is ErrCorrupt, and a lying count is rejected before anything is
// allocated for it.
func TestEventsHostile(t *testing.T) {
	prog, ev, _, key := testEvents(t)
	base := rawOf(key, ev)
	if len(base.blocks) < 2 || len(base.allocs) == 0 {
		t.Fatalf("test events too small: %d blocks, %d allocs", len(base.blocks), len(base.allocs))
	}
	cases := map[string]func(r *rawEvents){
		"huge block count":  func(r *rawEvents) { r.nBlocks = 1 << 31 },
		"huge alloc count":  func(r *rawEvents) { r.nAllocs = 1 << 31 },
		"block count short": func(r *rawEvents) { r.nBlocks-- },
		"negative runs":     func(r *rawEvents) { r.blocks[1].Runs = -1 },
		"negative extent":   func(r *rawEvents) { r.allocs[0][0] = -8 },
		"no allocs counted": func(r *rawEvents) { r.allocs[0][1] = 0 },
		"negative allocs":   func(r *rawEvents) { r.allocs[0][1] = -3 },
		"repeated extent": func(r *rawEvents) {
			r.allocs = append(r.allocs, r.allocs[len(r.allocs)-1])
			r.nAllocs++
		},
		"missing block": func(r *rawEvents) {
			r.blocks = r.blocks[:len(r.blocks)-1]
			r.nBlocks--
		},
		"extra block": func(r *rawEvents) {
			last := r.blocks[len(r.blocks)-1]
			r.blocks = append(r.blocks, vm.EventBlock{Start: last.End, End: last.End + 1})
			r.nBlocks++
		},
		"moved boundary": func(r *rawEvents) {
			r.blocks[0].End++
			r.blocks[1].Start++
		},
		"shifted spans": func(r *rawEvents) {
			for i := range r.blocks {
				r.blocks[i].Start++
				r.blocks[i].End++
			}
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			r := base
			r.blocks = append([]vm.EventBlock(nil), base.blocks...)
			r.allocs = append([][2]int64(nil), base.allocs...)
			mutate(&r)
			if _, err := DecodeEvents(r.encode(), key, prog, eventsTestKV); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
	// Sound events of one program decoded for another whose layout
	// differs: the span list disagrees with that program's blocks.
	other := &vm.Program{Name: "other", Instrs: []vm.Instr{{Op: vm.OpRet}}}
	if _, err := DecodeEvents(EncodeEvents(key, ev, eventsTestKV), key, other, eventsTestKV); !errors.Is(err, ErrCorrupt) {
		t.Errorf("events decoded for a program with another layout: err = %v, want ErrCorrupt", err)
	}
}
