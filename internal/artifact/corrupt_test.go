package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// reseal recomputes the trailing checksum after a test mutated the
// body, producing bytes that pass the integrity check and exercise the
// field-level validation behind it.
func reseal(data []byte) []byte {
	body := data[:len(data)-sha256.Size]
	sum := sha256.Sum256(body)
	return append(append([]byte(nil), body...), sum[:]...)
}

// TestDecodeTruncationEveryBoundary cuts a valid encoding at every
// single byte offset. Every prefix must decode to a typed error — the
// checksum no longer matches (or the frame is too short), so always
// ErrCorrupt — and must never panic.
func TestDecodeTruncationEveryBoundary(t *testing.T) {
	rec, prog := testArtifact(t)
	t.Run("program", func(t *testing.T) {
		data := EncodeProgram(prog)
		for i := 0; i < len(data); i++ {
			if _, err := DecodeProgram(data[:i]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation at %d/%d: err = %v, want ErrCorrupt", i, len(data), err)
			}
		}
	})
	t.Run("record", func(t *testing.T) {
		data := EncodeRecord(rec, "kv")
		for i := 0; i < len(data); i++ {
			if _, err := DecodeRecord(data[:i], "kv"); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation at %d/%d: err = %v, want ErrCorrupt", i, len(data), err)
			}
		}
	})
}

// TestDecodeSingleBitFlips flips one bit at a time across a whole
// record encoding (checksum bytes included). Every flip must surface as
// ErrCorrupt: the trailing SHA-256 catches any body change, and a flip
// inside the checksum itself mismatches the intact body.
func TestDecodeSingleBitFlips(t *testing.T) {
	rec, _ := testArtifact(t)
	data := EncodeRecord(rec, "kv")
	// Step through offsets (every one for small inputs, sampled for
	// large) and all 8 bits at each.
	step := 1
	if len(data) > 4096 {
		step = len(data) / 4096
	}
	for off := 0; off < len(data); off += step {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[off] ^= 1 << bit
			if _, err := DecodeRecord(mut, "kv"); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("bit flip at byte %d bit %d: err = %v, want ErrCorrupt", off, bit, err)
			}
		}
	}
}

// TestStaleFormatVersion rewrites the format-version field (offset 4,
// right after the magic) and reseals, simulating an entry written by a
// future build: well-formed, wrong version, ErrVersion.
func TestStaleFormatVersion(t *testing.T) {
	rec, prog := testArtifact(t)
	t.Run("program", func(t *testing.T) {
		data := append([]byte(nil), EncodeProgram(prog)...)
		binary.LittleEndian.PutUint32(data[4:], programVersion+1)
		if _, err := DecodeProgram(reseal(data)); !errors.Is(err, ErrVersion) {
			t.Fatalf("stale program version: err = %v, want ErrVersion", err)
		}
	})
	t.Run("record", func(t *testing.T) {
		data := append([]byte(nil), EncodeRecord(rec, "kv")...)
		binary.LittleEndian.PutUint32(data[4:], recordVersion+1)
		if _, err := DecodeRecord(reseal(data), "kv"); !errors.Is(err, ErrVersion) {
			t.Fatalf("stale record version: err = %v, want ErrVersion", err)
		}
	})
}

// TestMismatchedKeyVersion decodes a record written under a different
// cache-key version: structurally valid, semantically from another
// compiler, ErrVersion.
func TestMismatchedKeyVersion(t *testing.T) {
	rec, _ := testArtifact(t)
	data := EncodeRecord(rec, "old-cache-semantics")
	if _, err := DecodeRecord(data, "new-cache-semantics"); !errors.Is(err, ErrVersion) {
		t.Fatalf("key-version mismatch: err = %v, want ErrVersion", err)
	}
}

// TestWrongMagic feeds one kind's encoding to the other kind's decoder.
func TestWrongMagic(t *testing.T) {
	rec, prog := testArtifact(t)
	if _, err := DecodeProgram(EncodeRecord(rec, "kv")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("record bytes through DecodeProgram: err = %v, want ErrCorrupt", err)
	}
	if _, err := DecodeRecord(EncodeProgram(prog), "kv"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("program bytes through DecodeRecord: err = %v, want ErrCorrupt", err)
	}
}

// TestHostileCounts builds a sealed program whose instruction count
// claims far more elements than the input holds. The count bound must
// reject it before allocating.
func TestHostileCounts(t *testing.T) {
	var w writer
	w.buf = append(w.buf, programMagic...)
	w.u32(programVersion)
	w.str("evil")
	w.u32(1)          // NumRegs
	w.u32(0)          // arrays
	w.u32(0)          // params
	w.u32(0)          // results
	w.u32(0xFFFFFFFF) // instruction count: ~4 billion, input has ~0 bytes left
	data := w.bytes()
	if _, err := DecodeProgram(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile count: err = %v, want ErrCorrupt", err)
	}
}

// TestRecordHostileCounts builds sealed records whose warning or
// intrinsic count claims far more elements than the input holds; each
// must be rejected before allocating.
func TestRecordHostileCounts(t *testing.T) {
	const hostile = 0xFFFFFFFF
	// The u32 fields after the C artifacts, up to the forged count: the
	// warning count, the vectorized-loop count and the intrinsic count.
	for name, tail := range map[string][]uint32{
		"warnings":   {hostile},
		"intrinsics": {0, 0, hostile},
	} {
		var w writer
		w.buf = append(w.buf, recordMagic...)
		w.u32(recordVersion)
		for _, s := range []string{"kv", "key", "entry", strings.Repeat("ab", 32), "", "", ""} {
			w.str(s)
		}
		for _, v := range tail {
			w.u32(v)
		}
		if _, err := DecodeRecord(w.bytes(), "kv"); !errors.Is(err, ErrCorrupt) {
			t.Errorf("hostile %s count: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestRecordRejectsBadProgramHash: a sealed record whose program hash
// is not a hex digest (say, a path) is corrupt, so no caller ever turns
// it into a store key.
func TestRecordRejectsBadProgramHash(t *testing.T) {
	rec, _ := testArtifact(t)
	for _, hash := range []string{"", "../../etc/passwd", strings.Repeat("A", 64), rec.ProgramHash + "0"} {
		bad := *rec
		bad.ProgramHash = hash
		if _, err := DecodeRecord(EncodeRecord(&bad, "kv"), "kv"); !errors.Is(err, ErrCorrupt) {
			t.Errorf("program hash %q: err = %v, want ErrCorrupt", hash, err)
		}
	}
}

// TestHostileStringLength claims a string far longer than the input.
func TestHostileStringLength(t *testing.T) {
	var w writer
	w.buf = append(w.buf, programMagic...)
	w.u32(programVersion)
	w.u32(0x7FFFFFFF) // Name length prefix, nothing behind it
	data := w.bytes()
	if _, err := DecodeProgram(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile string length: err = %v, want ErrCorrupt", err)
	}
}

// TestTrailingBytesRejected reseals a valid body with padding inserted
// before the checksum: the checksum passes, but the decoder must
// consume the input exactly.
func TestTrailingBytesRejected(t *testing.T) {
	_, prog := testArtifact(t)
	data := EncodeProgram(prog)
	body := append([]byte(nil), data[:len(data)-sha256.Size]...)
	body = append(body, 0xAB, 0xCD)
	if _, err := DecodeProgram(reseal(append(body, make([]byte, sha256.Size)...))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: err = %v, want ErrCorrupt", err)
	}
}

// TestOutOfRangeEnums rewrites an opcode byte beyond the decoder's
// bound and reseals; the enum check must reject it as corrupt rather
// than hand the VM an unknown operation.
func TestOutOfRangeEnums(t *testing.T) {
	var w writer
	w.buf = append(w.buf, programMagic...)
	w.u32(programVersion)
	w.str("f")
	w.u32(1)   // NumRegs
	w.u32(0)   // arrays
	w.u32(0)   // params
	w.u32(0)   // results
	w.u32(1)   // one instruction
	w.u8(0xFF) // opcode far beyond maxOpc
	// The rest of the instruction, all zero.
	w.u8(0)
	w.u32(0)
	w.u8(0)
	w.u8(0)
	w.i64(0)
	w.i64(0)
	w.i64(0)
	w.u32(0)
	w.i64(0)
	w.f64(0)
	w.c128(0)
	w.i64(0)
	w.i64(0)
	w.str("")
	w.str("")
	if _, err := DecodeProgram(w.bytes()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-range opcode: err = %v, want ErrCorrupt", err)
	}
}
