// Package artifact defines the durable form of a compilation: a
// versioned, self-describing binary codec for compiled vm.Programs
// (program blobs, stored once per distinct program), the nodes of the
// compile tries a store files compilations in (EncodeQuery, and the
// records at their leaves that carry everything else a cache hit
// serves), and the events of verified runs (EncodeEvents), and a
// pluggable Store interface with a segment-file disk implementation.
// Together they turn the in-process compile cache into a tiered cache
// whose warm state survives restarts and is shareable between fleet
// replicas (docs/CACHE.md).
//
// The format follows the gopher-lua bytecode dump/load shape: a magic
// header, an explicit format version, length-prefixed fields in a fixed
// order, and a trailing SHA-256 checksum over everything before it.
// Decoding is strict and allocation-bounded: every count is validated
// against the bytes actually remaining before anything is allocated, so
// hostile input can produce an error but never a panic or an
// out-of-memory allocation. The decoders are fuzzed (FuzzDecodeProgram,
// FuzzDecodeRecord, FuzzDecodeArtifact, FuzzDecodeEvents) on exactly
// that contract.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Typed decode failures. Callers treat both as a cache miss; they are
// distinct so version churn (expected, self-healing) is observable
// separately from corruption (unexpected, worth alerting on).
var (
	// ErrCorrupt reports bytes that are not a well-formed artifact:
	// truncation, checksum mismatch, out-of-range fields, trailing
	// garbage.
	ErrCorrupt = errors.New("artifact: corrupt")
	// ErrVersion reports a well-formed artifact written under a
	// different format version or cache-key version; it decodes cleanly
	// under its own rules but is not usable here.
	ErrVersion = errors.New("artifact: version mismatch")
)

// writer serializes fields into a growing buffer. The zero value is
// ready to use.
type writer struct {
	buf []byte
}

func (w *writer) u8(v byte) { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}
func (w *writer) u64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}
func (w *writer) i64(v int64)   { w.u64(uint64(v)) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *writer) c128(v complex128) {
	w.f64(real(v))
	w.f64(imag(v))
}
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// bytes seals the buffer in place (Seal) and returns the final
// encoding.
func (w *writer) bytes() []byte { return Seal(w.buf[:0], w.buf) }

// TrailerSize is the length of the SHA-256 trailer Seal appends.
const TrailerSize = sha256.Size

// Seal appends payload and the SHA-256 trailer over it to dst and
// returns the extended slice. It is the one integrity rule for bytes at
// rest and on the wire: every artifact encoding, every blob-protocol
// entry body and every fleet unit reply is a sealed payload. To seal a
// buffer in place, pass it as both: Seal(buf[:0], buf).
func Seal(dst, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append(append(dst, payload...), sum[:]...)
}

// Unseal checks sealed's SHA-256 trailer and returns the payload before
// it, without copying. A body shorter than a trailer, or one whose
// trailer does not match, wraps ErrCorrupt.
func Unseal(sealed []byte) ([]byte, error) {
	if len(sealed) < TrailerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the checksum trailer", ErrCorrupt, len(sealed))
	}
	payload, sum := sealed[:len(sealed)-TrailerSize], sealed[len(sealed)-TrailerSize:]
	if want := sha256.Sum256(payload); string(want[:]) != string(sum) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// reader decodes fields with a sticky error. Every accessor returns a
// zero value once an error is recorded, so decoding logic never
// branches on partially-read garbage, and every length is checked
// against the remaining input before the corresponding allocation.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s (offset %d)", ErrCorrupt, fmt.Sprintf(format, args...), r.off)
	}
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.remaining() {
		r.fail("need %d bytes, have %d", n, r.remaining())
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) c128() complex128 {
	re := r.f64()
	im := r.f64()
	return complex(re, im)
}

// str reads a length-prefixed string. The stated length is validated
// against the remaining bytes before the copy, so a hostile length can
// never allocate beyond the input size.
func (r *reader) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if int64(n) > int64(r.remaining()) {
		r.fail("string length %d exceeds remaining %d", n, r.remaining())
		return ""
	}
	return string(r.take(int(n)))
}

// count reads an element count and bounds it by the bytes remaining:
// each element occupies at least minPer bytes on the wire, so any count
// above remaining/minPer is lying and is rejected before the caller
// allocates a slice for it.
func (r *reader) count(minPer int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if minPer < 1 {
		minPer = 1
	}
	if int64(n) > int64(r.remaining()/minPer) {
		r.fail("count %d exceeds plausible maximum %d", n, r.remaining()/minPer)
		return 0
	}
	return int(n)
}

// enum reads a u8 and bounds it to [0, max].
func (r *reader) enum(name string, max int) int {
	v := int(r.u8())
	if r.err == nil && v > max {
		r.fail("%s %d out of range [0,%d]", name, v, max)
		return 0
	}
	return v
}

// done reports the sticky error, or complains about trailing bytes —
// a well-formed artifact is consumed exactly.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		r.fail("%d trailing bytes", r.remaining())
	}
	return r.err
}

// checkWrapper verifies the outermost framing shared by every artifact
// kind: a sealed payload (Unseal) that starts with a 4-byte magic. It
// returns the payload (magic included, so format-version fields stay
// under the checksum) as a reader positioned after the magic.
func checkWrapper(data []byte, magic string) (*reader, error) {
	body, err := Unseal(data)
	if err != nil {
		return nil, err
	}
	if len(body) < len(magic) || string(body[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, body[:min(len(body), len(magic))])
	}
	return &reader{buf: body, off: len(magic)}, nil
}
