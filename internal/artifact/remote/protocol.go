// Package remote shares one artifact store across a fleet: an HTTP
// server that exposes any artifact.Store (in practice the coordinator's
// DiskStore) over a small content-addressed blob protocol, and a
// RemoteStore client that implements artifact.Store against it so it
// slots behind mat2c.Cache as a third tier (mem → local disk → remote).
//
// The protocol is four per-key verbs, one batch read and a stats
// document, all rooted at one prefix (mat2cd mounts it at /artifact):
//
//	GET    {prefix}/{key}  200 framed entry | 404 miss
//	HEAD   {prefix}/{key}  200 (Content-Length of the framed entry) | 404
//	PUT    {prefix}/{key}  204 stored | 400 bad frame | 507 over budget
//	DELETE {prefix}/{key}  204 deleted | 404 miss
//	POST   {prefix}/batch  200 batch reply | 400 bad key | 413 over MaxBatchKeys | 500 store failure
//	GET    {prefix}        JSON stats (server traffic + backing store)
//
// Every entry body on the wire — GET responses and PUT requests alike —
// is framed as the payload followed by a 32-byte SHA-256 trailer over
// the payload (artifact.Seal), with Content-Length covering both. Both
// ends verify the trailer before trusting a byte, so a truncated,
// bit-flipped, or hostile body is detected at the transport seam (on
// top of the artifact codec's own checksum behind it). Keys are content
// addresses: racing writers store identical bytes, so the protocol
// needs no conditional requests.
//
// A batch read asks for up to MaxBatchKeys keys, one per line of the
// request body. The reply streams one frame per requested key, in
// request order, then an end marker (integers little-endian):
//
//	frame: u16 key length | key | u8 1 (present) | u32 n | n bytes: payload + SHA-256 trailer
//	       u16 key length | key | u8 0 (absent)
//	end:   u16 0
//
// A key the store does not hold is absent. Any other store error fails
// the read as it fails a GET: with a 500 before the first frame goes
// out, or else by cutting the reply off.
//
// The client checks each present frame like a GET body — a frame that
// fails its trailer is corrupt for its key only — and rejects the whole
// reply when it is truncated, lacks the end marker, or carries a frame
// for any key but the next one asked for. A frame length over the entry
// bound is rejected before its bytes are read. An origin without the
// route (404 or 405), or any failed batch, leaves the client's caller
// to read the keys one GET at a time.
//
// Failure semantics are deliberately lopsided: the server is strict
// (a bad frame is a 400, an over-budget entry a 507), the client is
// forgiving (any failure — network, timeout, corrupt frame, open
// circuit breaker — degrades to a miss, and the cache above recompiles).
// A remote outage must never fail a request; the breaker bounds how
// long it can slow one.
package remote

import (
	"encoding/binary"
	"fmt"
	"io"

	"mat2c/internal/artifact"
)

// DefaultMaxEntryBytes bounds one framed entry on the wire (64 MiB).
// Real artifacts are a few KiB to a few hundred KiB; the bound exists
// so a hostile or corrupt Content-Length cannot make either end buffer
// unbounded memory.
const DefaultMaxEntryBytes = 64 << 20

// MaxBatchKeys bounds the keys one batch read may ask for. The server
// answers a larger request with 413; the client splits its reads so
// none is larger.
const MaxBatchKeys = 1024

// Batch frame markers.
const (
	batchAbsent  = 0
	batchPresent = 1
)

// appendBatchFrame appends key's batch frame to buf: the framed entry
// when present, an absent marker otherwise.
func appendBatchFrame(buf []byte, key string, payload []byte, present bool) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(key)))
	buf = append(buf, key...)
	if !present {
		return append(buf, batchAbsent)
	}
	buf = append(buf, batchPresent)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)+artifact.TrailerSize))
	return artifact.Seal(buf, payload)
}

// appendBatchEnd appends the end marker that closes a batch reply.
func appendBatchEnd(buf []byte) []byte { return binary.LittleEndian.AppendUint16(buf, 0) }

// decodeBatch reads a batch reply to a request for keys from r. It
// returns one answer per key: the verified payload, an error wrapping
// artifact.ErrNotFound for an absent frame, or one wrapping
// artifact.ErrCorrupt for a frame whose trailer does not match. A reply
// that is cut short, lacks its end marker, carries a frame for any key
// but the next one asked for, has bytes after its end marker, or states
// a length over maxEntry (before any of those bytes are read) fails as
// a whole with an error wrapping artifact.ErrCorrupt; an error reading
// r is returned as it is.
func decodeBatch(r io.Reader, keys []string, maxEntry int64) ([]artifact.Fetched, error) {
	corrupt := func(format string, args ...interface{}) error {
		return fmt.Errorf("%w: batch reply: %s", artifact.ErrCorrupt, fmt.Sprintf(format, args...))
	}
	read := func(n int, what string) ([]byte, error) {
		var b []byte
		var err error
		if n <= 1<<16 {
			b = make([]byte, n)
			_, err = io.ReadFull(r, b)
		} else if b, err = io.ReadAll(io.LimitReader(r, int64(n))); err == nil && len(b) < n {
			// Large frames grow as their bytes arrive, so a stated
			// length cannot make the reader allocate what is not sent.
			err = io.ErrUnexpectedEOF
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, corrupt("cut short in %s", what)
		}
		return b, err
	}
	out := make([]artifact.Fetched, 0, len(keys))
	for {
		b, err := read(2, "a frame header")
		if err != nil {
			return nil, err
		}
		n := int(binary.LittleEndian.Uint16(b))
		if n == 0 {
			break
		}
		if len(out) == len(keys) {
			return nil, corrupt("a frame after all %d keys", len(keys))
		}
		want := keys[len(out)]
		if n != len(want) {
			return nil, corrupt("frame %d names a %d-byte key, want %s", len(out), n, want)
		}
		if b, err = read(n+1, "a frame key"); err != nil {
			return nil, err
		}
		if string(b[:n]) != want {
			return nil, corrupt("frame %d is for %q, want %s", len(out), b[:n], want)
		}
		switch b[n] {
		case batchAbsent:
			out = append(out, artifact.Fetched{Err: fmt.Errorf("%w: %s", artifact.ErrNotFound, want)})
			continue
		case batchPresent:
		default:
			return nil, corrupt("frame %d has marker %d", len(out), b[n])
		}
		if b, err = read(4, "a frame length"); err != nil {
			return nil, err
		}
		size := int64(binary.LittleEndian.Uint32(b))
		if size > maxEntry+artifact.TrailerSize {
			return nil, corrupt("frame %d states %d bytes, over the %d-byte entry bound", len(out), size, maxEntry)
		}
		if b, err = read(int(size), "a frame body"); err != nil {
			return nil, err
		}
		payload, err := artifact.Unseal(b)
		out = append(out, artifact.Fetched{Data: payload, Err: err})
	}
	if len(out) != len(keys) {
		return nil, corrupt("ended after %d of %d keys", len(out), len(keys))
	}
	if _, err := io.ReadFull(r, make([]byte, 1)); err == nil {
		return nil, corrupt("bytes after the end marker")
	} else if err != io.EOF {
		return nil, err
	}
	return out, nil
}

// StatsReply is the stats document served at GET {prefix}: the server's
// own wire traffic, the backing store's counters when it reports them,
// and the committed entry count.
type StatsReply struct {
	Server  artifact.Stats  `json:"server"`
	Store   *artifact.Stats `json:"store,omitempty"`
	Entries int             `json:"entries"`
}
