// Package faults is test support: an http.Handler middleware that puts
// seeded network faults between a client and a real handler. A fault
// test runs one seed per subtest, so a failure replays with
// -run 'Test/seed=N$'.
package faults

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"mat2c/internal/clock"
)

// Kind is one fault.
type Kind int

const (
	// None passes the request through untouched.
	None Kind = iota
	// Drop aborts the connection before any reply.
	Drop
	// Delay sleeps up to a second on the injector's clock, then serves
	// the request: on a fake clock the reply takes that long.
	Delay
	// Shed answers 503 with Retry-After 0 or 1.
	Shed
	// Truncate sends half of a 200 reply's body under the full
	// Content-Length, then aborts the connection.
	Truncate
	// Corrupt flips one byte of a 200 reply's body.
	Corrupt
	// Reorder duplicates one part of a 200 reply and swaps it with its
	// neighbour. Only a Mangle hook knows what a reply's parts are;
	// without one, Reorder fits no reply.
	Reorder
)

// maxDelay bounds a Delay.
const maxDelay = time.Second

// Injector faults a share of the requests to the handlers it wraps.
// Whether a request is faulted, and how, depends only on the seed, the
// request (method, path and body) and how many times the same request
// came before, so a run meets the same faults whatever the goroutine
// interleaving. Handlers wrapped by one Injector share that count.
type Injector struct {
	// Mangle, when set before the injector serves, applies Corrupt and
	// Reorder to a copy of a 200 reply's body in place of the default,
	// for replies whose parts only the protocol knows. It gets the
	// request and its body, and returns the mangled reply or nil when
	// the fault does not fit it.
	Mangle func(kind Kind, rng *rand.Rand, r *http.Request, req, reply []byte) []byte

	seed  int64
	clock clock.Clock

	mu     sync.Mutex
	rate   float64
	kinds  []Kind
	seen   map[[32]byte]int
	events []Kind
}

// New returns an injector that sleeps on clk for Delay. It faults
// nothing until Set.
func New(seed int64, clk clock.Clock) *Injector {
	return &Injector{seed: seed, clock: clk, seen: map[[32]byte]int{}}
}

// Set makes the injector fault a share rate of the requests, with a
// fault drawn uniformly from kinds.
func (in *Injector) Set(rate float64, kinds ...Kind) {
	in.mu.Lock()
	in.rate, in.kinds = rate, kinds
	in.mu.Unlock()
}

// Events returns the fault each request met so far, in arrival order.
// A fault that does not fit the reply (a body fault of an empty or
// failed reply, Reorder without a Mangle hook) is recorded as None.
func (in *Injector) Events() []Kind {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Kind(nil), in.events...)
}

// Wrap returns next behind the injector.
func (in *Injector) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		rng, kind := in.draw(r, body)
		if kind == None || kind == Delay {
			in.record(kind)
			if kind == Delay {
				in.clock.Sleep(time.Duration(rng.Int63n(int64(maxDelay))))
			}
			next.ServeHTTP(w, r)
			return
		}
		var rec *httptest.ResponseRecorder
		var out []byte
		if kind != Drop && kind != Shed {
			rec = httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			if out = in.mangle(kind, rng, r, body, rec); out == nil {
				kind = None
			}
		}
		in.record(kind)
		switch kind {
		case Drop:
			panic(http.ErrAbortHandler)
		case Shed:
			w.Header().Set("Retry-After", strconv.Itoa(rng.Intn(2)))
			http.Error(w, "shed by fault injection", http.StatusServiceUnavailable)
			return
		case None:
			out = rec.Body.Bytes()
		default:
			rec.Header().Set("Content-Length", strconv.Itoa(len(out)))
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		if kind == Truncate {
			w.Write(out[:len(out)/2])
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}
		w.Write(out)
	})
}

// draw decides the fault for one request.
func (in *Injector) draw(r *http.Request, body []byte) (*rand.Rand, Kind) {
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, in.seed)
	io.WriteString(h, r.Method+" "+r.URL.Path+"\n")
	h.Write(body)
	var id [32]byte
	h.Sum(id[:0])
	in.mu.Lock()
	n := in.seen[id]
	in.seen[id] = n + 1
	rate, kinds := in.rate, in.kinds
	in.mu.Unlock()
	binary.Write(h, binary.LittleEndian, int64(n))
	rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(h.Sum(nil)))))
	if len(kinds) == 0 || rng.Float64() >= rate {
		return rng, None
	}
	return rng, kinds[rng.Intn(len(kinds))]
}

func (in *Injector) record(k Kind) {
	in.mu.Lock()
	in.events = append(in.events, k)
	in.mu.Unlock()
}

// mangle applies a body fault to a copy of a 200 reply's body, or
// returns nil when the fault does not fit the reply.
func (in *Injector) mangle(kind Kind, rng *rand.Rand, r *http.Request, req []byte, rec *httptest.ResponseRecorder) []byte {
	body := bytes.Clone(rec.Body.Bytes())
	switch {
	case rec.Code != http.StatusOK || len(body) == 0:
		return nil
	case kind == Truncate:
		return body
	case in.Mangle != nil:
		return in.Mangle(kind, rng, r, req, body)
	case kind == Corrupt:
		body[rng.Intn(len(body))] ^= 0x20
		return body
	}
	return nil
}
