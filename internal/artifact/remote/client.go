package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"mat2c/internal/artifact"
	"mat2c/internal/clock"
)

// ErrUnavailable marks operations refused or abandoned because the
// remote store is unreachable — a transport failure, an exhausted retry
// budget, or a fast-fail while the circuit breaker is open. Callers
// treat it exactly like a miss; it exists so stats and tests can tell
// "the entry is not there" from "we could not ask".
var ErrUnavailable = errors.New("artifact remote: store unavailable")

// Client timing. These are fixed: a dead remote costs a request at most
// one OpTimeout per attempt until the breaker trips, and nothing at all
// afterwards. Connection refusals fail in microseconds; only a hung
// origin pays the full OpTimeout.
const (
	// OpTimeout bounds each HTTP attempt (not the whole operation).
	OpTimeout = 2 * time.Second
	// MaxAttempts bounds attempts per operation. Transient failures
	// (transport errors, 5xx) retry after clock.Backoff(BackoffBase,
	// BackoffMax, n); permanent outcomes (404, 400, 507, corrupt frames)
	// do not.
	MaxAttempts = 3
	BackoffBase = 50 * time.Millisecond
	BackoffMax  = 500 * time.Millisecond
	// BreakerThreshold consecutive failed attempts trip the breaker open.
	// While it is open every operation fails fast with ErrUnavailable
	// until BreakerCooldown has passed; then one half-open probe decides
	// between closing it and re-opening it for another cooldown.
	BreakerThreshold = 5
	BreakerCooldown  = 5 * time.Second
)

// Options configures a RemoteStore.
type Options struct {
	// Client issues the HTTP requests (default: a fresh client; each
	// attempt is bounded by its own OpTimeout context, so no
	// Client.Timeout is needed).
	Client *http.Client
}

// Breaker states.
const (
	stClosed = iota
	stOpen
	stHalfOpen
)

// RemoteStore is an artifact.Store client against a blob-protocol
// server. It is safe for concurrent use. Every failure mode degrades to
// an error the cache layer treats as a miss; a response that fails the
// frame checksum (or lies about its length) is classified as corrupt
// (errors.Is artifact.ErrCorrupt) and counted, so a hostile or broken
// origin is indistinguishable from an empty one.
type RemoteStore struct {
	base   string
	client *http.Client
	// clock times the backoff and the breaker's cooldown. The per-attempt
	// OpTimeout stays on the wall clock: it is a limit on one request,
	// not what decides an outcome.
	clock clock.Clock
	// maxEntry bounds one entry's payload on receive and send
	// (DefaultMaxEntryBytes); a response claiming or carrying more is
	// corrupt, never buffered whole.
	maxEntry int64

	mu          sync.Mutex
	stats       artifact.Stats
	state       int
	consecutive int       // failed attempts since the last success
	openedAt    time.Time // when the breaker last tripped
	probing     bool      // a half-open probe is in flight
}

// New builds a client for the blob endpoint at base (e.g.
// "http://coordinator:8723/artifact", no trailing slash).
func New(base string, opt Options) *RemoteStore {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	if opt.Client == nil {
		opt.Client = &http.Client{}
	}
	return &RemoteStore{base: base, client: opt.Client, clock: clock.Real, maxEntry: DefaultMaxEntryBytes}
}

// Base returns the endpoint URL the client was built with.
func (r *RemoteStore) Base() string { return r.base }

// Stats snapshots the client-side traffic counters plus breaker state.
func (r *RemoteStore) Stats() artifact.Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	switch r.state {
	case stOpen:
		st.BreakerState = "open"
	case stHalfOpen:
		st.BreakerState = "half-open"
	default:
		st.BreakerState = "closed"
	}
	return st
}

func (r *RemoteStore) bump(f func(*artifact.Stats)) {
	r.mu.Lock()
	f(&r.stats)
	r.mu.Unlock()
}

// allow reports whether an operation may hit the wire right now, and
// transitions open → half-open once the cooldown has passed (claiming
// the single probe slot for the caller).
func (r *RemoteStore) allow() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case stClosed:
		return true
	case stOpen:
		if r.clock.Now().Sub(r.openedAt) < BreakerCooldown {
			return false
		}
		r.state = stHalfOpen
		r.probing = true
		return true
	default: // half-open: exactly one probe at a time
		if r.probing {
			return false
		}
		r.probing = true
		return true
	}
}

// success resets the breaker: any completed round-trip (including a
// clean 404) proves the origin healthy.
func (r *RemoteStore) success() {
	r.mu.Lock()
	r.state = stClosed
	r.consecutive = 0
	r.probing = false
	r.mu.Unlock()
}

// failure records one failed attempt; the threshold (or any failure
// while half-open) trips the breaker open for a fresh cooldown. It
// reports whether the breaker is open.
func (r *RemoteStore) failure() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.probing = false
	r.consecutive++
	if r.state == stHalfOpen || r.consecutive >= BreakerThreshold {
		if r.state != stOpen {
			r.stats.BreakerTrips++
		}
		r.state = stOpen
		r.openedAt = r.clock.Now()
		r.consecutive = 0
	}
	return r.state == stOpen
}

// do runs one operation through the breaker and retry policy. Each
// attempt is one request with body to url under its own OpTimeout. A
// transport error or a 5xx reply other than 507 (the origin refusing an
// entry, not an outage) is a transient failure, retried after a
// backoff; reply judges every other reply and reports whether its
// failure is worth retrying. A nil error or one wrapping
// artifact.ErrNotFound counts as a healthy round trip.
func (r *RemoteStore) do(op, method, url string, body []byte, reply func(*http.Response) (retryable bool, err error)) error {
	if !r.allow() {
		r.bump(func(st *artifact.Stats) { st.Unavailable++ })
		return fmt.Errorf("%w: %s: circuit open", ErrUnavailable, op)
	}
	var err error
	for i := 0; i < MaxAttempts; i++ {
		if i > 0 {
			r.clock.Sleep(clock.Backoff(BackoffBase, BackoffMax, i-1))
			r.bump(func(st *artifact.Stats) { st.Retries++ })
		}
		var retryable bool
		retryable, err = r.attempt(op, method, url, body, reply)
		if err == nil || errors.Is(err, artifact.ErrNotFound) {
			r.success()
			return err
		}
		if r.failure() || !retryable {
			break
		}
	}
	return err
}

// attempt makes one request for do.
func (r *RemoteStore) attempt(op, method, url string, body []byte, reply func(*http.Response) (bool, error)) (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), OpTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return true, transient(op, url, err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		resp.Body.Close()
	}()
	if resp.StatusCode >= 500 && resp.StatusCode != http.StatusInsufficientStorage {
		return true, transient(op, url, fmt.Errorf("status %d", resp.StatusCode))
	}
	return reply(resp)
}

func (r *RemoteStore) url(key string) string { return r.base + "/" + key }

// transient wraps a transport-level failure so exhausted retries
// surface as ErrUnavailable (a miss), never as a request error.
func transient(op, url string, err error) error {
	return fmt.Errorf("%w: %s %s: %v", ErrUnavailable, op, url, err)
}

// Get fetches and verifies one entry. 404 returns artifact.ErrNotFound
// (a clean miss); a frame violation returns artifact.ErrCorrupt (the
// cache counts it and treats it as a miss); transport failures and an
// open breaker return ErrUnavailable.
func (r *RemoteStore) Get(key string) ([]byte, error) {
	if err := artifact.ValidKey(key); err != nil {
		return nil, err
	}
	r.bump(func(st *artifact.Stats) { st.Gets++ })
	var payload []byte
	err := r.do("get", http.MethodGet, r.url(key), nil, func(resp *http.Response) (bool, error) {
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusNotFound:
			return false, fmt.Errorf("%w: %s", artifact.ErrNotFound, key)
		default:
			return false, fmt.Errorf("artifact remote: get %s: status %d", key, resp.StatusCode)
		}
		limit := r.maxEntry + artifact.TrailerSize
		if resp.ContentLength > limit {
			// A forged Content-Length is rejected before buffering.
			return false, fmt.Errorf("%w: advertised %d bytes exceeds the %d-byte entry bound", artifact.ErrCorrupt, resp.ContentLength, r.maxEntry)
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
		if err != nil {
			// A connection dying mid-body (origin restart) is transient.
			return true, transient("get", key, err)
		}
		if int64(len(body)) > limit {
			return false, fmt.Errorf("%w: body exceeds the %d-byte entry bound", artifact.ErrCorrupt, r.maxEntry)
		}
		if resp.ContentLength >= 0 && int64(len(body)) != resp.ContentLength {
			return false, fmt.Errorf("%w: body length %d disagrees with Content-Length %d", artifact.ErrCorrupt, len(body), resp.ContentLength)
		}
		payload, err = artifact.Unseal(body)
		return false, err
	})
	if err != nil {
		r.bump(func(st *artifact.Stats) {
			st.Misses++
			if errors.Is(err, artifact.ErrCorrupt) {
				st.DecodeErrors++
			}
		})
		return nil, err
	}
	r.bump(func(st *artifact.Stats) { st.Hits++; st.BytesIn += int64(len(payload) + artifact.TrailerSize) })
	return payload, nil
}

// GetBatch reads the entries under keys with batch requests of at most
// MaxBatchKeys keys each (artifact.BatchGetter). Each request is one
// operation under the breaker and retry policy. Every answer is checked
// like a Get's: an absent frame wraps artifact.ErrNotFound, a frame
// that fails its trailer wraps artifact.ErrCorrupt, and both count as
// misses. A request that fails — an outage, an open breaker, a reply
// cut short or malformed, or an origin without the batch route (404 or
// 405, which wraps artifact.ErrNotFound and counts as a healthy round
// trip) — fails the whole read, and the caller falls back to Get.
func (r *RemoteStore) GetBatch(keys []string) ([]artifact.Fetched, error) {
	for _, key := range keys {
		if err := artifact.ValidKey(key); err != nil {
			return nil, err
		}
	}
	out := make([]artifact.Fetched, 0, len(keys))
	for len(keys) > 0 {
		part := keys[:min(len(keys), MaxBatchKeys)]
		keys = keys[len(part):]
		got, err := r.getBatch(part)
		if err != nil {
			return nil, err
		}
		out = append(out, got...)
	}
	return out, nil
}

// getBatch makes one batch request.
func (r *RemoteStore) getBatch(keys []string) ([]artifact.Fetched, error) {
	r.bump(func(st *artifact.Stats) { st.Batches++; st.BatchKeys += uint64(len(keys)) })
	var got []artifact.Fetched
	err := r.do("batch", http.MethodPost, r.base+"/batch", []byte(strings.Join(keys, "\n")), func(resp *http.Response) (bool, error) {
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusNotFound, http.StatusMethodNotAllowed:
			return false, fmt.Errorf("%w: origin serves no batch route (status %d)", artifact.ErrNotFound, resp.StatusCode)
		default:
			return false, fmt.Errorf("artifact remote: batch of %d keys: status %d", len(keys), resp.StatusCode)
		}
		body := &readErr{r: bufio.NewReader(resp.Body)}
		var err error
		got, err = decodeBatch(body, keys, r.maxEntry)
		if body.err != nil {
			// A connection dying mid-reply (origin restart) is transient.
			return true, transient("batch", "", body.err)
		}
		return false, err
	})
	if err != nil {
		r.bump(func(st *artifact.Stats) {
			if errors.Is(err, artifact.ErrCorrupt) {
				st.DecodeErrors++
			}
		})
		return nil, err
	}
	r.bump(func(st *artifact.Stats) {
		for _, f := range got {
			switch {
			case f.Err == nil:
				st.Hits++
				st.BytesIn += int64(len(f.Data) + artifact.TrailerSize)
			case errors.Is(f.Err, artifact.ErrCorrupt):
				st.Misses++
				st.DecodeErrors++
			default:
				st.Misses++
			}
		}
	})
	return got, nil
}

// readErr passes reads through, keeping the first error other than
// io.EOF: the transport's, as opposed to a reply that ends too soon.
type readErr struct {
	r   io.Reader
	err error
}

func (e *readErr) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err != nil && err != io.EOF && e.err == nil {
		e.err = err
	}
	return n, err
}

// Has probes for an entry with HEAD; errors (including an open
// breaker) mean "could not ask", not "absent".
func (r *RemoteStore) Has(key string) (bool, error) {
	if err := artifact.ValidKey(key); err != nil {
		return false, err
	}
	var has bool
	err := r.do("head", http.MethodHead, r.url(key), nil, func(resp *http.Response) (bool, error) {
		has = resp.StatusCode == http.StatusOK
		if has || resp.StatusCode == http.StatusNotFound {
			return false, nil
		}
		return false, fmt.Errorf("artifact remote: head %s: status %d", key, resp.StatusCode)
	})
	return has, err
}

// Put frames and uploads one entry. Entries over the local bound are
// refused client-side; a 507 from the origin (its budget, its bound)
// is a permanent per-entry failure — counted, not retried.
func (r *RemoteStore) Put(key string, data []byte) error {
	if err := artifact.ValidKey(key); err != nil {
		return err
	}
	r.bump(func(st *artifact.Stats) { st.Puts++ })
	if int64(len(data)) > r.maxEntry {
		r.bump(func(st *artifact.Stats) { st.PutErrors++ })
		return fmt.Errorf("artifact remote: put %s: entry of %d bytes exceeds the %d-byte bound", key, len(data), r.maxEntry)
	}
	framed := artifact.Seal(make([]byte, 0, len(data)+artifact.TrailerSize), data)
	err := r.do("put", http.MethodPut, r.url(key), framed, func(resp *http.Response) (bool, error) {
		if resp.StatusCode == http.StatusNoContent || resp.StatusCode == http.StatusOK {
			return false, nil
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return false, fmt.Errorf("artifact remote: put %s: status %d: %s", key, resp.StatusCode, bytes.TrimSpace(msg))
	})
	if err != nil {
		r.bump(func(st *artifact.Stats) { st.PutErrors++ })
		return err
	}
	r.bump(func(st *artifact.Stats) { st.BytesOut += int64(len(framed)) })
	return nil
}

// Delete removes one entry (artifact.ErrNotFound when absent).
func (r *RemoteStore) Delete(key string) error {
	if err := artifact.ValidKey(key); err != nil {
		return err
	}
	r.bump(func(st *artifact.Stats) { st.Deletes++ })
	return r.do("delete", http.MethodDelete, r.url(key), nil, func(resp *http.Response) (bool, error) {
		switch resp.StatusCode {
		case http.StatusNoContent, http.StatusOK:
			return false, nil
		case http.StatusNotFound:
			return false, fmt.Errorf("%w: %s", artifact.ErrNotFound, key)
		}
		return false, fmt.Errorf("artifact remote: delete %s: status %d", key, resp.StatusCode)
	})
}

// Len asks the origin's stats document for its committed entry count.
func (r *RemoteStore) Len() (int, error) {
	var n int
	err := r.do("stats", http.MethodGet, r.base, nil, func(resp *http.Response) (bool, error) {
		if resp.StatusCode != http.StatusOK {
			return false, fmt.Errorf("artifact remote: stats: status %d", resp.StatusCode)
		}
		var rep StatsReply
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&rep); err != nil {
			return false, fmt.Errorf("artifact remote: stats: %v", err)
		}
		n = rep.Entries
		return false, nil
	})
	return n, err
}
