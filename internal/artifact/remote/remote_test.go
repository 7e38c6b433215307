package remote

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mat2c/internal/artifact"
	"mat2c/internal/clock"
)

// newClient returns a client for the blob endpoint at base on a fake
// clock, so its backoffs take no time and only the test moves its
// breaker's cooldown. It opens a connection per request: on a reused
// connection the transport itself would retry a GET or HEAD whose
// connection was dropped, and the tests count requests.
func newClient(base string, clk clock.Clock) *RemoteStore {
	c := New(base, Options{Client: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}})
	c.clock = clk
	return c
}

func openOrigin(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	store, err := artifact.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, 0)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func testClient(ts *httptest.Server) *RemoteStore {
	return newClient(ts.URL+"/artifact", clock.NewFake())
}

const testKey = "abcdef0123456789"

// --- framing ---

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{{}, []byte("x"), bytes.Repeat([]byte{0xA5}, 4096)} {
		got, err := unframe(frame(payload))
		if err != nil {
			t.Fatalf("unframe(frame(%d bytes)): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip of %d bytes changed the payload", len(payload))
		}
	}
}

func TestUnframeRejectsCorruption(t *testing.T) {
	framed := frame([]byte("the quick brown fox"))
	cases := map[string][]byte{
		"short body":     framed[:trailerSize-1],
		"empty body":     {},
		"flipped byte":   append(append([]byte{}, framed[0]^0x01), framed[1:]...),
		"flipped sum":    append(append([]byte{}, framed[:len(framed)-1]...), framed[len(framed)-1]^0x80),
		"truncated":      framed[:len(framed)-5],
		"extra byte":     append(append([]byte{}, framed...), 0),
		"trailer only":   framed[len(framed)-trailerSize:],
		"zeroed trailer": append(append([]byte{}, framed[:len(framed)-trailerSize]...), make([]byte, trailerSize)...),
	}
	for name, body := range cases {
		if _, err := unframe(body); !errors.Is(err, artifact.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// --- server semantics ---

func TestServerGetPutDelete(t *testing.T) {
	_, ts := openOrigin(t)
	c := testClient(ts)
	payload := []byte("compiled artifact bytes")

	if _, err := c.Get(testKey); !errors.Is(err, artifact.ErrNotFound) {
		t.Fatalf("get before put: %v, want ErrNotFound", err)
	}
	if has, err := c.Has(testKey); err != nil || has {
		t.Fatalf("has before put: %v %v, want false", has, err)
	}
	if err := c.Put(testKey, payload); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Get(testKey); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("get after put: %q %v", got, err)
	}
	if has, err := c.Has(testKey); err != nil || !has {
		t.Fatalf("has after put: %v %v, want true", has, err)
	}
	if n, err := c.Len(); err != nil || n != 1 {
		t.Fatalf("len: %d %v, want 1", n, err)
	}
	if err := c.Delete(testKey); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(testKey); !errors.Is(err, artifact.ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.BreakerState != "closed" {
		t.Fatalf("client stats: %+v", st)
	}
	if st.BytesIn != framedLen(payload) || st.BytesOut != framedLen(payload) {
		t.Fatalf("byte counters: in=%d out=%d want %d", st.BytesIn, st.BytesOut, framedLen(payload))
	}
}

func TestServerRejectsBadKeys(t *testing.T) {
	_, ts := openOrigin(t)
	for _, key := range []string{"a", "bad/key", "k", strings.Repeat("x", 300)} {
		resp, err := http.Get(ts.URL + "/artifact/" + key)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		// Path traversal characters never reach the handler (the mux 404s
		// multi-segment paths); everything else is the handler's 400.
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Errorf("key %q: status %d", key, resp.StatusCode)
		}
	}
}

func TestServerPutSemantics(t *testing.T) {
	store, err := artifact.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, 1024) // tiny entry bound
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/artifact/" + testKey

	put := func(body []byte) int {
		req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := put(frame([]byte("ok"))); got != http.StatusNoContent {
		t.Fatalf("valid put: status %d", got)
	}
	if got := put([]byte("too short")); got != http.StatusBadRequest {
		t.Fatalf("short body: status %d, want 400", got)
	}
	bad := frame([]byte("tampered payload"))
	bad[3] ^= 0x40
	if got := put(bad); got != http.StatusBadRequest {
		t.Fatalf("bad trailer: status %d, want 400", got)
	}
	if got := put(frame(bytes.Repeat([]byte{1}, 2048))); got != http.StatusInsufficientStorage {
		t.Fatalf("over-budget put: status %d, want 507", got)
	}
	st := srv.Stats()
	if st.DecodeErrors != 2 || st.PutErrors != 1 || st.Puts != 1 {
		t.Fatalf("server stats after hostile puts: %+v", st)
	}
}

func TestServerHead(t *testing.T) {
	_, ts := openOrigin(t)
	c := testClient(ts)
	payload := []byte("head me")
	if err := c.Put(testKey, payload); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Head(ts.URL + "/artifact/" + testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD status %d", resp.StatusCode)
	}
	if resp.ContentLength != framedLen(payload) {
		t.Fatalf("HEAD Content-Length %d, want %d", resp.ContentLength, framedLen(payload))
	}
	body, _ := httputilReadAll(resp)
	if len(body) != 0 {
		t.Fatalf("HEAD carried a %d-byte body", len(body))
	}
}

func httputilReadAll(resp *http.Response) ([]byte, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// --- client failure classification ---

// hostileHandler serves scripted bytes for GET so tests can forge every
// corruption the wire can produce.
type hostileHandler struct {
	mu    sync.Mutex
	serve func(w http.ResponseWriter)
}

func (h *hostileHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	f := h.serve
	h.mu.Unlock()
	f(w)
}

func (h *hostileHandler) set(f func(w http.ResponseWriter)) {
	h.mu.Lock()
	h.serve = f
	h.mu.Unlock()
}

func TestClientWireCorruptionMatrix(t *testing.T) {
	h := &hostileHandler{}
	ts := httptest.NewServer(h)
	defer ts.Close()

	const maxEntry = 1 << 16
	good := frame([]byte("payload"))

	cases := []struct {
		name  string
		serve func(w http.ResponseWriter)
	}{
		{"flipped payload byte", func(w http.ResponseWriter) {
			bad := append([]byte{}, good...)
			bad[2] ^= 0x10
			w.Header().Set("Content-Length", fmt.Sprint(len(bad)))
			w.Write(bad)
		}},
		{"wrong checksum trailer", func(w http.ResponseWriter) {
			bad := append([]byte{}, good...)
			bad[len(bad)-1] ^= 0xFF
			w.Header().Set("Content-Length", fmt.Sprint(len(bad)))
			w.Write(bad)
		}},
		{"body shorter than trailer", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", "5")
			w.Write([]byte("tiny!"))
		}},
		{"oversized content-length", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", fmt.Sprint(maxEntry+trailerSize+1))
			// The client must reject on the header alone; serve nothing.
		}},
		{"oversized chunked body", func(w http.ResponseWriter) {
			// No Content-Length: the body itself busts the bound.
			w.Write(frame(bytes.Repeat([]byte{7}, maxEntry+1)))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testClient(ts)
			c.maxEntry = maxEntry
			h.set(tc.serve)
			_, err := c.Get(testKey)
			if !errors.Is(err, artifact.ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
			st := c.Stats()
			if st.DecodeErrors != 1 || st.Misses != 1 || st.Hits != 0 {
				t.Fatalf("stats after corrupt response: %+v", st)
			}
			// Corruption is permanent per response: no retries burned.
			if st.Retries != 0 {
				t.Fatalf("corrupt response was retried %d times", st.Retries)
			}
		})
	}
}

// batchKeys are the keys the batch cases ask for; the reply a healthy
// origin gives holds the first and last, and not the middle one.
var batchKeys = []string{"aa00", "bb11", "cc22"}

// batchReply builds a reply from frames, closed by the end marker.
func batchReply(frames ...[]byte) []byte {
	return appendBatchEnd(bytes.Join(frames, nil))
}

func presentFrame(key, payload string) []byte {
	return appendBatchFrame(nil, key, []byte(payload), true)
}

func absentFrame(key string) []byte { return appendBatchFrame(nil, key, nil, false) }

// goodBatchReply is the healthy origin's reply to batchKeys.
func goodBatchReply() []byte {
	return batchReply(presentFrame("aa00", "first"), absentFrame("bb11"), presentFrame("cc22", "third"))
}

// serveBytes serves body as it is.
func serveBytes(body []byte) func(w http.ResponseWriter) {
	return func(w http.ResponseWriter) { w.Write(body) }
}

// TestClientWireCorruptionMatrixBatch forges every corruption of a
// batch reply. A reply that is cut short anywhere, lacks its end
// marker, answers keys out of turn or states an oversized frame fails
// as a whole: ErrCorrupt, nothing counted as a hit, nothing retried —
// the caller reads the keys one GET at a time instead. A frame whose
// trailer does not match is a miss for its key alone.
func TestClientWireCorruptionMatrixBatch(t *testing.T) {
	h := &hostileHandler{}
	ts := httptest.NewServer(h)
	defer ts.Close()
	const maxEntry = 1 << 16

	good := goodBatchReply()
	cases := []struct {
		name string
		body []byte
	}{
		{"missing end marker", good[:len(good)-2]},
		{"frame for a key not asked for", batchReply(presentFrame("aa00", "first"), absentFrame("bb11"), presentFrame("dd33", "fourth"))},
		{"duplicate frame", batchReply(presentFrame("aa00", "first"), presentFrame("aa00", "first"), absentFrame("bb11"), presentFrame("cc22", "third"))},
		{"frames out of order", batchReply(absentFrame("bb11"), presentFrame("aa00", "first"), presentFrame("cc22", "third"))},
		{"frame after the last key", batchReply(presentFrame("aa00", "first"), absentFrame("bb11"), presentFrame("cc22", "third"), absentFrame("cc22"))},
		{"bytes after the end marker", append(append([]byte{}, good...), 0)},
		{"unknown marker", batchReply(append(appendBatchFrame(nil, "aa00", nil, false)[:6], 7), absentFrame("bb11"), absentFrame("cc22"))},
		{"oversized frame length", func() []byte {
			// The stated length alone fails the reply: none of the 4 GiB
			// it announces is sent, or read.
			b := appendBatchFrame(nil, "aa00", nil, false)[:6]
			b = append(b, batchPresent, 0xff, 0xff, 0xff, 0xff)
			return b
		}()},
	}
	// Truncation at every byte of a healthy reply: frame boundaries and
	// mid-frame alike.
	for n := 0; n < len(good); n++ {
		cases = append(cases, struct {
			name string
			body []byte
		}{fmt.Sprintf("cut at byte %d", n), good[:n]})
	}
	for _, tc := range cases {
		c := testClient(ts)
		c.maxEntry = maxEntry
		h.set(serveBytes(tc.body))
		got, err := c.GetBatch(batchKeys)
		if !errors.Is(err, artifact.ErrCorrupt) || got != nil {
			t.Fatalf("%s: got %v, %v; want ErrCorrupt", tc.name, got, err)
		}
		st := c.Stats()
		if st.Batches != 1 || st.BatchKeys != 3 || st.DecodeErrors != 1 || st.Hits != 0 || st.Retries != 0 || st.Gets != 0 {
			t.Fatalf("%s: stats after a corrupt reply: %+v", tc.name, st)
		}
	}

	t.Run("one flipped checksum", func(t *testing.T) {
		third := presentFrame("cc22", "third")
		third[len(third)-1] ^= 0x40
		h.set(serveBytes(batchReply(presentFrame("aa00", "first"), absentFrame("bb11"), third)))
		c := testClient(ts)
		got, err := c.GetBatch(batchKeys)
		if err != nil {
			t.Fatal(err)
		}
		if string(got[0].Data) != "first" || got[0].Err != nil {
			t.Errorf("first key: %q %v", got[0].Data, got[0].Err)
		}
		if !errors.Is(got[1].Err, artifact.ErrNotFound) {
			t.Errorf("absent key: %v, want ErrNotFound", got[1].Err)
		}
		if !errors.Is(got[2].Err, artifact.ErrCorrupt) || got[2].Data != nil {
			t.Errorf("flipped key: %q %v, want ErrCorrupt", got[2].Data, got[2].Err)
		}
		if st := c.Stats(); st.Hits != 1 || st.Misses != 2 || st.DecodeErrors != 1 {
			t.Errorf("stats: %+v", st)
		}
	})

	for _, status := range []int{http.StatusNotFound, http.StatusMethodNotAllowed} {
		t.Run(fmt.Sprintf("origin without the route answers %d", status), func(t *testing.T) {
			h.set(func(w http.ResponseWriter) { w.WriteHeader(status) })
			c := testClient(ts)
			for i := 0; i < BreakerThreshold+1; i++ {
				if _, err := c.GetBatch(batchKeys); !errors.Is(err, artifact.ErrNotFound) {
					t.Fatalf("got %v, want ErrNotFound", err)
				}
			}
			// A missing route is a healthy origin: the breaker stays shut.
			if st := c.Stats(); st.BreakerState != "closed" || st.BreakerTrips != 0 || st.Retries != 0 || st.DecodeErrors != 0 {
				t.Fatalf("stats: %+v", st)
			}
		})
	}
}

// TestBatchAgainstServer reads through a real origin: present and
// absent keys answer as Get does, duplicate keys each get their answer,
// a read over MaxBatchKeys is split, and the counters on both ends
// agree.
func TestBatchAgainstServer(t *testing.T) {
	srv, ts := openOrigin(t)
	c := testClient(ts)
	if err := c.Put("aa00", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("cc22", []byte("third")); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetBatch([]string{"aa00", "bb11", "cc22", "aa00"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || string(got[0].Data) != "first" || !errors.Is(got[1].Err, artifact.ErrNotFound) ||
		string(got[2].Data) != "third" || string(got[3].Data) != "first" {
		t.Fatalf("batch answers: %+v", got)
	}
	if st := srv.Stats(); st.Batches != 1 || st.BatchKeys != 4 || st.Gets != 0 || st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("server stats: %+v", st)
	}

	keys := make([]string, MaxBatchKeys+1)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
	}
	keys[MaxBatchKeys] = "cc22"
	got, err = c.GetBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) || string(got[MaxBatchKeys].Data) != "third" {
		t.Fatalf("split read: %d answers, last %+v", len(got), got[len(got)-1])
	}
	if st := c.Stats(); st.Batches != 3 || st.BatchKeys != uint64(4+len(keys)) || st.Gets != 0 {
		t.Fatalf("client stats: %+v", st)
	}

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/artifact/batch", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(strings.Join(append(keys, "dd33"), "\n")); code != http.StatusRequestEntityTooLarge {
		t.Errorf("%d keys: status %d, want 413", len(keys)+1, code)
	}
	if code := post(strings.Repeat("x", MaxBatchKeys*257+1)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", code)
	}
	if code := post("aa00\n../etc"); code != http.StatusBadRequest {
		t.Errorf("bad key: status %d, want 400", code)
	}
}

// failingStore fails every read of one key, as a disk with a bad
// sector would.
type failingStore struct {
	artifact.Store
	bad string
}

func (s failingStore) Get(key string) ([]byte, error) {
	if key == s.bad {
		return nil, errors.New("read: input/output error")
	}
	return s.Store.Get(key)
}

// TestBatchStoreFailure: a store error other than a miss fails a batch
// read as it fails a Get, whether it comes before any frame went out
// (a 500) or after (the reply is cut off): the client retries, counts
// the failure against the breaker and returns ErrUnavailable, never an
// absent frame for the failing key. Each failing read runs on a fresh
// client, so the failures it counts do not trip the breaker.
func TestBatchStoreFailure(t *testing.T) {
	disk, err := artifact.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(failingStore{disk, "bad0"}, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := testClient(ts)
	if err := c.Put("aa00", []byte("small")); err != nil {
		t.Fatal(err)
	}
	// Larger than the server's write buffer, so its frame is on the
	// wire before the failing key is read.
	if err := c.Put("big0", bytes.Repeat([]byte("x"), 64<<10)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("bad0"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("get of the failing key: %v, want ErrUnavailable", err)
	}
	for _, keys := range [][]string{{"aa00", "bad0"}, {"big0", "bad0", "aa00"}} {
		c = testClient(ts)
		got, err := c.GetBatch(keys)
		if !errors.Is(err, ErrUnavailable) || got != nil {
			t.Fatalf("batch %v: %d answers, error %v; want ErrUnavailable", keys, len(got), err)
		}
		if st := c.Stats(); st.Retries != MaxAttempts-1 || st.DecodeErrors != 0 || st.BreakerState != "closed" {
			t.Errorf("batch %v: %d retries, %d decode errors, breaker %s; want %d retries, none, closed",
				keys, st.Retries, st.DecodeErrors, st.BreakerState, MaxAttempts-1)
		}
	}
	resp, err := http.Post(ts.URL+"/artifact/batch", "text/plain", strings.NewReader("aa00\nbad0"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("batch with a failing key: status %d, want 500", resp.StatusCode)
	}
	if got, err := c.GetBatch([]string{"aa00", "cc22"}); err != nil || string(got[0].Data) != "small" || !errors.Is(got[1].Err, artifact.ErrNotFound) {
		t.Errorf("healthy batch after failures: %+v, %v", got, err)
	}
}

func TestClientTruncatedBodyDegradesToMiss(t *testing.T) {
	// A Content-Length longer than the actual body makes the client's
	// read fail mid-stream (the server closes the connection) — that is
	// a transient transport failure, retried and then reported
	// unavailable, never a success.
	h := &hostileHandler{}
	h.set(func(w http.ResponseWriter) {
		w.Header().Set("Content-Length", "1000")
		w.Write([]byte("only this much"))
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := testClient(ts)
	_, err := c.Get(testKey)
	if err == nil {
		t.Fatal("truncated body produced a successful get")
	}
	if !errors.Is(err, ErrUnavailable) && !errors.Is(err, artifact.ErrCorrupt) {
		t.Fatalf("got %v, want ErrUnavailable or ErrCorrupt", err)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	var mu sync.Mutex
	fails := 2
	payload := frame([]byte("eventually"))
	h := &hostileHandler{}
	h.set(func(w http.ResponseWriter) {
		mu.Lock()
		n := fails
		fails--
		mu.Unlock()
		if n > 0 {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Length", fmt.Sprint(len(payload)))
		w.Write(payload)
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := testClient(ts)
	got, err := c.Get(testKey)
	if err != nil || string(got) != "eventually" {
		t.Fatalf("get after transient failures: %q %v", got, err)
	}
	st := c.Stats()
	if st.Retries != 2 || st.Hits != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// --- restart and concurrency ---

// TestConcurrentGetPutOneKey hammers one key from parallel getters and
// putters; run under -race this is the data-race canary for the client
// and server counters.
func TestConcurrentGetPutOneKey(t *testing.T) {
	_, ts := openOrigin(t)
	c := testClient(ts)
	payload := []byte("contended entry")
	if err := c.Put(testKey, payload); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := c.Put(testKey, payload); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				got, err := c.Get(testKey)
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if !bytes.Equal(got, payload) {
					t.Errorf("get returned %q", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.BreakerState != "closed" || st.DecodeErrors != 0 {
		t.Fatalf("stats after hammering: %+v", st)
	}
}

func TestClientPutOversizedEntry(t *testing.T) {
	_, ts := openOrigin(t)
	c := testClient(ts)
	c.maxEntry = 128
	err := c.Put(testKey, bytes.Repeat([]byte{1}, 256))
	if err == nil {
		t.Fatal("oversized put succeeded")
	}
	if st := c.Stats(); st.PutErrors != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestClientPut507NotRetried(t *testing.T) {
	h := &hostileHandler{}
	var mu sync.Mutex
	calls := 0
	h.set(func(w http.ResponseWriter) {
		mu.Lock()
		calls++
		mu.Unlock()
		w.WriteHeader(http.StatusInsufficientStorage)
	})
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := testClient(ts)
	if err := c.Put(testKey, []byte("refused")); err == nil {
		t.Fatal("507 put reported success")
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("507 was retried: %d calls", calls)
	}
}
