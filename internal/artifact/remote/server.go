package remote

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"mat2c/internal/artifact"
)

// Server exposes an artifact.Store over the blob protocol. It is an
// http.Handler factory: Mount registers its routes on a mux under a
// prefix (mat2cd uses /artifact), so the fleet coordinator's existing
// HTTP listener doubles as the cache origin.
//
// The server trusts nothing from the wire: keys are validated, PUT
// bodies must carry an exact Content-Length and a matching SHA-256
// trailer, and entries over the byte bound are refused with 507 before
// a byte is buffered. All handlers are safe for concurrent use (the
// underlying stores are).
type Server struct {
	store artifact.Store
	max   int64 // payload byte bound per entry

	mu    sync.Mutex
	stats artifact.Stats
}

// NewServer wraps store; maxEntryBytes bounds one entry's payload
// (DefaultMaxEntryBytes when <= 0).
func NewServer(store artifact.Store, maxEntryBytes int64) *Server {
	if maxEntryBytes <= 0 {
		maxEntryBytes = DefaultMaxEntryBytes
	}
	return &Server{store: store, max: maxEntryBytes}
}

// Mount registers the blob routes on mux under prefix (no trailing
// slash, e.g. "/artifact"). The stats document is served at the bare
// prefix; entries at {prefix}/{key}.
func (s *Server) Mount(mux *http.ServeMux, prefix string) {
	mux.HandleFunc("GET "+prefix+"/{key}", s.handleGet) // net/http routes HEAD through GET patterns
	mux.HandleFunc("PUT "+prefix+"/{key}", s.handlePut)
	mux.HandleFunc("DELETE "+prefix+"/{key}", s.handleDelete)
	mux.HandleFunc("POST "+prefix+"/batch", s.handleBatch)
	mux.HandleFunc("GET "+prefix, s.handleStats)
}

// Handler returns a standalone handler with the routes mounted at
// "/artifact" (tests and single-purpose origin processes).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Mount(mux, "/artifact")
	return mux
}

// Stats snapshots the server-side wire counters. Gets counts per-key
// GET and HEAD requests; Batches and BatchKeys count batch reads and
// the keys they asked for; Hits and Misses cover both. DecodeErrors
// counts PUT bodies rejected for a bad frame (checksum trailer
// mismatch, Content-Length violations).
func (s *Server) Stats() artifact.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Server) bump(f func(*artifact.Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// blobError mirrors the service's JSON error shape so artifact and API
// errors read the same in logs and tests.
func blobError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) key(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.PathValue("key")
	if err := artifact.ValidKey(key); err != nil {
		blobError(w, http.StatusBadRequest, "%v", err)
		return "", false
	}
	return key, true
}

// handleGet serves GET and HEAD: the framed entry (payload + SHA-256
// trailer) with an exact Content-Length, or 404 on a miss. HEAD pays
// the same store read — entries are small and the store bumps recency —
// but sends only the headers.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	key, ok := s.key(w, r)
	if !ok {
		return
	}
	s.bump(func(st *artifact.Stats) { st.Gets++ })
	data, err := s.store.Get(key)
	if err != nil {
		s.bump(func(st *artifact.Stats) { st.Misses++ })
		if errors.Is(err, artifact.ErrNotFound) {
			blobError(w, http.StatusNotFound, "no artifact under %s", key)
		} else {
			blobError(w, http.StatusInternalServerError, "artifact read failed: %v", err)
		}
		return
	}
	s.bump(func(st *artifact.Stats) { st.Hits++ })
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(data)+artifact.TrailerSize))
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
		return
	}
	if n, err := w.Write(artifact.Seal(make([]byte, 0, len(data)+artifact.TrailerSize), data)); err == nil {
		s.bump(func(st *artifact.Stats) { st.BytesOut += int64(n) })
	}
}

// handlePut stores one framed entry. The body must declare its exact
// length (411 otherwise), fit the entry bound (507 otherwise — the
// origin refuses to blow its budget on one entry), and carry a valid
// SHA-256 trailer (400 otherwise). Storage failures are 507: the
// origin is alive but cannot take the bytes.
func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	key, ok := s.key(w, r)
	if !ok {
		return
	}
	cl := r.ContentLength
	switch {
	case cl < 0:
		blobError(w, http.StatusLengthRequired, "PUT requires an exact Content-Length")
		return
	case cl <= artifact.TrailerSize:
		s.bump(func(st *artifact.Stats) { st.DecodeErrors++ })
		blobError(w, http.StatusBadRequest, "framed body must exceed its %d-byte checksum trailer", artifact.TrailerSize)
		return
	case cl > s.max+artifact.TrailerSize:
		// Refused before reading: an oversized (or forged) Content-Length
		// never makes the origin buffer it.
		s.bump(func(st *artifact.Stats) { st.PutErrors++ })
		blobError(w, http.StatusInsufficientStorage, "entry of %d bytes exceeds the %d-byte bound", cl-artifact.TrailerSize, s.max)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, cl+1))
	if err != nil {
		s.bump(func(st *artifact.Stats) { st.PutErrors++ })
		blobError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) != cl {
		s.bump(func(st *artifact.Stats) { st.DecodeErrors++ })
		blobError(w, http.StatusBadRequest, "body length %d disagrees with Content-Length %d", len(body), cl)
		return
	}
	payload, err := artifact.Unseal(body)
	if err != nil {
		s.bump(func(st *artifact.Stats) { st.DecodeErrors++ })
		blobError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.bump(func(st *artifact.Stats) { st.Puts++; st.BytesIn += int64(len(body)) })
	if err := s.store.Put(key, payload); err != nil {
		s.bump(func(st *artifact.Stats) { st.PutErrors++ })
		blobError(w, http.StatusInsufficientStorage, "store rejected %s: %v", key, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleBatch serves a batch read: the request body lists keys one per
// line, and the reply streams one frame per key in request order, then
// the end marker (see the package comment for the layout). More than
// MaxBatchKeys keys is a 413, refused before the keys are looked up;
// an invalid key is a 400. A key the store does not hold is absent;
// any other store error fails the read as handleGet's 500 does, so the
// client counts the failure and falls back: with a 500 when no frame
// has reached the wire yet, or else by cutting the reply off.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	const maxLine = 256 + 1 // the longest valid key and its newline
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxBatchKeys*maxLine+1))
	if err != nil {
		blobError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	tooMany := func() {
		blobError(w, http.StatusRequestEntityTooLarge, "a batch reads at most %d keys", MaxBatchKeys)
	}
	if len(body) > MaxBatchKeys*maxLine {
		tooMany()
		return
	}
	var keys []string
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		key := string(line)
		if err := artifact.ValidKey(key); err != nil {
			blobError(w, http.StatusBadRequest, "%v", err)
			return
		}
		keys = append(keys, key)
	}
	if len(keys) > MaxBatchKeys {
		tooMany()
		return
	}
	s.bump(func(st *artifact.Stats) { st.Batches++; st.BatchKeys += uint64(len(keys)) })
	w.Header().Set("Content-Type", "application/octet-stream")
	bw := bufio.NewWriter(w)
	var buf []byte
	var hits, out int64
	for i, key := range keys {
		data, err := s.store.Get(key)
		if err != nil && !errors.Is(err, artifact.ErrNotFound) {
			s.bump(func(st *artifact.Stats) {
				st.Hits += uint64(hits)
				st.Misses += uint64(int64(i+1) - hits)
				st.BytesOut += out - int64(bw.Buffered())
			})
			if int64(bw.Buffered()) < out {
				panic(http.ErrAbortHandler) // frames went out: cut the reply
			}
			blobError(w, http.StatusInternalServerError, "artifact read failed: %v", err)
			return
		}
		buf = appendBatchFrame(buf[:0], key, data, err == nil)
		if err == nil {
			hits++
		}
		if _, err := bw.Write(buf); err != nil {
			return // the client went away
		}
		out += int64(len(buf))
	}
	bw.Write(appendBatchEnd(buf[:0]))
	bw.Flush()
	s.bump(func(st *artifact.Stats) {
		st.Hits += uint64(hits)
		st.Misses += uint64(int64(len(keys)) - hits)
		st.BytesOut += out
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	key, ok := s.key(w, r)
	if !ok {
		return
	}
	s.bump(func(st *artifact.Stats) { st.Deletes++ })
	if err := s.store.Delete(key); err != nil {
		if errors.Is(err, artifact.ErrNotFound) {
			blobError(w, http.StatusNotFound, "no artifact under %s", key)
		} else {
			blobError(w, http.StatusInternalServerError, "delete failed: %v", err)
		}
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	rep := StatsReply{Server: s.Stats()}
	if sr, ok := s.store.(artifact.StatsReporter); ok {
		st := sr.Stats()
		rep.Store = &st
	}
	if n, err := s.store.Len(); err == nil {
		rep.Entries = n
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
}
