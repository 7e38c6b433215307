package artifact

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultDiskBudget bounds a DiskStore opened with budget <= 0:
// artifacts are a few KiB to a few hundred KiB each, so half a GiB
// holds on the order of 10^4 sweep variants.
const DefaultDiskBudget = 512 << 20

// entrySuffix marks committed entries; tmpPrefix marks in-flight writes
// (renamed into place on commit, swept by the janitor when a crash
// strands one).
const (
	entrySuffix = ".art"
	tmpPrefix   = ".tmp-"
)

// tmpMaxAge is how old a temp file must be before the janitor treats
// it as a crash leftover and deletes it; in-flight writes younger than
// this are never touched.
const tmpMaxAge = time.Hour

// DiskStore is a Store backed by a directory tree, sharded by the first
// two characters of the key so no single directory grows unboundedly:
//
//	root/ab/abcdef....art
//
// Writes are crash-safe: data lands in a temp file in the shard
// directory and is renamed into place, so readers (including other
// processes sharing the directory) observe either nothing or a complete
// entry. A byte-budget janitor evicts least-recently-used entries
// (mtime order; Get refreshes a stale mtime, see RecencyGranularity)
// once the tree exceeds the budget, and sweeps stranded temp files
// older than tmpMaxAge.
type DiskStore struct {
	root   string
	budget int64

	mu    sync.Mutex
	bytes int64 // committed entry bytes, maintained incrementally
	count int   // committed entry count
	stats Stats
}

// OpenDisk opens (creating if needed) a disk store rooted at dir with
// the given byte budget (DefaultDiskBudget when <= 0). The janitor runs
// once at open: its scan of the tree seeds the occupancy accounting,
// and a store left over budget by a crash trims itself on the next
// open.
//
// Where the filesystem supports it, the root is marked as the top of a
// directory hierarchy (chattr +T), so the shard directories are spread
// over the disk's block groups; see markTopDir.
func OpenDisk(dir string, budget int64) (*DiskStore, error) {
	if budget <= 0 {
		budget = DefaultDiskBudget
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: open disk store: %w", err)
	}
	markTopDir(dir) // best-effort placement hint for the shard directories
	s := &DiskStore{root: dir, budget: budget}
	s.mu.Lock()
	s.janitorLocked()
	s.mu.Unlock()
	return s, nil
}

// ValidKey rejects keys that could escape a store directory, collide
// with internal names, or break the blob protocol's URL layout. Cache
// keys are SHA-256 hex, so this is belt-and-braces, but the store is a
// public seam (and, with the remote tier, a network-facing one).
func ValidKey(key string) error {
	if len(key) < 2 || len(key) > 256 {
		return fmt.Errorf("artifact: invalid key %q: length out of range", key)
	}
	for _, c := range key {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return fmt.Errorf("artifact: invalid key %q: bad character %q", key, c)
		}
	}
	return nil
}

func (s *DiskStore) path(key string) string {
	return filepath.Join(s.root, key[:2], key+entrySuffix)
}

// RecencyGranularity is how stale an entry's mtime must be before Get
// refreshes it. The janitor evicts least-recently-used entries by
// mtime, so it orders entries read within one granularity of each
// other by their earlier use; in exchange, a store read again and
// again (a warm sweep, a serving replica) pays no extra syscall per
// hit to keep that order.
const RecencyGranularity = time.Hour

// Get returns the entry, refreshing its mtime when it is older than
// RecencyGranularity so the janitor's LRU-by-mtime order tracks use.
func (s *DiskStore) Get(key string) ([]byte, error) {
	if err := ValidKey(key); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.stats.Gets++
	s.mu.Unlock()
	data, mtime, err := readEntry(s.path(key))
	if err != nil {
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, err
	}
	if now := time.Now(); now.Sub(mtime) > RecencyGranularity {
		// Recency bump, best-effort: a failed Chtimes only ages the
		// entry.
		os.Chtimes(s.path(key), now, now)
	}
	s.mu.Lock()
	s.stats.Hits++
	s.mu.Unlock()
	return data, nil
}

// readEntry reads a committed entry with one open, one fstat and one
// read, returning its bytes and modification time. Entries are renamed
// into place whole and never rewritten, so the size fstat reports is
// the entry's.
func readEntry(path string) ([]byte, time.Time, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, time.Time{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, time.Time{}, err
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, time.Time{}, err
	}
	return data, fi.ModTime(), nil
}

// Has reports whether an entry exists without reading it (or bumping
// its recency — presence probes should not keep an entry alive).
func (s *DiskStore) Has(key string) (bool, error) {
	if err := ValidKey(key); err != nil {
		return false, err
	}
	_, err := os.Stat(s.path(key))
	switch {
	case err == nil:
		return true, nil
	case os.IsNotExist(err):
		return false, nil
	default:
		return false, err
	}
}

// Put writes atomically (temp file + rename in the shard directory) and
// runs the janitor when the write pushes the tree over budget.
func (s *DiskStore) Put(key string, data []byte) error {
	if err := ValidKey(key); err != nil {
		return err
	}
	err := s.put(key, data)
	s.mu.Lock()
	s.stats.Puts++
	if err != nil {
		s.stats.PutErrors++
	}
	over := s.bytes > s.budget
	s.mu.Unlock()
	if over {
		s.Janitor()
	}
	return err
}

func (s *DiskStore) put(key string, data []byte) error {
	dst := s.path(key)
	dir := filepath.Dir(dst)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("artifact: put %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(dir, tmpPrefix+key+"-*")
	if err != nil {
		return fmt.Errorf("artifact: put %s: %w", key, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("artifact: put %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("artifact: put %s: %w", key, err)
	}
	// Stat before rename so overwrites account the delta, not the sum.
	var prev int64 = -1
	if fi, err := os.Stat(dst); err == nil {
		prev = fi.Size()
	}
	if err := os.Rename(tmpName, dst); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("artifact: put %s: %w", key, err)
	}
	s.mu.Lock()
	if prev >= 0 {
		s.bytes += int64(len(data)) - prev
	} else {
		s.bytes += int64(len(data))
		s.count++
	}
	s.mu.Unlock()
	return nil
}

// Delete removes the entry.
func (s *DiskStore) Delete(key string) error {
	if err := ValidKey(key); err != nil {
		return err
	}
	p := s.path(key)
	fi, err := os.Stat(p)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return err
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return err
	}
	s.mu.Lock()
	s.bytes -= fi.Size()
	s.count--
	s.stats.Deletes++
	s.mu.Unlock()
	return nil
}

// Len reports the committed entry count.
func (s *DiskStore) Len() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count, nil
}

// Stats snapshots traffic counters and occupancy.
func (s *DiskStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.count
	st.Bytes = s.bytes
	st.Budget = s.budget
	return st
}

// entryInfo is one committed entry seen by a tree walk.
type entryInfo struct {
	path  string
	size  int64
	mtime time.Time
}

// walk lists committed entries and, separately, stranded temp files.
func (s *DiskStore) walk() (entries []entryInfo, tmps []entryInfo) {
	shards, err := os.ReadDir(s.root)
	if err != nil {
		return nil, nil
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.root, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			fi, err := f.Info()
			if err != nil {
				continue
			}
			info := entryInfo{
				path:  filepath.Join(s.root, sh.Name(), f.Name()),
				size:  fi.Size(),
				mtime: fi.ModTime(),
			}
			switch {
			case strings.HasPrefix(f.Name(), tmpPrefix):
				tmps = append(tmps, info)
			case strings.HasSuffix(f.Name(), entrySuffix):
				entries = append(entries, info)
			}
		}
	}
	return entries, tmps
}

// Janitor enforces the byte budget (evicting least-recently-used
// committed entries until 90% of budget, so evictions batch instead of
// triggering on every Put at the boundary) and sweeps temp files
// stranded by a crashed writer for longer than tmpMaxAge. It is safe to
// run concurrently with reads and writes — eviction uses the same
// remove path a Delete does — and runs automatically when a Put
// observes the store over budget.
func (s *DiskStore) Janitor() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.janitorLocked()
}

func (s *DiskStore) janitorLocked() {
	entries, tmps := s.walk()
	cutoff := time.Now().Add(-tmpMaxAge)
	for _, t := range tmps {
		if t.mtime.Before(cutoff) {
			os.Remove(t.path)
		}
	}
	var total int64
	for _, e := range entries {
		total += e.size
	}
	count := len(entries)
	if total > s.budget {
		sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
		low := s.budget * 9 / 10
		for _, e := range entries {
			if total <= low {
				break
			}
			if os.Remove(e.path) == nil {
				total -= e.size
				count--
				s.stats.Evictions++
			}
		}
	}
	// Occupancy is re-derived from the walk on every pass, so the
	// incremental accounting in Put and Delete cannot drift unboundedly.
	s.bytes, s.count = total, count
}
