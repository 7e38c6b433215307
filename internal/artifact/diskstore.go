package artifact

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultDiskBudget bounds a DiskStore opened with budget <= 0:
// artifacts are a few KiB to a few hundred KiB each, so half a GiB
// holds on the order of 10^4 sweep variants.
const DefaultDiskBudget = 512 << 20

// A segment file is a run of frames, each an entry or a tombstone (its
// own magic, no payload), little-endian, the CRC over all before it:
//
//	magic (4) | key length (2) | key | payload length (4) | payload | CRC-32C (4)
const (
	putMagic, tombMagic = 0x5343324d, 0x5443324d // "M2CS", "M2CT"
	frameExtra          = 4 + 2 + 4 + 4
	maxKey, maxPayload  = 256, 64 << 20
	segSuffix           = ".seg"
	scanBuffer          = 256 << 10 // the largest read a scan makes
	maxSegments         = 16        // more at open are merged by compaction
	// racyWindow is how long a directory's mtime may hide a later change
	// in the same (coarse) timestamp tick.
	racyWindow = 2 * time.Second
)

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	segSeq     atomic.Uint64 // keeps this process's segment names apart
)

// appendFrame appends key's frame, holding payload, to dst.
func appendFrame(dst []byte, magic uint32, key string, payload []byte) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, magic)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(key)))
	dst = binary.LittleEndian.AppendUint32(append(dst, key...), uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// checkFrame returns the magic and payload of buf if buf is exactly one
// frame for key whose checksum holds, and magic 0 if not.
func checkFrame(buf []byte, key string) (uint32, []byte) {
	k, end := len(key), len(buf)-4
	if end < k+10 || int(binary.LittleEndian.Uint16(buf[4:])) != k || string(buf[6:6+k]) != key ||
		int(binary.LittleEndian.Uint32(buf[6+k:])) != end-k-10 ||
		crc32.Checksum(buf[:end], castagnoli) != binary.LittleEndian.Uint32(buf[end:]) {
		return 0, nil
	}
	if magic := binary.LittleEndian.Uint32(buf); magic == putMagic || magic == tombMagic {
		return magic, buf[10+k : end]
	}
	return 0, nil
}

// scanFrames reads the frames in r's bytes [from, to) through a buffer of
// at most scanBuffer bytes, calls fn with the offset, length and key of
// each good one, stops at the first torn, corrupt or oversized one, and
// returns the offset just past the last good frame.
func scanFrames(r io.ReaderAt, from, to int64, fn func(off int64, n int, key string, tomb bool)) int64 {
	br := bufio.NewReaderSize(io.NewSectionReader(r, from, to-from), int(min(to-from, scanBuffer)))
	for off := from; ; {
		h, _ := br.Peek(10 + maxKey)
		if len(h) < 10 {
			return off
		}
		k := int(binary.LittleEndian.Uint16(h[4:]))
		if k > maxKey || len(h) < 10+k || binary.LittleEndian.Uint32(h[6+k:]) > maxPayload {
			return off
		}
		n := int(binary.LittleEndian.Uint32(h[6+k:])) + k + frameExtra
		if int64(n) > to-off {
			return off
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return off
		}
		key := string(buf[6 : 6+k])
		magic, _ := checkFrame(buf, key)
		if magic == 0 {
			return off
		}
		fn(off, n, key, magic == tombMagic)
		off += int64(n)
	}
}

// segment is a segment file as this process sees it. Its writer holds
// its flock from before its first write until Close or exit, so a
// non-empty segment whose lock is free is sealed: it cannot grow, and
// compaction may delete it.
type segment struct {
	name   string
	f      *os.File
	end    int64 // just past the last good frame read or written
	sealed bool
}

// loc is where an entry's frame lies, and when this process last used it.
type loc struct {
	seg  *segment
	off  int64
	n    int
	tick uint64
}

// read returns the payload of key's entry frame at l, if it checks.
func (l loc) read(key string) ([]byte, bool) {
	buf := make([]byte, l.n)
	_, err := l.seg.f.ReadAt(buf, l.off)
	magic, payload := checkFrame(buf, key)
	return payload, err == nil && magic == putMagic
}

// DiskStore is a Store kept in a directory of append-only segment files
// after Bitcask: a log plus an in-memory index of key → frame. Each
// process appends to a segment of its own, a write per Put or Delete; a
// Get is one pread and a checksum, Has an index lookup. An index miss
// picks up what other processes wrote since (refreshLocked). Compaction
// is the byte budget. A frame that fails its checks is a miss, never
// wrong bytes. Other files in the directory are ignored.
type DiskStore struct {
	root   string
	budget int64

	mu     sync.Mutex
	segs   map[string]*segment // by name; nil once closed
	own    *segment            // the one this process appends to, from its first write
	index  map[string]loc
	live   int64  // payload bytes of indexed entries
	clock  uint64 // the last use's tick
	dirMod time.Time
	racy   bool // the listing may miss a change made within dirMod's tick
	stats  Stats
}

// OpenDisk opens (creating if needed) a disk store in dir with the
// given byte budget (DefaultDiskBudget when <= 0). It indexes every
// segment, and compacts them when they are over budget or too many.
func OpenDisk(dir string, budget int64) (*DiskStore, error) {
	if budget <= 0 {
		budget = DefaultDiskBudget
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: open disk store: %w", err)
	}
	s := &DiskStore{root: dir, budget: budget, segs: make(map[string]*segment), index: make(map[string]loc)}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked()
	if s.overLocked() || len(s.segs) > maxSegments {
		s.compactLocked()
	}
	return s, nil
}

// ValidKey rejects keys that could escape a store directory, collide
// with internal names, or break the blob protocol's URL layout. Cache
// keys are SHA-256 hex, so this is belt-and-braces, but the store is a
// public seam (and, with the remote tier, a network-facing one).
func ValidKey(key string) error {
	if len(key) < 2 || len(key) > maxKey {
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

// Get returns the entry, refreshing the index on a miss.
func (s *DiskStore) Get(key string) ([]byte, error) {
	if err := ValidKey(key); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Gets++
	l, ok := s.index[key]
	if !ok {
		s.refreshLocked()
		l, ok = s.index[key]
	}
	var data []byte
	if ok {
		data, ok = l.read(key)
	}
	if !ok {
		s.stats.Misses++
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	s.stats.Hits++
	s.clock++
	l.tick = s.clock
	s.index[key] = l
	return data, nil
}

// Has reports whether the index holds key; it is not a use.
func (s *DiskStore) Has(key string) (bool, error) {
	if err := ValidKey(key); err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok, nil
}

// Put appends the entry's frame.
func (s *DiskStore) Put(key string, data []byte) error {
	if len(data) > maxPayload {
		return fmt.Errorf("artifact: put %s: %d bytes, over the %d-byte bound", key, len(data), maxPayload)
	}
	return s.write(key, appendFrame(make([]byte, 0, len(key)+len(data)+frameExtra), putMagic, key, data))
}

// Delete appends a tombstone, so the entry stays deleted on reopen.
func (s *DiskStore) Delete(key string) error {
	if has, err := s.Has(key); err != nil {
		return err
	} else if !has {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return s.write(key, appendFrame(nil, tombMagic, key, nil))
}

// write appends key's frame to this process's segment, starting one on
// the first write, applies it to the index, and compacts when that
// takes the store over budget.
func (s *DiskStore) write(key string, frame []byte) (err error) {
	if err := ValidKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.own == nil {
		s.own, err = s.createLocked()
	}
	if err == nil {
		// After a failed write the next frame overwrites what landed.
		_, err = s.own.f.WriteAt(frame, s.own.end)
	}
	tomb := binary.LittleEndian.Uint32(frame) == tombMagic
	if !tomb {
		s.stats.Puts++
	}
	if err != nil {
		if !tomb {
			s.stats.PutErrors++
		}
		return fmt.Errorf("artifact: write %s: %w", key, err)
	}
	if tomb {
		s.stats.Deletes++
	}
	s.applyLocked(s.own, s.own.end, len(frame), key, tomb)
	s.own.end += int64(len(frame))
	if s.overLocked() {
		s.compactLocked()
	}
	return nil
}

// Len reports the indexed entry count.
func (s *DiskStore) Len() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index), nil
}

// Stats snapshots traffic counters and occupancy (Bytes: the payload
// bytes of indexed entries).
func (s *DiskStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries, st.Bytes, st.Budget = len(s.index), s.live, s.budget
	return st
}

// Close releases the store's files, and with them its segment's lock,
// deleting the segment if empty. A closed store misses every read and
// fails every write.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sg := range s.segs {
		sg.f.Close()
		if sg == s.own && sg.end == 0 {
			os.Remove(filepath.Join(s.root, sg.name))
		}
	}
	s.segs, s.own, s.index, s.live = nil, nil, nil, 0
	return nil
}

// createLocked creates and locks a segment for this process to append
// to. Names begin with the creation time, so listings are in its order.
func (s *DiskStore) createLocked() (*segment, error) {
	if s.segs == nil {
		return nil, os.ErrClosed
	}
	name := fmt.Sprintf("%016x-%d-%d%s", time.Now().UnixNano(), os.Getpid(), segSeq.Add(1), segSuffix)
	f, err := os.OpenFile(filepath.Join(s.root, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err == nil && !flock(f, lockWriter) {
		f.Close()
		err = errors.New("cannot lock a new segment")
	}
	if err != nil {
		return nil, err
	}
	s.segs[name] = &segment{name: name, f: f}
	return s.segs[name], nil
}

// applyLocked indexes key's frame at off in sg, superseding any earlier
// one, or unindexes key for a tombstone.
func (s *DiskStore) applyLocked(sg *segment, off int64, n int, key string, tomb bool) {
	if old, ok := s.index[key]; ok {
		s.live -= int64(old.n - len(key) - frameExtra)
		delete(s.index, key)
	}
	if !tomb {
		s.clock++
		s.index[key] = loc{seg: sg, off: off, n: n, tick: s.clock}
		s.live += int64(n - len(key) - frameExtra)
	}
}

// refreshLocked picks up what other processes wrote: it stats the
// directory, lists it if it changed (or changed too recently for its
// mtime to tell), and reads the new tail of every unsealed segment of
// another process. When no other process has written, that is one stat.
func (s *DiskStore) refreshLocked() {
	now := time.Now()
	fi, err := os.Stat(s.root)
	if s.segs == nil || err != nil {
		return
	}
	if s.racy || !fi.ModTime().Equal(s.dirMod) {
		s.relistLocked()
		s.dirMod, s.racy = fi.ModTime(), now.Sub(fi.ModTime()) < racyWindow
	}
	for _, sg := range s.segs {
		if sg != s.own && !sg.sealed {
			s.catchUpLocked(sg)
		}
	}
}

// relistLocked reads the segments created since the last listing, in
// name order, and forgets the ones deleted.
func (s *DiskStore) relistLocked() {
	des, err := os.ReadDir(s.root)
	if err != nil {
		return
	}
	listed := make(map[string]bool, len(des))
	for _, de := range des {
		name := de.Name()
		listed[name] = true
		if !de.Type().IsRegular() || !strings.HasSuffix(name, segSuffix) || s.segs[name] != nil {
			continue
		}
		if f, err := os.Open(filepath.Join(s.root, name)); err == nil {
			s.segs[name] = &segment{name: name, f: f}
			s.catchUpLocked(s.segs[name])
		}
	}
	for name, sg := range s.segs {
		if !listed[name] && sg != s.own {
			s.dropLocked(sg)
		}
	}
}

// catchUpLocked indexes the frames appended to another process's
// segment since it was last read, and seals it if no writer holds it.
func (s *DiskStore) catchUpLocked(sg *segment) {
	idle := flock(sg.f, lockTry) // taken before the tail is read
	fi, err := sg.f.Stat()
	if err == nil && fi.Size() > sg.end {
		sg.end = scanFrames(sg.f, sg.end, fi.Size(), func(off int64, n int, key string, tomb bool) {
			s.applyLocked(sg, off, n, key, tomb)
		})
	}
	if idle {
		flock(sg.f, lockNone)
		sg.sealed = err == nil && fi.Size() > 0
	}
}

// dropLocked closes segment sg and forgets the entries indexed in it.
func (s *DiskStore) dropLocked(sg *segment) {
	for key, l := range s.index {
		if l.seg == sg {
			s.applyLocked(nil, 0, 0, key, true)
		}
	}
	sg.f.Close()
	delete(s.segs, sg.name)
}

// overLocked reports whether this process's and the sealed segments,
// the ones compaction deletes, hold more than the budget. Other
// processes' segments join the budget once sealed.
func (s *DiskStore) overLocked() bool {
	var n int64
	for _, sg := range s.segs {
		if sg == s.own || sg.sealed {
			n += sg.end
		}
	}
	return n > s.budget
}

// compactLocked enforces the budget: it copies, oldest first, the most
// recently used entries of this process's and the sealed segments that
// fit in nine tenths of the budget into a new segment, which this
// process appends to from then on, and deletes the segments copied.
func (s *DiskStore) compactLocked() {
	s.refreshLocked()
	var keys []string
	for key, l := range s.index {
		if l.seg == s.own || l.seg.sealed {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return s.index[keys[i]].tick < s.index[keys[j]].tick })
	first, entries := len(keys), len(s.index)
	for room := s.budget * 9 / 10; first > 0 && int64(s.index[keys[first-1]].n) <= room; first-- {
		room -= int64(s.index[keys[first-1]].n)
	}
	sg, err := s.createLocked()
	if err != nil {
		return
	}
	w := bufio.NewWriterSize(io.NewOffsetWriter(sg.f, 0), scanBuffer)
	for _, key := range keys[first:] {
		if p, ok := s.index[key].read(key); ok {
			frame := appendFrame(nil, putMagic, key, p)
			w.Write(frame)
			s.applyLocked(sg, sg.end, len(frame), key, false)
			sg.end += int64(len(frame))
		}
	}
	if w.Flush() != nil {
		s.dropLocked(sg) // its entries are misses; the old segments stay
		return
	}
	for _, old := range s.segs {
		if old == s.own || old.sealed {
			s.dropLocked(old)
			os.Remove(filepath.Join(s.root, old.name))
		}
	}
	s.stats.Evictions += uint64(entries - len(s.index))
	s.own = sg
}
