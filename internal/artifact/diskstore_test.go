package artifact

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testKey(i int) string { return fmt.Sprintf("k%02d%s", i, strings.Repeat("f", 60)) }

func TestDiskStorePutGetDelete(t *testing.T) {
	s, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	if _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on empty store: %v, want ErrNotFound", err)
	}
	want := []byte("artifact bytes")
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Get = %q, want %q", got, want)
	}
	if n, _ := s.Len(); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after Delete: %v, want ErrNotFound", err)
	}
	if err := s.Delete(key); !errors.Is(err, ErrNotFound) {
		t.Errorf("double Delete: %v, want ErrNotFound", err)
	}
}

func TestDiskStoreOverwriteAccountsDelta(t *testing.T) {
	s, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(2)
	if err := s.Put(key, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Bytes != 40 {
		t.Errorf("after overwrite: %d entries / %d bytes, want 1 / 40", st.Entries, st.Bytes)
	}
}

func TestDiskStorePersistsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(3)
	if err := s1.Put(key, []byte("survives")); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "survives" {
		t.Errorf("reopened store returned %q", got)
	}
	st := s2.Stats()
	if st.Entries != 1 || st.Bytes != int64(len("survives")) {
		t.Errorf("rescan seeded %d entries / %d bytes", st.Entries, st.Bytes)
	}
}

func TestDiskStoreEvictionLRU(t *testing.T) {
	// Budget fits ~3 of 5 entries; the janitor must keep the most
	// recently used ones (mtime order).
	s, err := OpenDisk(t.TempDir(), 350)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 100)
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 5; i++ {
		key := testKey(10 + i)
		if err := s.Put(key, data); err != nil {
			t.Fatal(err)
		}
		// Stamp strictly increasing mtimes so LRU order is deterministic
		// even on filesystems with coarse timestamps.
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(s.path(key), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	s.Janitor()
	st := s.Stats()
	if st.Bytes > 350 {
		t.Errorf("janitor left %d bytes over the 350 budget", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Error("no evictions recorded")
	}
	// The newest entry must have survived; the oldest must be gone.
	if _, err := s.Get(testKey(14)); err != nil {
		t.Errorf("most recently written entry evicted: %v", err)
	}
	if _, err := s.Get(testKey(10)); !errors.Is(err, ErrNotFound) {
		t.Errorf("least recently used entry survived: %v", err)
	}
}

// TestDiskStoreRecencyGranularity decides by explicitly stamped mtimes:
// Get refreshes an entry whose mtime is older than RecencyGranularity,
// leaves a fresher one alone, and the janitor evicts by the resulting
// order — least recently used first, at that granularity.
func TestDiskStoreRecencyGranularity(t *testing.T) {
	s, err := OpenDisk(t.TempDir(), 300)
	if err != nil {
		t.Fatal(err)
	}
	g := RecencyGranularity
	now := time.Now().Truncate(time.Second)
	stale, fresh, unread := testKey(30), testKey(31), testKey(32)
	stamps := map[string]time.Time{
		stale:  now.Add(-3 * g),
		fresh:  now.Add(-g / 2),
		unread: now.Add(-2 * g),
	}
	for key, mt := range stamps {
		if err := s.Put(key, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(s.path(key), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	mtime := func(key string) time.Time {
		fi, err := os.Stat(s.path(key))
		if err != nil {
			t.Fatal(err)
		}
		return fi.ModTime()
	}
	for _, key := range []string{stale, fresh} {
		if _, err := s.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	if got := mtime(stale); got.Before(now.Add(-g / 4)) {
		t.Errorf("stale entry read but not refreshed: mtime %v, read at about %v", got, now)
	}
	if got := mtime(fresh); !got.Equal(stamps[fresh]) {
		t.Errorf("fresh entry's mtime moved on Get: %v, stamped %v", got, stamps[fresh])
	}

	// Room for two: the unread entry is now the least recently used.
	setBudget := func(b int64) {
		s.mu.Lock()
		s.budget = b
		s.mu.Unlock()
	}
	setBudget(250)
	s.Janitor()
	for key, want := range map[string]bool{stale: true, fresh: true, unread: false} {
		if has, _ := s.Has(key); has != want {
			t.Errorf("after one eviction, entry stamped %v present = %v, want %v", stamps[key], has, want)
		}
	}
	// Room for one: the fresh entry was read too, but within the
	// granularity its mtime still ranks it by its earlier use.
	setBudget(150)
	s.Janitor()
	if has, _ := s.Has(stale); !has {
		t.Error("refreshed entry evicted before the one read within the granularity")
	}
	if has, _ := s.Has(fresh); has {
		t.Error("entry read within the granularity outranked the refreshed one")
	}
}

func TestDiskStoreJanitorSweepsStrandedTemp(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(20)
	if err := s.Put(key, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	// Simulate a writer that crashed mid-Put: a temp file in the shard
	// directory, older than any plausible in-flight write.
	shard := filepath.Dir(s.path(key))
	tmp := filepath.Join(shard, tmpPrefix+"crashed-123")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(tmp, old, old); err != nil {
		t.Fatal(err)
	}
	s.Janitor()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("janitor left the stranded temp file")
	}
	if _, err := s.Get(key); err != nil {
		t.Errorf("janitor removed a committed entry: %v", err)
	}
}

func TestDiskStoreFreshTempSurvivesJanitor(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(dir, "ab")
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(shard, tmpPrefix+"inflight-1")
	if err := os.WriteFile(tmp, []byte("being written"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Janitor()
	if _, err := os.Stat(tmp); err != nil {
		t.Error("janitor deleted a temp file younger than tmpMaxAge (racing an in-flight write)")
	}
}

func TestDiskStoreOpenRunsJanitor(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(30)
	if err := s1.Put(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Dir(s1.path(key))
	tmp := filepath.Join(shard, tmpPrefix+"stale")
	if err := os.WriteFile(tmp, []byte("p"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-3 * time.Hour)
	if err := os.Chtimes(tmp, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("OpenDisk did not sweep the stale temp file")
	}
}

func TestDiskStoreInvalidKeys(t *testing.T) {
	s, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "a", "../../etc/passwd", "a/b", "k\x00y", strings.Repeat("x", 300)} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", key)
		}
		if _, err := s.Get(key); err == nil {
			t.Errorf("Get(%q) accepted an invalid key", key)
		}
	}
}

func TestDiskStoreStatsCounters(t *testing.T) {
	s, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(40)
	s.Get(key)              // miss
	s.Put(key, []byte("v")) // put
	s.Get(key)              // hit
	st := s.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v, want gets=2 hits=1 misses=1 puts=1", st)
	}
	if st.Budget != DefaultDiskBudget {
		t.Errorf("budget = %d, want default %d", st.Budget, DefaultDiskBudget)
	}
}
