package artifact

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
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

// mustOpen opens a store over dir and closes it when the test ends.
func mustOpen(t *testing.T, dir string, budget int64) *DiskStore {
	t.Helper()
	s, err := OpenDisk(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// segmentFiles lists dir's segment files in name order.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// diskBytes is the size of dir's segment files.
func diskBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	for _, p := range segmentFiles(t, dir) {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// wantEntry fails unless s holds want under key; a nil want is a miss.
func wantEntry(t *testing.T, s *DiskStore, key string, want []byte) {
	t.Helper()
	got, err := s.Get(key)
	if want == nil && !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(%.4s…) = %q, %v; want a miss", key, got, err)
	} else if want != nil && (err != nil || !bytes.Equal(got, want)) {
		t.Errorf("Get(%.4s…) = %q, %v; want %q", key, got, err, want)
	}
}

// writtenSegment writes entries 0..n-1 (testKey(i) → "entry i") through
// a store, closes it, and returns its one segment's name and bytes and
// each frame's offset, with the segment's length last.
func writtenSegment(t *testing.T, n int) (name string, seg []byte, offs []int) {
	t.Helper()
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), entryBytes(i)); err != nil {
			t.Fatal(err)
		}
		offs = append(offs, int(s.own.end)-len(testKey(i))-len(entryBytes(i))-frameExtra)
	}
	s.Close()
	paths := segmentFiles(t, dir)
	if len(paths) != 1 {
		t.Fatalf("%d segments after one process's writes, want 1", len(paths))
	}
	seg, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Base(paths[0]), seg, append(offs, len(seg))
}

func entryBytes(i int) []byte { return []byte(fmt.Sprintf("entry %d", i)) }

// TestDiskStoreTornTail cuts a segment at every byte offset of its last
// frame, as a crash mid-write leaves it: after reopen every earlier
// entry reads back and the torn one is a miss. Writing the torn entry
// again makes it readable after the next reopen.
func TestDiskStoreTornTail(t *testing.T) {
	const n = 4
	name, seg, offs := writtenSegment(t, n)
	for cut := offs[n-1]; cut < len(seg); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s := mustOpen(t, dir, 0)
		for i := 0; i < n-1; i++ {
			wantEntry(t, s, testKey(i), entryBytes(i))
		}
		wantEntry(t, s, testKey(n-1), nil)
		if err := s.Put(testKey(n-1), entryBytes(n-1)); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s = mustOpen(t, dir, 0)
		for i := 0; i < n; i++ {
			wantEntry(t, s, testKey(i), entryBytes(i))
		}
		if t.Failed() {
			t.Fatalf("segment cut at byte %d of %d", cut, len(seg))
		}
	}
}

// TestDiskStoreFlippedByte flips each byte of each frame. Read through
// the index built before the flip, that entry is a miss and the others
// read back; after reopen the scan stops at the bad frame, so earlier
// entries read back, the flipped one is a miss, and no key ever reads
// wrong bytes.
func TestDiskStoreFlippedByte(t *testing.T) {
	const n = 3
	name, seg, offs := writtenSegment(t, n)
	dir := t.TempDir()
	path := filepath.Join(dir, name)
	for f := 0; f < n; f++ {
		for b := offs[f]; b < offs[f+1]; b++ {
			if err := os.WriteFile(path, seg, 0o644); err != nil {
				t.Fatal(err)
			}
			s := mustOpen(t, dir, 0)
			bad := bytes.Clone(seg)
			bad[b] ^= 0x20
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				want := entryBytes(i)
				if i == f {
					want = nil
				}
				wantEntry(t, s, testKey(i), want)
			}
			s.Close()
			s = mustOpen(t, dir, 0)
			for i := 0; i < n; i++ {
				switch got, err := s.Get(testKey(i)); {
				case i < f:
					wantEntry(t, s, testKey(i), entryBytes(i))
				case i == f:
					wantEntry(t, s, testKey(i), nil)
				case err == nil && !bytes.Equal(got, entryBytes(i)):
					t.Errorf("entry %d after the flipped frame reads %q", i, got)
				}
			}
			s.Close()
			if t.Failed() {
				t.Fatalf("byte %d (frame %d) flipped", b, f)
			}
		}
	}
}

// TestDiskStoreTombstonesAcrossReopen: the last frame for a key decides
// it after reopen, a deleted key stays deleted, and a key written again
// after its deletion is back.
func TestDiskStoreTombstonesAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	a, b, c := testKey(1), testKey(2), testKey(3)
	for _, op := range []struct {
		key string
		val string // "" deletes
	}{{a, "a1"}, {a, "a2"}, {b, "b1"}, {b, ""}, {c, "c1"}, {c, ""}, {c, "c2"}} {
		var err error
		if op.val == "" {
			err = s.Delete(op.key)
		} else {
			err = s.Put(op.key, []byte(op.val))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s = mustOpen(t, dir, 0)
	wantEntry(t, s, a, []byte("a2"))
	wantEntry(t, s, b, nil)
	wantEntry(t, s, c, []byte("c2"))
	if st := s.Stats(); st.Entries != 2 || st.Bytes != 4 {
		t.Errorf("after reopen: %d entries / %d bytes, want 2 / 4", st.Entries, st.Bytes)
	}
	if err := s.Delete(a); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s = mustOpen(t, dir, 0)
	wantEntry(t, s, a, nil)
	wantEntry(t, s, c, []byte("c2"))
}

// TestDiskStoreBudgetProperty drives seeded random puts and gets
// against a small budget. After every put the segments on disk hold at
// most the budget. At each compaction, if any entry not used (read or
// written) since the previous compaction survives, every entry used
// since survives too. Reads never return other than the last bytes
// written, also after reopen. A failing seed replays alone with
// -run 'TestDiskStoreBudgetProperty/seed=N$'.
func TestDiskStoreBudgetProperty(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			budget := int64(1000 + rng.Intn(3000))
			dir := t.TempDir()
			s := mustOpen(t, dir, budget)
			want := make(map[string][]byte) // the last bytes written
			used := make(map[string]bool)   // entries used since the last compaction
			own := func() *segment {
				s.mu.Lock()
				defer s.mu.Unlock()
				return s.own
			}
			compactions := 0
			for op := 0; op < 500; op++ {
				key := testKey(rng.Intn(40))
				if rng.Intn(3) == 0 {
					got, err := s.Get(key)
					if err == nil {
						if !bytes.Equal(got, want[key]) {
							t.Fatalf("op %d: Get returned bytes never written last", op)
						}
						used[key] = true
					}
					continue
				}
				v := make([]byte, 1+rng.Intn(200))
				rng.Read(v)
				before := own()
				if err := s.Put(key, v); err != nil {
					t.Fatal(err)
				}
				want[key], used[key] = v, true
				if n := diskBytes(t, dir); n > budget {
					t.Fatalf("op %d: %d bytes on disk over the %d budget", op, n, budget)
				}
				if before == nil || own() == before {
					continue
				}
				compactions++
				unusedSurvived := false
				for k := range want {
					if has, _ := s.Has(k); has && !used[k] {
						unusedSurvived = true
					}
				}
				for k := range used {
					if has, _ := s.Has(k); !has && unusedSurvived {
						t.Fatalf("op %d: compaction dropped an entry used since the last one and kept one not used", op)
					}
				}
				used = make(map[string]bool)
			}
			if compactions == 0 {
				t.Fatal("no compaction ran")
			}
			s.Close()
			s = mustOpen(t, dir, budget)
			if n := diskBytes(t, dir); n > budget {
				t.Fatalf("reopened store holds %d bytes over the %d budget", n, budget)
			}
			for k, v := range want {
				if has, _ := s.Has(k); has {
					wantEntry(t, s, k, v)
				}
			}
		})
	}
}

// TestDiskStoreIgnoresPerFileLayout opens a directory that holds a store
// of the earlier one-file-per-entry layout (a shard directory with an
// entry and a stranded temp file): its entries are misses and count
// nowhere, and writes and compactions leave its files as they were.
func TestDiskStoreIgnoresPerFileLayout(t *testing.T) {
	dir := t.TempDir()
	key := testKey(7)
	old := map[string][]byte{
		filepath.Join(key[:2], key+".art"):       []byte("an entry in the per-file layout"),
		filepath.Join(key[:2], ".tmp-"+key+"-1"): []byte("a stranded write"),
	}
	for name, data := range old {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := mustOpen(t, dir, 600)
	wantEntry(t, s, key, nil)
	if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("old layout counted: %d entries / %d bytes", st.Entries, st.Bytes)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put(testKey(10+i), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("no compaction ran")
	}
	s.Close()
	s = mustOpen(t, dir, 600)
	wantEntry(t, s, key, nil)
	for name, data := range old {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s after compactions: %q, %v", name, got, err)
		}
	}
}

// TestDiskStoreEmptySegmentNotSealed plays a writer caught between
// creating its segment and locking it: a store that finds the empty,
// unlocked segment must not take it as sealed, so it reads the frames
// the writer appends once it holds the lock, and its compaction leaves
// the segment in place.
func TestDiskStoreEmptySegmentNotSealed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "0000000000000001-1-1"+segSuffix)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := mustOpen(t, dir, 0)
	if !flock(f, lockWriter) {
		t.Skip("no flock here")
	}
	if _, err := f.Write(appendFrame(nil, putMagic, testKey(1), entryBytes(1))); err != nil {
		t.Fatal(err)
	}
	wantEntry(t, s, testKey(1), entryBytes(1))
	s.mu.Lock()
	s.compactLocked()
	s.mu.Unlock()
	if _, err := os.Stat(path); err != nil {
		t.Errorf("compaction deleted a live writer's segment: %v", err)
	}
}

// TestScanFramesBounds: a frame that claims more than maxPayload, or
// more bytes than the segment holds, ends the scan at its header
// without an allocation of the claimed size.
func TestScanFramesBounds(t *testing.T) {
	for _, tc := range []struct {
		claim uint32
		to    int64
	}{{maxPayload + 1, 1 << 40}, {maxPayload, 100}} {
		seg := binary.LittleEndian.AppendUint32(nil, putMagic)
		seg = binary.LittleEndian.AppendUint16(seg, 4)
		seg = binary.LittleEndian.AppendUint32(append(seg, "kkkk"...), tc.claim)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		end := scanFrames(bytes.NewReader(seg), 0, tc.to, func(int64, int, string, bool) { t.Error("frame accepted") })
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; end != 0 || grew > 2*scanBuffer {
			t.Errorf("frame claiming %d bytes in a %d-byte segment: end %d, %d bytes allocated", tc.claim, tc.to, end, grew)
		}
	}
}

// FuzzSegmentScan holds the scanner to its contract on arbitrary
// segment bytes: no panic, frames reported back to back from the
// start, each one re-encoding to exactly the bytes it was read from
// (so its checksum holds), and the returned end just past the last.
func FuzzSegmentScan(f *testing.F) {
	var seg []byte
	seg = appendFrame(seg, putMagic, testKey(1), []byte("first entry"))
	seg = appendFrame(seg, tombMagic, testKey(1), nil)
	seg = appendFrame(seg, putMagic, testKey(2), bytes.Repeat([]byte{7}, 300))
	for _, cut := range []int{0, 5, 40, len(seg) - 1, len(seg)} {
		f.Add(seg[:cut])
	}
	flipped := bytes.Clone(seg)
	flipped[len(seg)-10] ^= 1
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		var next int64
		end := scanFrames(bytes.NewReader(data), 0, int64(len(data)), func(off int64, n int, key string, tomb bool) {
			if off != next || off+int64(n) > int64(len(data)) {
				t.Fatalf("frame [%d, +%d) after a frame ending at %d in %d bytes", off, n, next, len(data))
			}
			frame := data[off : off+int64(n)]
			magic := uint32(putMagic)
			if tomb {
				magic = tombMagic
			}
			if again := appendFrame(nil, magic, key, frame[10+len(key):n-4]); !bytes.Equal(again, frame) {
				t.Fatalf("frame at %d re-encodes to %x, read %x", off, again, frame)
			}
			if got, _ := checkFrame(frame, key); got != magic {
				t.Fatalf("frame at %d: checkFrame reads magic %#x, scan %#x", off, got, magic)
			}
			next = off + int64(n)
		})
		if end != next {
			t.Fatalf("scan ended at %d, last frame at %d", end, next)
		}
	})
}

// childDirEnv names the store directory for TestDiskStoreChild, the
// second process of TestDiskStoreTwoProcesses.
const childDirEnv = "ARTIFACT_TEST_CHILD_STORE"

// sharedKey is entry i of group g, and sharedValue its bytes, known to
// both processes of TestDiskStoreTwoProcesses.
func sharedKey(g string, i int) string { return fmt.Sprintf("%s%03d%s", g, i, strings.Repeat("e", 40)) }

func sharedValue(g string, i int) []byte { return []byte("the bytes of " + sharedKey(g, i)) }

// putGroup writes entries 0..n-1 of group g.
func putGroup(s *DiskStore, g string, n int) error {
	for i := 0; i < n; i++ {
		if err := s.Put(sharedKey(g, i), sharedValue(g, i)); err != nil {
			return err
		}
	}
	return nil
}

// getGroup reads entries 0..n-1 of group g, counting hits and reads of
// wrong bytes.
func getGroup(s *DiskStore, g string, n int) (hits, wrong int) {
	for i := 0; i < n; i++ {
		if got, err := s.Get(sharedKey(g, i)); err == nil {
			hits++
			if !bytes.Equal(got, sharedValue(g, i)) {
				wrong++
			}
		}
	}
	return hits, wrong
}

// TestDiskStoreChild serves TestDiskStoreTwoProcesses from a second
// process: one command a line on stdin ("put G N", "get G N", "close"),
// one "reply ..." line each on stdout.
func TestDiskStoreChild(t *testing.T) {
	dir := os.Getenv(childDirEnv)
	if dir == "" {
		t.Skip("the second process of TestDiskStoreTwoProcesses")
	}
	s, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		var cmd, g string
		var n int
		fmt.Sscan(in.Text(), &cmd, &g, &n)
		reply := "ok"
		switch cmd {
		case "put":
			if err := putGroup(s, g, n); err != nil {
				reply = err.Error()
			}
		case "get":
			hits, wrong := getGroup(s, g, n)
			reply = fmt.Sprintf("%d %d", hits, wrong)
		case "close":
			s.Close()
		}
		fmt.Println("reply", reply)
	}
}

// TestDiskStoreTwoProcesses shares one store directory between this
// process and a re-executed test binary. Each reads the other's entries
// after an index miss. While this process compacts again and again, the
// other appends and reads: its reads are misses or the right bytes. The
// entries it appends after the compactions survive a reopen.
func TestDiskStoreTwoProcesses(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestDiskStoreChild$", "-test.count=1")
	cmd.Env = append(os.Environ(), childDirEnv+"="+dir)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Wait()
	defer stdin.Close()
	replies := bufio.NewScanner(stdout)
	child := func(format string, args ...any) string {
		t.Helper()
		fmt.Fprintf(stdin, format+"\n", args...)
		for replies.Scan() {
			if reply, ok := strings.CutPrefix(replies.Text(), "reply "); ok {
				return reply
			}
		}
		t.Fatalf("child exited: %v", replies.Err())
		return ""
	}
	childGets := func(g string, n int) (hits, wrong int) {
		t.Helper()
		if _, err := fmt.Sscan(child("get %s %d", g, n), &hits, &wrong); err != nil {
			t.Fatal(err)
		}
		return hits, wrong
	}

	s := mustOpen(t, dir, 0)
	if err := putGroup(s, "a", 40); err != nil {
		t.Fatal(err)
	}
	if r := child("put b 40"); r != "ok" {
		t.Fatal(r)
	}
	if hits, wrong := getGroup(s, "b", 40); hits != 40 || wrong != 0 {
		t.Errorf("this process read %d of the child's 40 entries, %d wrong", hits, wrong)
	}
	if hits, wrong := childGets("a", 40); hits != 40 || wrong != 0 {
		t.Errorf("the child read %d of this process's 40 entries, %d wrong", hits, wrong)
	}

	// The child appends and reads while this process compacts.
	stop, done := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				done <- n
				return
			default:
			}
			s.mu.Lock()
			s.compactLocked()
			s.mu.Unlock()
			n++
		}
	}()
	if r := child("put c 200"); r != "ok" {
		t.Error(r)
	}
	for round := 0; round < 5; round++ {
		if _, wrong := childGets("a", 40); wrong != 0 {
			t.Errorf("the child read wrong bytes for %d entries during compaction", wrong)
		}
	}
	close(stop)
	if n := <-done; n == 0 {
		t.Error("no compaction ran")
	}

	// Entries written after the compactions, by either process.
	if err := putGroup(s, "e", 20); err != nil {
		t.Fatal(err)
	}
	if hits, wrong := childGets("e", 20); hits != 20 || wrong != 0 {
		t.Errorf("the child read %d of 20 entries written after compaction, %d wrong", hits, wrong)
	}
	if r := child("put d 20"); r != "ok" {
		t.Fatal(r)
	}
	if hits, wrong := childGets("c", 200); hits != 200 || wrong != 0 {
		t.Errorf("the child read %d of its own 200 entries, %d wrong", hits, wrong)
	}
	child("close")
	s.Close()
	s = mustOpen(t, dir, 0)
	for g, n := range map[string]int{"a": 40, "b": 40, "c": 200, "d": 20, "e": 20} {
		if hits, wrong := getGroup(s, g, n); hits != n || wrong != 0 {
			t.Errorf("after reopen: %d of group %s's %d entries read, %d wrong", hits, g, n, wrong)
		}
	}
}
