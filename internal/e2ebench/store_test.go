package e2ebench

import (
	"net/http/httptest"
	"sync"
	"testing"

	"mat2c/internal/artifact"
	"mat2c/internal/artifact/remote"
)

// mapStore is a minimal Store with neither optional interface.
type mapStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (s *mapStore) Get(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.m[key]; ok {
		return d, nil
	}
	return nil, artifact.ErrNotFound
}

func (s *mapStore) Put(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = data
	return nil
}

func (s *mapStore) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, key)
	return nil
}

func (s *mapStore) Len() (int, error) { return len(s.m), nil }

type checkerOnly struct{ *mapStore }

func (s checkerOnly) Has(key string) (bool, error) {
	_, err := s.Get(key)
	return err == nil, nil
}

type reporterOnly struct{ *mapStore }

func (reporterOnly) Stats() artifact.Stats { return artifact.Stats{Gets: 7} }

// The cache changes behaviour on the optional interfaces a tier
// implements (a remote that answers Has is probed instead of re-sent
// every artifact), so timing a tier must not add or hide either one.
func TestTimedStorePreservesOptionalInterfaces(t *testing.T) {
	disk, err := artifact.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	origin := httptest.NewServer(remote.NewServer(disk, 0).Handler())
	defer origin.Close()
	stores := map[string]artifact.Store{
		"plain":         &mapStore{m: map[string][]byte{}},
		"checker only":  checkerOnly{&mapStore{m: map[string][]byte{}}},
		"reporter only": reporterOnly{&mapStore{m: map[string][]byte{}}},
		"DiskStore":     disk,
		"RemoteStore":   remote.New(origin.URL+"/artifact", remote.Options{}),
	}
	for name, s := range stores {
		w := TimedStore(s, NewRecorder(true), "tier.")
		_, wantChecker := s.(artifact.Checker)
		_, gotChecker := w.(artifact.Checker)
		_, wantReporter := s.(artifact.StatsReporter)
		_, gotReporter := w.(artifact.StatsReporter)
		if gotChecker != wantChecker || gotReporter != wantReporter {
			t.Errorf("%s: wrapped Checker=%v StatsReporter=%v, store has %v and %v",
				name, gotChecker, gotReporter, wantChecker, wantReporter)
		}
	}
	if _, ok := stores["DiskStore"].(artifact.Checker); !ok {
		t.Fatal("DiskStore no longer implements artifact.Checker; the table lost its both-interfaces case")
	}
}

// Every call through the wrapper reaches the store and leaves a span:
// reads nested in the caller's open span, writes and presence probes
// (made by the cache from its own goroutines) as async roots.
func TestTimedStoreRecordsAndForwards(t *testing.T) {
	disk, err := artifact.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(true)
	w := TimedStore(disk, rec, "artifact.disk_")
	key := "ab" + "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcd"
	if err := w.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	lookup := rec.Begin("mat2c.resolve", "k")
	data, err := w.Get(key)
	rec.End(lookup, "disk")
	if err != nil || string(data) != "payload" {
		t.Fatalf("Get = %q, %v", data, err)
	}
	if ok, err := w.(artifact.Checker).Has(key); !ok || err != nil {
		t.Fatalf("Has = %v, %v", ok, err)
	}
	if st := w.(artifact.StatsReporter).Stats(); st.Puts != 1 || st.Hits != 1 {
		t.Fatalf("forwarded Stats = %+v, want 1 put and 1 hit", st)
	}
	byName := map[string]Span{}
	for _, s := range rec.take() {
		byName[s.Name] = s
	}
	if s := byName["artifact.disk_get"]; s.Parent != lookup || s.Async || s.Outcome != "ok" {
		t.Errorf("get span = %+v, want a child of the lookup with outcome ok", s)
	}
	for _, name := range []string{"artifact.disk_put", "artifact.disk_has"} {
		if s := byName[name]; !s.Async || s.Parent != 0 {
			t.Errorf("%s span = %+v, want an async root", name, s)
		}
	}
}

func TestAggregateSelfTimeAndWall(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "trace.pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "mat2c.resolve", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "opt.optimize", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "vm.rerun", Start: 60, End: 70, Probe: true},
		{ID: 5, Name: "artifact.disk_put", Start: 30, End: 90, Async: true},
	}
	l := Aggregate(spans)
	want := map[string]int64{"trace.pass": 40, "mat2c.resolve": 20, "opt.optimize": 30, "vm.rerun": 10, "artifact.disk_put": 60}
	for name, d := range want {
		if int64(l.Self[name]) != d {
			t.Errorf("self(%s) = %d, want %d", name, l.Self[name], d)
		}
	}
	if l.Wall != 90 {
		t.Errorf("wall = %d, want 90 (root minus the probe; async spans excluded)", l.Wall)
	}
}
