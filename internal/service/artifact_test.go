package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	mat2c "mat2c"
	"mat2c/internal/artifact"
	"mat2c/internal/artifact/remote"
	"mat2c/internal/fleet"
)

func openStore(t *testing.T) *artifact.DiskStore {
	t.Helper()
	s, err := artifact.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShutdownMakesArtifactsDurable is the drain-durability regression
// test: an artifact whose compile finished just before shutdown must be
// in the store when Shutdown returns, with no explicit Flush by the
// caller — the write-through is asynchronous and Shutdown must wait
// for it.
func TestShutdownMakesArtifactsDurable(t *testing.T) {
	store := openStore(t)
	s := New(Config{Workers: 2, Store: store})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts, "/compile", map[string]interface{}{
		"source": scaleSrc, "params": "real(1,:), real", "target": "dspasip",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d: %s", resp.StatusCode, body)
	}
	s.Shutdown()
	if _, hit := restoreScale(t, store, false); !hit {
		t.Fatal("artifact not durable after Shutdown")
	}
}

// restoreScale looks the test kernel's /compile request up through a
// fresh cache over s, as the local tier or as the remote one, and
// reports the cache and whether a store tier served it.
func restoreScale(t *testing.T, s artifact.Store, asRemote bool) (*mat2c.Cache, bool) {
	t.Helper()
	params, err := mat2c.ParseTypes("real(1,:), real")
	if err != nil {
		t.Fatal(err)
	}
	c := mat2c.NewCache(1)
	if asRemote {
		c.SetRemoteStore(s)
	} else {
		c.SetStore(s)
	}
	_, hit, err := mat2c.CompileCached(c, scaleSrc, "", params, mat2c.Options{Target: "dspasip"})
	if err != nil {
		t.Fatal(err)
	}
	return c, hit && c.Stats().Compiles == 0
}

// TestArtifactServeMountsBlobProtocol: with ArtifactServe the daemon's
// own mux serves the store at /artifact, usable by a RemoteStore
// client, and /metrics carries the remote section on a consumer.
func TestArtifactServeMountsBlobProtocol(t *testing.T) {
	store := openStore(t)
	s := New(Config{Workers: 2, Store: store, ArtifactServe: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts, "/compile", map[string]interface{}{
		"source": scaleSrc, "params": "real(1,:), real", "target": "dspasip",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d: %s", resp.StatusCode, body)
	}
	s.Cache().Flush()

	// Restore the artifact over the blob protocol.
	rc := remote.New(ts.URL+"/artifact", remote.Options{})
	c, hit := restoreScale(t, rc, true)
	if !hit {
		t.Fatalf("blob protocol did not serve a just-compiled artifact: %+v", c.Stats())
	}
	// One compile is its trie path, which the restore read, and its
	// program blob.
	if n, err := rc.Len(); err != nil || uint64(n) != c.Stats().Remote.Hits {
		t.Fatalf("origin entry count: %d %v, want the %d entries the restore read", n, err, c.Stats().Remote.Hits)
	}

	// A second server using that endpoint as its remote tier restores
	// the compile without running the pipeline, and its /metrics report
	// the remote section.
	s2 := New(Config{Workers: 2, Remote: remote.New(ts.URL+"/artifact", remote.Options{})})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp2, body2 := postJSON(t, ts2, "/compile", map[string]interface{}{
		"source": scaleSrc, "params": "real(1,:), real", "target": "dspasip",
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("remote-backed compile: status %d: %s", resp2.StatusCode, body2)
	}
	var cr2 CompileResponse
	if err := json.Unmarshal(body2, &cr2); err != nil {
		t.Fatal(err)
	}
	if !cr2.CacheHit {
		t.Error("remote-tier restore not reported as a cache hit")
	}
	st := s2.Cache().Stats()
	if st.RemoteHits != 1 || st.Compiles != 0 {
		t.Errorf("consumer cache stats: %+v, want 1 remote hit / 0 compiles", st)
	}
	var snap struct {
		Cache mat2c.CacheStats `json:"cache"`
	}
	getJSON(t, ts2, "/metrics", &snap)
	if snap.Cache.RemoteHits != 1 || snap.Cache.BlobDecodes != 1 {
		t.Errorf("/metrics remote_hits = %d and blob_decodes = %d, want 1 each", snap.Cache.RemoteHits, snap.Cache.BlobDecodes)
	}
	if snap.Cache.Remote == nil || snap.Cache.Remote.BreakerState != "closed" {
		t.Errorf("/metrics remote store section: %+v", snap.Cache.Remote)
	}
}

// TestFleetRegisterAdvertisesArtifactURL: a coordinator serving
// artifacts tells registering workers where the shared cache lives;
// one that does not leaves the field empty.
func TestFleetRegisterAdvertisesArtifactURL(t *testing.T) {
	register := func(cfg Config) fleet.RegisterReply {
		t.Helper()
		cfg.Role = RoleCoordinator
		s := New(cfg)
		defer s.Shutdown()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		resp, body := postJSON(t, ts, "/fleet/register", fleet.RegisterRequest{URL: "http://worker:1", Slots: 2})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register: status %d: %s", resp.StatusCode, body)
		}
		var rep fleet.RegisterReply
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}

	if rep := register(Config{Store: openStore(t), ArtifactServe: true}); rep.ArtifactURL != "/artifact" {
		t.Errorf("serving coordinator advertised %q, want /artifact", rep.ArtifactURL)
	}
	if rep := register(Config{}); rep.ArtifactURL != "" {
		t.Errorf("non-serving coordinator advertised %q, want empty", rep.ArtifactURL)
	}
}
