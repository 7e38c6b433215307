package mat2c

import (
	"sync"

	"mat2c/internal/artifact"
)

// Want is one lookup a caller is about to make, for Prefetch: the
// compilation under Key and, when CaseDigest is set, the events of a
// verified run of its program on the case with that digest (Events).
type Want struct {
	Key        Key
	CaseDigest string
}

// Prefetch reads ahead what the lookups in wants will ask the remote
// tier for, when that tier reads many entries in one round trip
// (artifact.BatchGetter; see CanPrefetch), and returns the handle for
// the run that makes them: a Cache sharing c's memory tier, memos,
// counters and offers, which reads the store tiers through read-ahead
// views of its own. It batch-reads the records of the keys that neither
// memory nor the local tier holds (when the local tier answers presence
// probes), then the program blobs and events entries those records
// name, skipping blobs of programs the decoded-program memo holds and
// events entries the events memo or the local tier holds. Blobs are not
// probed: a record read from the remote tier has its blob read from
// there too.
//
// The remote view answers each key a batch read once, as the remote
// tier's reply to Get, so decoding, key checks, deletion of bad
// entries, counters and offers are those of a read by key; the local
// view answers such a key once as absent when the probe found it so.
// A view is read only while its tier's store is the one it wraps
// (SetStore and SetRemoteStore can overtake it); writes and probes go
// to the attached stores. A failed batch reads nothing ahead, and
// Prefetch returns c itself when the remote tier cannot batch. Answers
// stay in memory until the handle is dropped, so callers prefetch
// bounded runs of lookups; lookups through c or another handle do not
// see them.
func (c *Cache) Prefetch(wants []Want) *Cache {
	stores := c.stores()
	bg, ok := stores[remoteTier].(artifact.BatchGetter)
	if !ok || len(wants) == 0 {
		return c
	}
	near, _ := stores[diskTier].(artifact.Checker)
	local := &readAhead{Store: stores[diskTier], answers: make(map[string]artifact.Fetched)}
	remote := &readAhead{Store: stores[remoteTier], answers: make(map[string]artifact.Fetched)}
	absent := make(map[string]bool)
	fetch := func(keys []string) {
		if len(keys) == 0 {
			return
		}
		got, err := bg.GetBatch(keys)
		if err != nil {
			return
		}
		for i, key := range keys {
			remote.answers[key] = got[i]
			if absent[key] {
				local.answers[key] = artifact.Fetched{Err: artifact.ErrNotFound}
			}
		}
	}

	seen := make(map[string]bool)
	var keys []string
	// want queues key for the next batch read, once, unless probe is
	// set and the local tier holds it.
	want := func(key string, probe bool) {
		if seen[key] {
			return
		}
		seen[key] = true
		if probe && near != nil {
			has, err := near.Has(key)
			if err == nil && has {
				return
			}
			absent[key] = err == nil
		}
		keys = append(keys, key)
	}
	for _, w := range wants {
		if key := w.Key.hash; key != "" && !c.mem.Contains(key) {
			want(key, true)
		}
	}
	fetch(keys)

	keys = keys[:0]
	for _, w := range wants {
		rec, ok := remote.answers[w.Key.hash]
		if !ok || rec.Err != nil {
			continue
		}
		hash, ok := artifact.RecordProgramHash(rec.Data)
		if !ok {
			continue
		}
		if !c.progs.Contains(hash) {
			want(artifact.BlobKey(hash), false)
		}
		if key := artifact.EventsKey(hash, w.CaseDigest); w.CaseDigest != "" && !c.events.Contains(key) {
			want(key, true)
		}
	}
	fetch(keys)
	return &Cache{cacheState: c.cacheState, views: [numTiers]*readAhead{local, remote}}
}

// readAhead is a store tier as one run reads it after Prefetch: a Get
// of a key it has an answer for takes the answer, once; every other
// call goes to the store it wraps. Only its run takes its lock.
type readAhead struct {
	artifact.Store
	mu      sync.Mutex
	answers map[string]artifact.Fetched
}

func (v *readAhead) Get(key string) ([]byte, error) {
	v.mu.Lock()
	a, ok := v.answers[key]
	delete(v.answers, key)
	v.mu.Unlock()
	if !ok {
		return v.Store.Get(key)
	}
	return a.Data, a.Err
}

// CanPrefetch reports whether Prefetch reads anything ahead: whether
// the remote tier attached now reads many entries in one round trip.
// A caller can skip building the lookups it would pass otherwise.
func (c *Cache) CanPrefetch() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.tiers[remoteTier].store.(artifact.BatchGetter)
	return ok
}
