package mat2c

import "mat2c/internal/artifact"

// Want is one lookup a caller is about to make, for Prefetch: the
// compilation under Key and, when CaseDigest is set, the events of a
// verified run of its program on the case with that digest (Events).
type Want struct {
	Key        Key
	CaseDigest string
}

// prefetched is the remote tier's answers one Prefetch read ahead, by
// store key. Each answers one read and is then dropped. Absent holds
// the record and events keys the local tier answered absent to
// Prefetch's probe: while their remote answer is held, the local tier
// is not read again.
type prefetched struct {
	answers map[string]artifact.Fetched
	absent  map[string]bool
}

// Prefetch reads ahead what the lookups in wants will ask the remote
// tier for, when that tier reads many entries in one round trip
// (artifact.BatchGetter; see CanPrefetch), and holds the answers until
// release is called. It reads the records of the keys that neither
// memory nor the local tier holds (when the local tier answers presence
// probes), then the program blobs and events entries those records
// name, skipping programs the decoded-program memo holds, events
// entries the local tier holds and entries another Prefetch holds: a
// batch read each. Blobs are not probed: a record read from the remote
// tier has its blob read from there too. A lookup that finds its read
// held takes the answer as the remote tier's reply to Get, so
// decoding, key checks, deletion of bad entries, counters and offers
// to the local tier are those of a read by key. A batch that fails
// holds nothing, and its lookups read key by key as they do without
// Prefetch, which is a no-op when the remote tier cannot batch.
//
// The answers are held in memory, so callers prefetch bounded runs of
// lookups and release each run once its lookups are done; release may
// be called more than once. A Prefetch that SetRemoteStore overtakes
// holds nothing.
func (c *Cache) Prefetch(wants []Want) (release func()) {
	c.mu.Lock()
	bg, ok := c.tiers[remoteTier].store.(artifact.BatchGetter)
	near, _ := c.tiers[diskTier].store.(artifact.Checker)
	remotes := c.remotes
	c.mu.Unlock()
	if !ok || len(wants) == 0 {
		return func() {}
	}
	p := &prefetched{answers: make(map[string]artifact.Fetched), absent: make(map[string]bool)}
	fetch := func(keys []string) {
		if len(keys) == 0 {
			return
		}
		got, err := bg.GetBatch(keys)
		if err != nil {
			return
		}
		for i, a := range got {
			p.answers[keys[i]] = a
		}
	}

	// probe reports whether key is worth reading ahead: not when the
	// local tier holds it. A key it answers absent is not read there
	// while its answer is held.
	probe := func(key string) bool {
		if near == nil {
			return true
		}
		has, err := near.Has(key)
		if err == nil && has {
			return false
		}
		p.absent[key] = err == nil
		return true
	}

	seen := make(map[string]bool)
	var keys []string
	for _, w := range wants {
		key := w.Key.hash
		if key == "" || seen[key] {
			continue
		}
		seen[key] = true
		if !c.mem.Contains(key) && probe(key) {
			keys = append(keys, key)
		}
	}
	fetch(keys)

	keys = keys[:0]
	for _, w := range wants {
		rec, ok := p.answers[w.Key.hash]
		if !ok || rec.Err != nil {
			continue
		}
		hash, ok := artifact.RecordProgramHash(rec.Data)
		if !ok || c.progs.Contains(hash) {
			continue
		}
		if key := artifact.BlobKey(hash); !seen[key] && !c.isHeld(key) {
			seen[key] = true
			keys = append(keys, key)
		}
		if w.CaseDigest == "" {
			continue
		}
		if key := artifact.EventsKey(hash, w.CaseDigest); !seen[key] && !c.isHeld(key) {
			seen[key] = true
			if probe(key) {
				keys = append(keys, key)
			}
		}
	}
	fetch(keys)

	c.mu.Lock()
	if c.remotes != remotes {
		// SetRemoteStore replaced the store these answers are from.
		c.mu.Unlock()
		return func() {}
	}
	c.held = append(c.held, p)
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i, q := range c.held {
			if q == p {
				c.held = append(c.held[:i], c.held[i+1:]...)
				return
			}
		}
	}
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

// isHeld reports whether a Prefetch holds an answer for key.
func (c *Cache) isHeld(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.held {
		if _, ok := p.answers[key]; ok {
			return true
		}
	}
	return false
}

// tierGet reads key from tier i, whose store is s: the held answer when
// tier i is the remote and a Prefetch holds one, a miss when tier i is
// the local one and the Prefetch holding key's answer found it absent
// there, or else the store's.
func (c *Cache) tierGet(i int, s artifact.Store, key string) ([]byte, error) {
	c.mu.Lock()
	for _, p := range c.held {
		if a, ok := p.answers[key]; ok {
			if i == remoteTier {
				delete(p.answers, key)
				c.mu.Unlock()
				return a.Data, a.Err
			}
			if p.absent[key] {
				c.mu.Unlock()
				return nil, artifact.ErrNotFound
			}
		}
	}
	c.mu.Unlock()
	return s.Get(key)
}
