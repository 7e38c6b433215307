package mat2c

import (
	"errors"
	"sync"

	"mat2c/internal/artifact"
	"mat2c/internal/pdesc"
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
// views of its own.
//
// It walks the tries of the keys memory does not hold level by level,
// each on its own processor, with one batch read per level for the
// nodes of every walk that the decoded-node memo lacks; a node the
// local tier holds (when it answers presence probes) it reads there
// instead, as the run's lookups would, since they walk the local tier
// first. The nodes it reads go into the decoded-node memo, as a
// lookup's reads would, so a node two walks reach is read once and
// lookups walk through the memo; nodes another run's Prefetch is
// batch-reading at the time it waits for and shares. Then it batch-reads
// the program blobs and events entries the leaves name, skipping those
// the local tier holds, blobs of programs the decoded-program memo
// holds and events entries the events memo holds.
//
// The remote view answers a blob, an events entry or a node that failed
// to decode once, as the remote tier's reply to Get, so decoding, key
// checks, deletion of bad entries, counters and offers are those of a
// read by key; it answers a key the batch found absent as absent for
// the whole run. The local view answers a key the probe found absent
// (a leaf read from the remote included, which a walk on the local
// tier reads there again) as absent for the whole run. A walk on a
// tier stops at a node its view answers absent, memo or not (see
// node). A view is read only while its tier's store is the one it
// wraps, and the walk stops when SetRemoteStore replaces the remote it
// reads; writes and probes go to the attached stores. A failed batch
// reads nothing ahead, and Prefetch returns c itself when the remote
// tier cannot batch. Answers stay in memory until the handle is
// dropped, so callers prefetch bounded runs of lookups; lookups through
// c or another handle do not see them.
func (c *Cache) Prefetch(wants []Want) *Cache {
	stores := c.stores()
	bg, ok := stores[remoteTier].(artifact.BatchGetter)
	if !ok || len(wants) == 0 {
		return c
	}
	near, _ := stores[diskTier].(artifact.Checker)
	var views [numTiers]*readAhead
	for i, s := range stores {
		views[i] = &readAhead{Store: s, answers: make(map[string]artifact.Fetched)}
	}
	absent := make(map[string]bool)
	seen := make(map[string]bool)
	var keys []string
	// want queues key for the next batch read, once, and reports whether
	// it did: not when it was seen before or the local tier holds it.
	want := func(key string) bool {
		if seen[key] {
			return false
		}
		seen[key] = true
		if near != nil {
			has, err := near.Has(key)
			if err == nil && has {
				return false
			}
			absent[key] = err == nil
		}
		keys = append(keys, key)
		return true
	}
	// take files a node read ahead from tier i into the node memo, and
	// reports whether it decoded.
	take := func(key string, a artifact.Fetched, i int) bool {
		if a.Err != nil {
			return false
		}
		n, err := decodeNode(a.Data, key)
		if err != nil {
			return false
		}
		c.nodes.Add(key, memoNode{n, i})
		c.held.Add(entryAt{key, i}, struct{}{})
		return true
	}
	// fetch batch-reads the queued keys, unless the remote was replaced,
	// but waits for the keys another run's Prefetch is reading now and
	// shares its answers. When nodes is set, a node that decodes goes
	// into the node memo; every other answer is the remote view's. Each
	// key answered that the local tier lacks is answered absent to the
	// run's local reads.
	fetch := func(nodes bool) {
		mine := &batchRead{done: make(chan struct{}), got: make(map[string]artifact.Fetched)}
		reads := make([]*batchRead, len(keys))
		var own []string
		c.mu.Lock()
		for i, key := range keys {
			if br, ok := c.reading[key]; ok {
				reads[i] = br
				continue
			}
			c.reading[key], reads[i] = mine, mine
			own = append(own, key)
		}
		c.mu.Unlock()
		func() {
			// Release the keys however the read ends, so no other run's
			// Prefetch waits on them for ever.
			defer func() {
				c.mu.Lock()
				for _, key := range own {
					delete(c.reading, key)
				}
				c.mu.Unlock()
				close(mine.done)
			}()
			current := func() bool { return c.stores()[remoteTier] == stores[remoteTier] }
			if len(own) == 0 || !current() {
				return
			}
			if got, err := bg.GetBatch(own); err == nil && current() {
				mine.ok = true
				for i, key := range own {
					if !nodes || !take(key, got[i], remoteTier) {
						mine.got[key] = got[i]
					}
				}
			}
		}()
		for i, key := range keys {
			if <-reads[i].done; !reads[i].ok {
				continue
			}
			if a, ok := reads[i].got[key]; ok {
				views[remoteTier].answers[key] = a
			}
			if absent[key] {
				views[diskTier].answers[key] = artifact.Fetched{Err: artifact.ErrNotFound}
			}
		}
	}

	type walk struct {
		key    string
		proc   *pdesc.Processor
		digest string
	}
	var walks []walk
	for _, w := range wants {
		if w.Key.hash == "" || c.mem.Contains(w.Key.hash) {
			continue
		}
		if cfg, err := w.Key.opts.config(); err == nil {
			walks = append(walks, walk{w.Key.root, cfg.Processor, w.CaseDigest})
		}
	}
	var leaves []walk // at the leaf, whose program hash key now holds
	for len(walks) > 0 {
		// A node the local tier holds is read from there, as the run's
		// lookups would read it; the others are batch-read.
		keys = keys[:0]
		for _, w := range walks {
			if seen[w.key] {
				continue
			}
			if m, ok := c.nodes.Get(w.key); ok {
				// A walk on the local tier reads a leaf read from
				// another tier again (see walk).
				if m.n.rec != nil && m.tier != diskTier && near != nil {
					seen[w.key] = true
					if has, err := near.Has(w.key); err == nil && !has {
						views[diskTier].answers[w.key] = artifact.Fetched{Err: artifact.ErrNotFound}
					}
				}
				continue
			}
			if !want(w.key) {
				data, err := stores[diskTier].Get(w.key)
				if a := (artifact.Fetched{Data: data, Err: err}); !take(w.key, a, diskTier) {
					views[diskTier].answers[w.key] = a
				}
			}
		}
		fetch(true)
		next := walks[:0]
		for _, w := range walks {
			m, ok := c.nodes.Get(w.key)
			switch {
			case !ok:
			case m.n.rec != nil:
				leaves = append(leaves, walk{m.n.rec.ProgramHash, nil, w.digest})
			default:
				w.key = m.n.next(w.key, w.proc)
				next = append(next, w)
			}
		}
		walks = next
	}

	keys = keys[:0]
	for _, l := range leaves {
		if !c.progs.Contains(l.key) {
			want(artifact.BlobKey(l.key))
		}
		if key := artifact.EventsKey(l.key, l.digest); l.digest != "" && !c.events.Contains(key) {
			want(key)
		}
	}
	fetch(false)
	return &Cache{cacheState: c.cacheState, views: views}
}

// batchRead is one Prefetch's batch read in flight, which other runs'
// Prefetch calls wait for rather than read the same keys: done closes
// once ok tells whether the read succeeded and got holds its answers
// but the nodes it put in the node memo.
type batchRead struct {
	done chan struct{}
	ok   bool
	got  map[string]artifact.Fetched
}

// readAhead is a store tier as one run reads it after Prefetch: a Get
// of a key it has an answer for takes the answer — once, unless the
// answer is that the key is absent — and every other call goes to the
// store it wraps. Only its run takes its lock.
type readAhead struct {
	artifact.Store
	mu      sync.Mutex
	answers map[string]artifact.Fetched
}

func (v *readAhead) Get(key string) ([]byte, error) {
	v.mu.Lock()
	a, ok := v.answers[key]
	if ok && !errors.Is(a.Err, artifact.ErrNotFound) {
		delete(v.answers, key)
	}
	v.mu.Unlock()
	if !ok {
		return v.Store.Get(key)
	}
	return a.Data, a.Err
}

// lacks reports whether the read-ahead found key absent.
func (v *readAhead) lacks(key string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	a, ok := v.answers[key]
	return ok && errors.Is(a.Err, artifact.ErrNotFound)
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
