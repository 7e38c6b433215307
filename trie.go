package mat2c

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"

	"mat2c/internal/artifact"
	"mat2c/internal/core"
	"mat2c/internal/pdesc"
)

// The compile trie.
//
// A store tier files each compilation under what it read of its
// processor, not under the whole processor description. Within one
// shape (core.AppendShape) a compile is a deterministic function of the
// answers its target gives to the questions it asks (core.Query), and
// it chooses each next question from the answers so far. So the store
// holds, per shape, a trie: the node at the root key (Key.root, a
// digest over the input and the shape rendering) names the first
// question; the node under childKey(parent, question, answer) names
// the next; and the node the last answer leads to is a leaf, the
// compile's record. A lookup walks from the root asking its own
// processor each question, and every processor that gives a compile's
// answers reaches that compile's leaf, whatever it says of anything
// else: a sweep's cost siblings, and the variants whose lanes and
// instruction groups a kernel never asks about, share one path.
//
// Every node is write-once: everything on a path fixes what a node
// holds (the next question, or the record), so every writer of a key
// writes the same bytes, and racing writers need no coordination.
// Nodes are content-addressed like every other entry, which keeps a
// store's "racing writers store identical bytes" contract and lets an
// offer skip a node a deeper tier already holds.

// maxTrieDepth bounds a walk, so a store that answers every key with an
// inner node cannot hold a lookup forever. A compile asks a handful of
// questions (seven at most on the supported sweeps).
const maxTrieDepth = 64

// node is a decoded trie node: an inner node's next question, or a
// leaf's record (rec is non-nil). A node in the memo also keeps, under
// mu, what walks through it derive alike: an inner node the keys of
// the children its answers lead to, and a leaf the Result it restores
// (core.Result.On binds it to each lookup's processor), without its
// program.
type node struct {
	question string
	rec      *artifact.Record

	mu       sync.Mutex
	children []child
	res      *core.Result
}

// child is the key an inner node's answer leads to.
type child struct {
	answer int
	key    string
}

// next returns the key of the child that p's answer to n's question
// leads to from n, filed under key.
func (n *node) next(key string, p *pdesc.Processor) string {
	answer := core.Ask(p, n.question)
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, c := range n.children {
		if c.answer == answer {
			return c.key
		}
	}
	k := childKey(key, n.question, answer)
	n.children = append(n.children, child{answer, k})
	return k
}

// step is one node of a path, under its key.
type step struct {
	key string
	n   *node
}

// memoNode is a node in the decoded-node memo, with the tier it was
// read from.
type memoNode struct {
	n    *node
	tier int
}

// childKey is the key of the node that answering question with answer
// leads to from the node under parent.
func childKey(parent, question string, answer int) string {
	buf := make([]byte, 0, 24+len(parent)+len(question))
	buf = appendKeyField(buf, parent)
	buf = appendKeyField(buf, question)
	buf = appendKeyField(buf, strconv.AppendInt(nil, int64(answer), 10))
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// compiledPath returns the path a compile whose trie root is root is
// filed under: an inner node per question it asked, in order, and the
// leaf holding its record.
func compiledPath(root string, res *Result) []step {
	key := root
	path := make([]step, 0, len(res.res.Queries)+1)
	for _, q := range res.res.Queries {
		path = append(path, step{key, &node{question: q.Question}})
		key = childKey(key, q.Question, q.Answer)
	}
	return append(path, step{key, &node{rec: newRecord(key, res)}})
}

// encodeNode serializes a trie node filed under key.
func encodeNode(key string, n *node) []byte {
	if n.rec != nil {
		return artifact.EncodeRecord(n.rec, cacheKeyVersion)
	}
	return artifact.EncodeQuery(key, n.question, cacheKeyVersion)
}

// decodeNode decodes node bytes fetched under key. A node filed under
// another key, or an inner node whose question no compile asks, is
// corrupt.
func decodeNode(data []byte, key string) (*node, error) {
	q, rec, err := artifact.DecodeNode(data, key, cacheKeyVersion)
	if err != nil {
		return nil, err
	}
	if rec == nil && !core.Asked(q) {
		return nil, fmt.Errorf("%w: node %s asks %q", artifact.ErrCorrupt, key, q)
	}
	return &node{question: q, rec: rec}, nil
}

// readNode reads and decodes the node under key from s (see read).
func readNode(s artifact.Store, key string) (*node, error) {
	n, _, err := read(s, key, func(b []byte) (*node, error) { return decodeNode(b, key) })
	return n, err
}

// errUnrecalled is a walk through the memo alone meeting a node the
// memo does not hold.
var errUnrecalled = fmt.Errorf("mat2c: node not in the memo: %w", artifact.ErrNotFound)

// walk follows k's trie from its root on processor p, asking p each
// inner node's question, and returns the path to the leaf it reaches
// and the tier the leaf was read from, which settles the lookup. Each
// node comes from the decoded-node memo or, when s is non-nil, is read
// from tier i through s (see node). Nodes are content-addressed, so an
// inner node serves a walk whichever tier it was read from; a walk on
// tier i reads the leaf from tier i unless the memo has it from there.
func (c *Cache) walk(k Key, p *pdesc.Processor, i int, s artifact.Store) (path []step, tier int, err error) {
	key := k.root
	path = make([]step, 0, 8) // a path is at most eight nodes on the supported sweeps
	for depth := 0; depth < maxTrieDepth; depth++ {
		m, err := c.node(key, i, s)
		if err != nil {
			return nil, 0, err
		}
		if m.n.rec != nil && s != nil && m.tier != i {
			n, err := readNode(s, key)
			if err != nil {
				return nil, 0, err
			}
			c.held.Add(entryAt{key, i}, struct{}{})
			m = memoNode{n, i}
		}
		path = append(path, step{key, m.n})
		if m.n.rec != nil {
			return path, m.tier, nil
		}
		key = m.n.next(key, p)
	}
	return nil, 0, fmt.Errorf("%w: trie path %s is deeper than %d nodes", artifact.ErrCorrupt, k.root, maxTrieDepth)
}

// node returns the decoded node under key: from the memo, or, when s is
// non-nil, read from tier i through s and kept in the memo. A node a
// run's read-ahead found absent on the tier (s is the run's view) is
// absent for the run's walks there, memo or not. Concurrent reads of
// one key share one load; a caller whose shared load failed reads its
// own tier next. Bytes that fail to decode or are misfiled are deleted
// from the tier (see read).
func (c *Cache) node(key string, i int, s artifact.Store) (memoNode, error) {
	if s == nil {
		if m, ok := c.nodes.Get(key); ok {
			return m, nil
		}
		return memoNode{}, errUnrecalled
	}
	if v, ok := s.(*readAhead); ok && v.lacks(key) {
		return memoNode{}, fmt.Errorf("read ahead: %w", artifact.ErrNotFound)
	}
	for {
		m, err, shared := c.nodes.Do(bgCtx, key, func() (memoNode, error) {
			n, err := readNode(s, key)
			if err != nil {
				return memoNode{}, err
			}
			c.held.Add(entryAt{key, i}, struct{}{})
			return memoNode{n, i}, nil
		})
		if err != nil && shared {
			continue
		}
		return m, err
	}
}
