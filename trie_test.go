package mat2c

import (
	"strings"
	"testing"

	"mat2c/internal/artifact"
	"mat2c/internal/core"
	"mat2c/internal/pdesc"
)

// compileOn compiles the test kernel under opts and files its trie path
// and blob in a fresh disk store over dir, as a cache would.
func compileOn(t *testing.T, dir string, opts Options) *Result {
	t.Helper()
	c := NewCache(8)
	c.SetStore(openTestStore(t, dir))
	res, hit, err := CompileCached(c, cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil || hit {
		t.Fatalf("compile into an empty store: hit=%v err=%v", hit, err)
	}
	c.Flush()
	return res
}

// TestTrieNodeFaultsAreMisses spoils one entry of a compile filed on
// the disk tier, each way a store can hold a bad trie entry: an inner
// node with a flipped byte, a truncated leaf, the root of another
// input's trie filed under this one's root, and a leaf whose program
// blob is gone. Each is a counted miss — a decode error for the bad
// bytes, which are deleted, and a plain miss for the missing blob —
// and the recompile that follows serves the right program and heals
// the store.
func TestTrieNodeFaultsAreMisses(t *testing.T) {
	opts := Options{Target: "dspasip"}
	want, err := Compile(cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := testPath(t, opts, want)
	if len(path) < 3 {
		t.Fatalf("the test kernel's path has %d nodes, want inner nodes before the leaf", len(path))
	}
	otherSrc := strings.Replace(cacheTestSrc, "+ 1", "+ 2", 1)
	otherKeys, err := Keys(opts, Input{Source: otherSrc, Entry: "scale", Params: cacheTestParams})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		spoil   func(t *testing.T, s *artifact.DiskStore)
		corrupt bool
	}{
		{"flipped inner node", func(t *testing.T, s *artifact.DiskStore) {
			data := mustGet(t, s, path[1].key)
			data[len(data)/2] ^= 0x40
			if err := s.Put(path[1].key, data); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"truncated leaf", func(t *testing.T, s *artifact.DiskStore) {
			leaf := path[len(path)-1].key
			if err := s.Put(leaf, mustGet(t, s, leaf)[:40]); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"another input's root", func(t *testing.T, s *artifact.DiskStore) {
			other, err := Compile(otherSrc, "scale", cacheTestParams, opts)
			if err != nil {
				t.Fatal(err)
			}
			root := compiledPath(otherKeys[0].root, other)[0]
			if err := s.Put(path[0].key, encodeNode(root.key, root.n)); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"leaf without its blob", func(t *testing.T, s *artifact.DiskStore) {
			if err := s.Delete(artifact.BlobKey(want.Program().ContentHash())); err != nil {
				t.Fatal(err)
			}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			compileOn(t, dir, opts)
			store := openTestStore(t, dir)
			tc.spoil(t, store)

			c := NewCache(8)
			c.SetStore(openTestStore(t, dir))
			res, hit, err := CompileCached(c, cacheTestSrc, "scale", cacheTestParams, opts)
			if err != nil || hit {
				t.Fatalf("spoilt store: hit=%v err=%v, want a recompile", hit, err)
			}
			c.Flush()
			if res.Program().ContentHash() != want.Program().ContentHash() || res.CSource() != want.CSource() {
				t.Fatal("served a compile other than the kernel's")
			}
			st := c.Stats()
			wantDecode := uint64(0)
			if tc.corrupt {
				wantDecode = 1
			}
			if st.DiskMisses != 1 || st.DecodeErrors != wantDecode || st.Compiles != 1 || st.DiskHits != 0 {
				t.Errorf("stats %+v: want 1 disk miss, %d decode errors and 1 recompile", st, wantDecode)
			}
			if tc.corrupt && st.Disk.Deletes != 1 {
				t.Errorf("%d deletes, want the bad entry's", st.Disk.Deletes)
			}
			healed := NewCache(8)
			healed.SetStore(openTestStore(t, dir))
			if res, hit, err := CompileCached(healed, cacheTestSrc, "scale", cacheTestParams, opts); err != nil || !hit ||
				res.Program().ContentHash() != want.Program().ContentHash() {
				t.Errorf("store not healed by the recompile: hit=%v err=%v", hit, err)
			}
		})
	}
}

// TestTrieSeparatesAnswers files compiles of one input on processors
// that answer one of its questions differently in one store: each
// lookup from a fresh cache reaches its own compile, with its own
// program, and a processor that differs only in what the compile
// never asks reaches the same one.
func TestTrieSeparatesAnswers(t *testing.T) {
	base, err := LoadProcessor("dspasip")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Compile(cacheTestSrc, "scale", cacheTestParams, Options{Processor: base, SkipC: true})
	if err != nil {
		t.Fatal(err)
	}
	var asked string
	for _, q := range want.res.Queries {
		if q.Question[0] == 'I' && q.Answer == 1 {
			asked = q.Question[1:]
		}
	}
	if asked == "" {
		t.Fatalf("the test kernel asks for no instruction dspasip has: %v", want.res.Queries)
	}
	without, err := base.Derive("dspasip", func(p *Processor) {
		for i, in := range p.Instructions {
			if in.Name == asked {
				p.Instructions = append(p.Instructions[:i], p.Instructions[i+1:]...)
				break
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cheaper, err := base.Derive("dspasip", func(p *Processor) { p.Costs = map[string]int{"vop": 1} })
	if err != nil {
		t.Fatal(err)
	}
	procs := []*Processor{base, without, cheaper}
	progs := make([]string, len(procs))
	dir := t.TempDir()
	for i, p := range procs {
		opts := Options{Processor: p, SkipC: true}
		res, err := Compile(cacheTestSrc, "scale", cacheTestParams, opts)
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = res.Program().ContentHash()
		if i < 2 {
			core.ResetMemos()
			compileOn(t, dir, opts)
		}
	}
	if progs[0] == progs[1] || progs[0] != progs[2] {
		t.Fatal("dropping the instruction must change the program, and a cost must not")
	}
	core.ResetMemos()
	c := NewCache(8)
	c.SetStore(openTestStore(t, dir))
	for i, p := range procs {
		res, hit, err := CompileCached(c, cacheTestSrc, "scale", cacheTestParams, Options{Processor: p, SkipC: true})
		if err != nil || !hit {
			t.Fatalf("processor %d: hit=%v err=%v, want a disk hit", i, hit, err)
		}
		if res.Program().ContentHash() != progs[i] {
			t.Errorf("processor %d reached another answer set's compile", i)
		}
	}
	if st := c.Stats(); st.Compiles != 0 || st.DiskHits != 3 {
		t.Errorf("stats %+v: want 3 disk hits and no compile", st)
	}
}

// TestTrieRootCoversPatterns: the root of a compile's trie covers the
// semantics of the pattern-defined instructions, which instruction
// selection reads without asking a question, so processors that
// declare one name with other semantics file their compiles apart.
func TestTrieRootCoversPatterns(t *testing.T) {
	base, err := LoadProcessor("dspasip")
	if err != nil {
		t.Fatal(err)
	}
	var roots []string
	for _, sem := range []string{"float:mul(p0,p1)", "float:add(p0,mul(p1,p1))"} {
		p, err := base.Derive("dspasip", func(p *Processor) {
			p.Instructions = append(p.Instructions, pdesc.Instr{Name: "isx0", CName: "_isx0", Cycles: 1, Semantics: sem})
		})
		if err != nil {
			t.Fatal(err)
		}
		keys, err := Keys(Options{Processor: p, SkipC: true}, Input{Source: cacheTestSrc, Entry: "scale", Params: cacheTestParams})
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, keys[0].root)
	}
	if roots[0] == roots[1] {
		t.Error("processors whose pattern instruction differs in semantics share a trie root")
	}
}
