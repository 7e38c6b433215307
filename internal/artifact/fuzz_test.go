package artifact_test

import (
	"context"
	"testing"

	"mat2c/internal/artifact"
	"mat2c/internal/bench"
	"mat2c/internal/core"
	"mat2c/internal/pdesc"
	"mat2c/internal/vm"
)

// fuzzKeyVersion is the cache-key version the record fuzzers encode
// and decode under.
const fuzzKeyVersion = "fuzz-key-v1"

// seedResults compiles every benchmark kernel against a couple of
// builtin targets — the fuzz corpora start from real encodings so
// mutations explore the formats' interior, not just their magic
// headers.
func seedResults(f *testing.F) []*core.Result {
	var out []*core.Result
	for _, target := range []string{"dspasip", "scalar"} {
		p, err := pdesc.Resolve(target)
		if err != nil {
			f.Fatal(err)
		}
		cfg := core.Proposed(p)
		cfg.EmitC = true
		for _, k := range bench.Kernels() {
			res, err := core.Compile(k.Source, k.Entry, k.Params, cfg)
			if err != nil {
				f.Fatalf("%s/%s: %v", target, k.Name, err)
			}
			out = append(out, res)
		}
	}
	return out
}

// degenerateSeeds are empty, header-only and checksum-only inputs.
var degenerateSeeds = [][]byte{{}, []byte("M2CP"), []byte("M2CR"), []byte("M2CE"), make([]byte, 64)}

func seedRecord(res *core.Result) []byte {
	return artifact.EncodeRecord(&artifact.Record{
		Key:             "0011223344556677",
		Entry:           res.Entry,
		ProgramHash:     res.Program.ContentHash(),
		CSource:         res.CSource,
		CHeader:         res.CHeader,
		CPrototype:      "void f(void);",
		Warnings:        []string{"w"},
		VectorizedLoops: res.VectorizedLoops,
		Intrinsics:      res.Intrinsics.Selected,
	}, fuzzKeyVersion)
}

// FuzzDecodeProgram holds the decoder to its contract on arbitrary
// bytes: return a typed error or a valid program — never panic, never
// allocate beyond what the input length justifies. A successful decode
// must re-encode byte-identically (the codec is canonical).
func FuzzDecodeProgram(f *testing.F) {
	for _, res := range seedResults(f) {
		f.Add(artifact.EncodeProgram(res.Program))
	}
	for _, b := range degenerateSeeds {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := artifact.DecodeProgram(data)
		if err != nil {
			return
		}
		// Anything that decodes must be canonical: encoding it again
		// reproduces the input exactly.
		enc := artifact.EncodeProgram(p)
		if string(enc) != string(data) {
			t.Fatalf("decode/encode is not canonical: %d in, %d out", len(data), len(enc))
		}
	})
}

// FuzzDecodeRecord is the same contract for the record frame, a compile
// trie's leaf, plus the one the cache relies on to build a blob key
// from it: a decoded record names its program by a valid hash. It holds
// DecodeNode to it too, for leaves and for query nodes.
func FuzzDecodeRecord(f *testing.F) {
	for _, res := range seedResults(f) {
		f.Add(seedRecord(res))
	}
	for _, b := range degenerateSeeds {
		f.Add(b)
	}
	for _, q := range []string{"L0", "L1", "Ivfma"} {
		f.Add(artifact.EncodeQuery(fuzzNodeKey, q, fuzzKeyVersion))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Both kinds of trie node decode under their own key, and
		// re-encode to the bytes they were read from.
		if q, rec, err := artifact.DecodeNode(data, fuzzNodeKey, fuzzKeyVersion); err == nil && rec == nil {
			if enc := artifact.EncodeQuery(fuzzNodeKey, q, fuzzKeyVersion); string(enc) != string(data) {
				t.Fatalf("query node decode/encode is not canonical: %d in, %d out", len(data), len(enc))
			}
		}
		rec, err := artifact.DecodeRecord(data, fuzzKeyVersion)
		if err != nil {
			return
		}
		if err := artifact.ValidKey(artifact.BlobKey(rec.ProgramHash)); err != nil {
			t.Fatalf("decoded record names an invalid blob key: %v", err)
		}
		enc := artifact.EncodeRecord(rec, fuzzKeyVersion)
		if string(enc) != string(data) {
			t.Fatalf("decode/encode is not canonical: %d in, %d out", len(data), len(enc))
		}
		if _, nrec, err := artifact.DecodeNode(data, rec.Key, fuzzKeyVersion); err != nil || nrec == nil {
			t.Fatalf("a record does not decode as the trie leaf under its key: %v", err)
		}
	})
}

// fuzzNodeKey is the key the fuzzed query nodes are filed under.
const fuzzNodeKey = "0011223344556677"

// FuzzDecodeArtifact holds a whole durable artifact — a record and the
// program blob it names — to the restore path's contract: whatever
// pair decodes and verifies is a program whose content hash is the one
// the record names, and both halves are canonical.
func FuzzDecodeArtifact(f *testing.F) {
	for _, res := range seedResults(f) {
		f.Add(seedRecord(res), artifact.EncodeProgram(res.Program))
	}
	for _, b := range degenerateSeeds {
		f.Add(b, b)
	}
	f.Fuzz(func(t *testing.T, recData, blobData []byte) {
		rec, err := artifact.DecodeRecord(recData, fuzzKeyVersion)
		if err != nil {
			return
		}
		prog, err := artifact.DecodeBlob(blobData, rec.ProgramHash)
		if err != nil {
			return
		}
		if prog.ContentHash() != rec.ProgramHash {
			t.Fatalf("verified blob hashes to %s, record names %s", prog.ContentHash(), rec.ProgramHash)
		}
		if string(artifact.EncodeRecord(rec, fuzzKeyVersion)) != string(recData) ||
			string(artifact.EncodeProgram(prog)) != string(blobData) {
			t.Fatal("decode/encode is not canonical")
		}
	})
}

// eventsSeed is one real run's events entry and the program it is for.
type eventsSeed struct {
	key  string
	prog *vm.Program
	data []byte
}

// seedEvents runs every seed program on its kernel's case at a small
// size and encodes the run's events under their cache key.
func seedEvents(f *testing.F) []eventsSeed {
	p, err := pdesc.Resolve("dspasip")
	if err != nil {
		f.Fatal(err)
	}
	var out []eventsSeed
	kernels := bench.Kernels()
	for i, res := range seedResults(f) { // kernel by kernel, per target
		k := kernels[i%len(kernels)]
		c := k.Case(bench.SizeFor(k, 0.05))
		_, ev, err := vm.NewMachine(p).RunEvents(context.Background(), res.Program, c.Args()...)
		if err != nil || ev == nil {
			f.Fatalf("%s: run: events %v, err %v", k.Name, ev, err)
		}
		key := artifact.EventsKey(res.Program.ContentHash(), c.Digest())
		out = append(out, eventsSeed{key, res.Program, artifact.EncodeEvents(key, ev, fuzzKeyVersion)})
	}
	return out
}

// FuzzDecodeEvents holds the events decoder to the same contract, for
// each seed's program and key: a typed error or events that match the
// program's block layout, re-encode byte-identically, and price
// without panicking.
func FuzzDecodeEvents(f *testing.F) {
	seeds := seedEvents(f)
	for _, s := range seeds {
		f.Add(s.data)
	}
	for _, b := range degenerateSeeds {
		f.Add(b)
	}
	proc, err := pdesc.Resolve("dspasip")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range seeds {
			ev, err := artifact.DecodeEvents(data, s.key, s.prog, fuzzKeyVersion)
			if err != nil {
				continue
			}
			if string(artifact.EncodeEvents(s.key, ev, fuzzKeyVersion)) != string(data) {
				t.Fatalf("decode/encode is not canonical: %d bytes in", len(data))
			}
			vm.NewMachine(proc).Price(s.prog, ev)
		}
	})
}
