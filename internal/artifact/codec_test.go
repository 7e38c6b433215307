package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"mat2c/internal/core"
	"mat2c/internal/pdesc"
	"mat2c/internal/sema"
	"mat2c/internal/vm"
)

const codecTestSrc = `function y = scale(x, a)
y = a .* x + 1;
end`

var codecTestParams = []sema.Type{
	{Class: sema.Real, Shape: sema.Shape{Rows: 1, Cols: sema.DimUnknown}},
	sema.ScalarType(sema.Real),
}

// compileTestResult runs the full pipeline (C emission included) on the
// reference kernel, giving the tests a realistic program: vector ops,
// intrinsics, immediates, array slots.
func compileTestResult(t testing.TB) *core.Result {
	t.Helper()
	p, err := pdesc.Resolve("dspasip")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Proposed(p)
	cfg.EmitC = true
	res, err := core.Compile(codecTestSrc, "scale", codecTestParams, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// testArtifact returns a durable artifact's two halves: a record with
// every section populated, and the program it names.
func testArtifact(t testing.TB) (*Record, *vm.Program) {
	res := compileTestResult(t)
	return &Record{
		Key:             "aabbccdd00112233",
		Entry:           res.Entry,
		ProgramHash:     res.Program.ContentHash(),
		CSource:         res.CSource,
		CHeader:         res.CHeader,
		CPrototype:      "void scale(void);\n",
		Warnings:        []string{"w1", "w2"},
		VectorizedLoops: res.VectorizedLoops,
		Intrinsics:      map[string]int{"mac": 2, "cmul": 1},
	}, res.Program
}

func TestProgramRoundTrip(t *testing.T) {
	prog := compileTestResult(t).Program
	enc := EncodeProgram(prog)
	dec, err := DecodeProgram(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got, want := dec.ContentHash(), prog.ContentHash(); got != want {
		t.Errorf("ContentHash changed across the round trip: %s != %s", got, want)
	}
	if got, want := dec.Disasm(), prog.Disasm(); got != want {
		t.Errorf("disassembly changed across the round trip:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if dec.NumRegs != prog.NumRegs || len(dec.Instrs) != len(prog.Instrs) {
		t.Errorf("shape changed: regs %d/%d instrs %d/%d",
			dec.NumRegs, prog.NumRegs, len(dec.Instrs), len(prog.Instrs))
	}
}

func TestProgramEncodingDeterministic(t *testing.T) {
	prog := compileTestResult(t).Program
	if !bytes.Equal(EncodeProgram(prog), EncodeProgram(prog)) {
		t.Error("two encodings of the same program differ")
	}
}

// TestArtifactRoundTrip stores a compilation as its record and program
// blob and restores both: the record comes back field for field, and
// the blob verifies against the hash the record names.
func TestArtifactRoundTrip(t *testing.T) {
	rec, prog := testArtifact(t)
	const kv = "test-key-v1"
	dec, err := DecodeRecord(EncodeRecord(rec, kv), kv)
	if err != nil {
		t.Fatalf("decode record: %v", err)
	}
	if !reflect.DeepEqual(dec, rec) {
		t.Errorf("record changed across the round trip:\n got %+v\nwant %+v", dec, rec)
	}
	got, err := DecodeBlob(EncodeProgram(prog), dec.ProgramHash)
	if err != nil {
		t.Fatalf("decode blob: %v", err)
	}
	if got.Disasm() != prog.Disasm() {
		t.Error("program changed across the round trip")
	}
}

func TestArtifactEncodingDeterministic(t *testing.T) {
	rec, _ := testArtifact(t)
	if !bytes.Equal(EncodeRecord(rec, "kv"), EncodeRecord(rec, "kv")) {
		t.Error("two encodings of the same record differ (map ordering leaked)")
	}
}

func TestArtifactEmptySections(t *testing.T) {
	rec, _ := testArtifact(t)
	rec.Warnings = nil
	rec.Intrinsics = nil
	dec, err := DecodeRecord(EncodeRecord(rec, "kv"), "kv")
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec.Warnings) != 0 || len(dec.Intrinsics) != 0 {
		t.Errorf("empty sections round-tripped non-empty: %+v", dec)
	}
}

// TestDecodeBlobRejectsMisfiledProgram: a valid blob of one program
// stored under another program's hash is corrupt, never that program.
func TestDecodeBlobRejectsMisfiledProgram(t *testing.T) {
	_, prog := testArtifact(t)
	other := &vm.Program{Name: "other"}
	if _, err := DecodeBlob(EncodeProgram(other), prog.ContentHash()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("misfiled blob: err = %v, want ErrCorrupt", err)
	}
	dec, err := DecodeBlob(EncodeProgram(other), other.ContentHash())
	if err != nil || dec.ContentHash() != other.ContentHash() {
		t.Fatalf("blob under its own hash: err = %v", err)
	}
}

// TestBlobKeys: a blob key is a valid store key that no record key (a
// bare hex digest) can equal, and it shards by the program hash.
func TestBlobKeys(t *testing.T) {
	_, prog := testArtifact(t)
	hash := prog.ContentHash()
	key := BlobKey(hash)
	if err := ValidKey(key); err != nil {
		t.Fatal(err)
	}
	if key == hash || isHexDigest(key) || key[:2] != hash[:2] {
		t.Errorf("blob key %q collides with record keys or shards apart from its hash", key)
	}
}

func TestDecodeProgramEmptyAndTiny(t *testing.T) {
	for _, data := range [][]byte{nil, {}, []byte("M2CP"), []byte("garbage")} {
		if _, err := DecodeProgram(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("DecodeProgram(%q) = %v, want ErrCorrupt", data, err)
		}
	}
}

func TestProgramRoundTripEmptyProgram(t *testing.T) {
	prog := &vm.Program{Name: "empty"}
	dec, err := DecodeProgram(EncodeProgram(prog))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Name != "empty" || len(dec.Instrs) != 0 {
		t.Errorf("empty program round-tripped to %+v", dec)
	}
}

// TestDecodeNode decodes both kinds of compile trie node under the key
// they were encoded with, and rejects a node filed under another key, a
// node of another cache-key or format version, an empty question,
// every truncation and other artifact kinds.
func TestDecodeNode(t *testing.T) {
	rec, prog := testArtifact(t)
	leaf := EncodeRecord(rec, "kv")
	if q, got, err := DecodeNode(leaf, rec.Key, "kv"); err != nil || q != "" || !reflect.DeepEqual(got, rec) {
		t.Fatalf("leaf: question %q, record %+v, err %v", q, got, err)
	}
	inner := EncodeQuery("k1", "Ivmac", "kv")
	if q, got, err := DecodeNode(inner, "k1", "kv"); err != nil || q != "Ivmac" || got != nil {
		t.Fatalf("inner node: question %q, record %v, err %v", q, got, err)
	}
	for name, c := range map[string]struct {
		data    []byte
		key, kv string
		want    error
	}{
		"leaf under another key":       {leaf, "k1", "kv", ErrCorrupt},
		"inner node under another key": {inner, rec.Key, "kv", ErrCorrupt},
		"leaf of another key version":  {leaf, rec.Key, "kv2", ErrVersion},
		"inner of another key version": {inner, "k1", "kv2", ErrVersion},
		"empty question":               {EncodeQuery("k1", "", "kv"), "k1", "kv", ErrCorrupt},
		"program blob":                 {EncodeProgram(prog), "k1", "kv", ErrCorrupt},
	} {
		if _, _, err := DecodeNode(c.data, c.key, c.kv); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", name, err, c.want)
		}
	}
	stale := append([]byte(nil), inner[:len(inner)-TrailerSize]...)
	binary.LittleEndian.PutUint32(stale[4:], queryVersion+1)
	if _, _, err := DecodeNode(Seal(nil, stale), "k1", "kv"); !errors.Is(err, ErrVersion) {
		t.Errorf("inner node of another format version: err = %v, want ErrVersion", err)
	}
	for _, data := range [][]byte{leaf, inner} {
		for i := 0; i < len(data); i++ {
			if _, _, err := DecodeNode(data[:i], "k1", "kv"); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("prefix of %d bytes: err = %v, want ErrCorrupt", i, err)
			}
		}
	}
}
