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

// TestRecordProgramHash reads the program hash from a record's header,
// and rejects what names none: other artifact kinds, truncated headers,
// a record whose hash field is not a digest, and a record of another
// format version, which DecodeRecord would reject.
func TestRecordProgramHash(t *testing.T) {
	rec, prog := testArtifact(t)
	data := EncodeRecord(rec, "kv")
	if hash, ok := RecordProgramHash(data); !ok || hash != rec.ProgramHash {
		t.Fatalf("RecordProgramHash = %q, %v; want %q", hash, ok, rec.ProgramHash)
	}
	for i := 0; i < len(data); i += 7 {
		if hash, ok := RecordProgramHash(data[:i]); ok && hash != rec.ProgramHash {
			t.Fatalf("prefix of %d bytes read hash %q", i, hash)
		}
	}
	if _, ok := RecordProgramHash(EncodeProgram(prog)); ok {
		t.Error("program blob read as a record")
	}
	bad := *rec
	bad.ProgramHash = "not-a-digest"
	if _, ok := RecordProgramHash(EncodeRecord(&bad, "kv")); ok {
		t.Error("a record naming no digest read ok")
	}
	stale := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(stale[4:], recordVersion-1)
	if _, ok := RecordProgramHash(reseal(stale)); ok {
		t.Error("a record of another format version read ok")
	}
}
