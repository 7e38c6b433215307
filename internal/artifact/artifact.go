package artifact

import (
	"fmt"
	"sort"
)

// Record framing. recordVersion covers the section layout below; the
// caller-supplied key version (mat2c's cacheKeyVersion) is additionally
// baked into every encoding so records written under a different
// cache-key semantics — which would be addressed by different keys
// anyway — can never be resurrected by accident.
const (
	recordMagic   = "M2CR"
	recordVersion = 3
)

// blobSuffix marks program blob keys. A suffix rather than a prefix
// keeps blobs sharded by their hash like trie nodes, and no node key (a
// bare SHA-256 hex digest) can end in it.
const blobSuffix = "-prog"

// BlobKey is the store key of the program blob whose vm.Program content
// hash is hash.
func BlobKey(hash string) string { return hash + blobSuffix }

// Record is everything a serving replica needs, besides the program, to
// answer /compile and /run for the same content address without
// re-running the pipeline: the C artifacts (the prototype pre-printed)
// and the diagnostics and statistics a hit reports. It holds nothing a
// hit does not serve — no IR or AST listing and no stage timings; a
// restored result renders its listings on demand by compiling again.
//
// A durable artifact is a path of store entries, the leaf of a compile
// trie (see DecodeNode and mat2c's trie.go) holding the Record, and the
// compiled program as a blob (EncodeProgram) under
// BlobKey(ProgramHash). Compiles of one program share one blob.
type Record struct {
	// Key is the key of the trie leaf the record is stored under. The
	// caller rejects a record whose embedded key differs from the
	// requested one, so a misfiled or renamed store entry degrades to a
	// miss instead of serving wrong code.
	Key string
	// Entry is the compiled entry-function name.
	Entry string

	// ProgramHash is the compiled program's vm.Program.ContentHash: the
	// program blob is stored under BlobKey(ProgramHash).
	ProgramHash string

	// C artifacts.
	CSource    string
	CHeader    string
	CPrototype string

	// Diagnostics and pipeline statistics.
	Warnings        []string
	VectorizedLoops int
	Intrinsics      map[string]int
}

// EncodeRecord serializes the record under the given cache-key version.
// The encoding is deterministic: map sections are sorted, so equal
// records produce equal bytes (content-addressed stores may rely on
// it).
func EncodeRecord(rec *Record, keyVersion string) []byte {
	var w writer
	w.buf = append(w.buf, recordMagic...)
	w.u32(recordVersion)
	w.str(keyVersion)
	w.str(rec.Key)
	w.str(rec.Entry)
	w.str(rec.ProgramHash)
	w.str(rec.CSource)
	w.str(rec.CHeader)
	w.str(rec.CPrototype)
	w.u32(uint32(len(rec.Warnings)))
	for _, s := range rec.Warnings {
		w.str(s)
	}
	w.u32(uint32(rec.VectorizedLoops))
	names := make([]string, 0, len(rec.Intrinsics))
	for name := range rec.Intrinsics {
		names = append(names, name)
	}
	sort.Strings(names)
	w.u32(uint32(len(names)))
	for _, name := range names {
		w.str(name)
		w.i64(int64(rec.Intrinsics[name]))
	}
	return w.bytes()
}

// DecodeRecord rebuilds a record, requiring both the format version and
// the cache-key version to match this build. Arbitrary bytes produce an
// error wrapping ErrCorrupt; a well-formed record from another version
// produces one wrapping ErrVersion. Neither ever panics. A decoded
// record's ProgramHash is a SHA-256 hex digest, so its BlobKey is a
// valid store key.
func DecodeRecord(data []byte, keyVersion string) (*Record, error) {
	r, err := checkWrapper(data, recordMagic)
	if err != nil {
		return nil, err
	}
	if v := r.u32(); r.err == nil && v != recordVersion {
		return nil, fmt.Errorf("%w: record format v%d, this build reads v%d", ErrVersion, v, recordVersion)
	}
	if kv := r.str(); r.err == nil && kv != keyVersion {
		return nil, fmt.Errorf("%w: cache-key version %q, this build uses %q", ErrVersion, kv, keyVersion)
	}
	rec := &Record{}
	rec.Key = r.str()
	rec.Entry = r.str()
	rec.ProgramHash = r.str()
	if r.err == nil && !isHexDigest(rec.ProgramHash) {
		r.fail("program hash %q is not a SHA-256 hex digest", rec.ProgramHash)
	}
	rec.CSource = r.str()
	rec.CHeader = r.str()
	rec.CPrototype = r.str()
	if n := r.count(4); r.err == nil && n > 0 {
		rec.Warnings = make([]string, n)
		for i := range rec.Warnings {
			rec.Warnings[i] = r.str()
		}
	}
	rec.VectorizedLoops = int(r.u32())
	if n := r.count(4 + 8); r.err == nil && n > 0 {
		rec.Intrinsics = make(map[string]int, n)
		for i := 0; i < n; i++ {
			name := r.str()
			rec.Intrinsics[name] = int(r.i64())
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return rec, nil
}

// Inner trie node framing (see EncodeQuery).
const (
	queryMagic   = "M2CQ"
	queryVersion = 1
)

// EncodeQuery serializes an inner node of a compile trie filed under
// key: the question the compiles on its path ask next. A trie leaf is
// a Record whose Key is the leaf's key. Both encodings are
// deterministic, so every writer of a node writes the same bytes.
func EncodeQuery(key, question, keyVersion string) []byte {
	var w writer
	w.buf = append(w.buf, queryMagic...)
	w.u32(queryVersion)
	w.str(keyVersion)
	w.str(key)
	w.str(question)
	return w.bytes()
}

// DecodeNode decodes a compile trie node fetched under key: an inner
// node's question (EncodeQuery), or a leaf's record. It fails as
// DecodeRecord does, and also with ErrCorrupt when the node carries
// another key (a misfiled or renamed store entry) or an inner node an
// empty question.
func DecodeNode(data []byte, key, keyVersion string) (question string, rec *Record, err error) {
	var got string
	if len(data) >= len(recordMagic) && string(data[:len(recordMagic)]) == recordMagic {
		if rec, err = DecodeRecord(data, keyVersion); err != nil {
			return "", nil, err
		}
		got = rec.Key
	} else {
		r, err := checkWrapper(data, queryMagic)
		if err != nil {
			return "", nil, err
		}
		if v := r.u32(); r.err == nil && v != queryVersion {
			return "", nil, fmt.Errorf("%w: query node format v%d, this build reads v%d", ErrVersion, v, queryVersion)
		}
		if kv := r.str(); r.err == nil && kv != keyVersion {
			return "", nil, fmt.Errorf("%w: cache-key version %q, this build uses %q", ErrVersion, kv, keyVersion)
		}
		got = r.str()
		if question = r.str(); r.err == nil && question == "" {
			r.fail("empty question")
		}
		if err := r.done(); err != nil {
			return "", nil, err
		}
	}
	if got != key {
		return "", nil, fmt.Errorf("%w: node key %s stored under %s", ErrCorrupt, got, key)
	}
	return question, rec, nil
}

// isHexDigest reports whether s is a lower-case hex SHA-256 digest, the
// form vm.Program.ContentHash returns.
func isHexDigest(s string) bool {
	if len(s) != 64 {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
