package mat2c

import (
	"fmt"

	"mat2c/internal/artifact"
	"mat2c/internal/cgen"
	"mat2c/internal/core"
	"mat2c/internal/isel"
	"mat2c/internal/vm"
)

// encodeRecord serializes a compiled result's durable record under its
// content address: what a restored Result serves besides its program,
// which is stored apart, as the blob the record names by content hash.
func encodeRecord(key string, r *Result) []byte {
	if r.rec != nil {
		// Already restored from a record: re-encode the original
		// (deterministic, so the bytes written back match what was read).
		return artifact.EncodeRecord(r.rec, cacheKeyVersion)
	}
	rec := &artifact.Record{
		Key:             key,
		Entry:           r.res.Entry,
		ProgramHash:     r.res.Program.ContentHash(),
		CSource:         r.res.CSource,
		CHeader:         r.res.CHeader,
		CPrototype:      cgen.Prototype(r.res.Func),
		Warnings:        r.Warnings(),
		VectorizedLoops: r.res.VectorizedLoops,
		Intrinsics:      map[string]int{},
	}
	for name, n := range r.res.Intrinsics.Selected {
		rec.Intrinsics[name] = n
	}
	return artifact.EncodeRecord(rec, cacheKeyVersion)
}

// decodeRecord decodes record bytes fetched under key. A record
// carrying a different embedded key (a misfiled or renamed store entry)
// is rejected as corrupt.
func decodeRecord(data []byte, key string) (*artifact.Record, error) {
	rec, err := artifact.DecodeRecord(data, cacheKeyVersion)
	if err != nil {
		return nil, err
	}
	if rec.Key != key {
		return nil, fmt.Errorf("%w: record key %s stored under %s", artifact.ErrCorrupt, rec.Key, key)
	}
	return rec, nil
}

// restoreResult rebuilds a Result from a record and its verified
// program, fetched under k. The restored Result reuses the processor
// k's options resolve to, and carries k to render its listings on
// demand.
func restoreResult(rec *artifact.Record, prog *vm.Program, k Key) (*Result, error) {
	cfg, err := k.opts.config()
	if err != nil {
		return nil, err
	}
	intr := isel.Stats{Selected: map[string]int{}}
	for name, n := range rec.Intrinsics {
		intr.Selected[name] = n
	}
	res := core.Restored(rec.Entry, prog, rec.CSource, rec.CHeader, rec.VectorizedLoops, intr, cfg)
	return &Result{res: res, proc: cfg.Processor, rec: rec, key: k}, nil
}
