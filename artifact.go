package mat2c

import (
	"fmt"
	"time"

	"mat2c/internal/artifact"
	"mat2c/internal/cgen"
	"mat2c/internal/core"
	"mat2c/internal/ir"
	"mat2c/internal/isel"
	"mat2c/internal/vm"
)

// encodeRecord serializes a compiled result's durable record under its
// content address. Every field a restored Result can be asked for is
// rendered here, at encode time, so decoding never needs the IR or AST
// object graphs. The program itself is stored apart, as the blob the
// record names by content hash.
func encodeRecord(key string, r *Result) []byte {
	if r.rec != nil {
		// Already restored from a record: re-encode the original
		// (deterministic, so the bytes written back match what was read).
		return artifact.EncodeRecord(r.rec, cacheKeyVersion)
	}
	rec := &artifact.Record{
		Key:             key,
		Entry:           r.res.Entry,
		Target:          r.proc.Name,
		ProgramHash:     r.res.Program.ContentHash(),
		CSource:         r.res.CSource,
		CHeader:         r.res.CHeader,
		CPrototype:      cgen.Prototype(r.res.Func),
		IRText:          ir.Print(r.res.Func),
		ASTText:         formatFile(r.res.Info.File),
		Warnings:        r.Warnings(),
		VectorizedLoops: r.res.VectorizedLoops,
		Intrinsics:      map[string]int{},
	}
	for name, n := range r.res.Intrinsics.Selected {
		rec.Intrinsics[name] = n
	}
	for _, st := range r.res.Stages {
		rec.Stages = append(rec.Stages, artifact.StageTime{Stage: st.Stage, Nanos: st.Duration.Nanoseconds()})
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
// program. opts must be the same options the record's key was derived
// from — the restored Result reuses their resolved processor.
func restoreResult(rec *artifact.Record, prog *vm.Program, opts Options) (*Result, error) {
	cfg, err := opts.config()
	if err != nil {
		return nil, err
	}
	intr := isel.Stats{Selected: map[string]int{}}
	for name, n := range rec.Intrinsics {
		intr.Selected[name] = n
	}
	stages := make([]core.StageTime, 0, len(rec.Stages))
	for _, st := range rec.Stages {
		stages = append(stages, core.StageTime{Stage: st.Stage, Duration: time.Duration(st.Nanos)})
	}
	res := core.Restored(rec.Entry, prog, rec.CSource, rec.CHeader, rec.VectorizedLoops, intr, stages, cfg)
	return &Result{res: res, proc: cfg.Processor, rec: rec}, nil
}
