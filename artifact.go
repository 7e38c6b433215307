package mat2c

import (
	"mat2c/internal/artifact"
	"mat2c/internal/core"
	"mat2c/internal/isel"
	"mat2c/internal/vm"
)

// newRecord returns the record of a compiled result as the trie leaf
// under key holds it: what a restored Result serves besides its
// program, which is stored apart, as the blob the record names by
// content hash.
func newRecord(key string, r *Result) *artifact.Record {
	rec := &artifact.Record{
		Key:             key,
		Entry:           r.res.Entry,
		ProgramHash:     r.res.Program.ContentHash(),
		CSource:         r.res.CSource,
		CHeader:         r.res.CHeader,
		CPrototype:      r.CPrototype(),
		Warnings:        r.Warnings(),
		VectorizedLoops: r.res.VectorizedLoops,
		Intrinsics:      map[string]int{},
	}
	for name, n := range r.res.Intrinsics.Selected {
		rec.Intrinsics[name] = n
	}
	return rec
}

// restoreResult rebuilds a Result from the path a lookup under cfg
// walked and the verified program its leaf names. The restored Result
// is bound to cfg, whose processor gives the path's answers, and
// carries k to render its listings on demand.
func restoreResult(path []step, prog *vm.Program, k Key, cfg core.Config) *Result {
	leaf := path[len(path)-1].n
	leaf.mu.Lock()
	if leaf.res == nil {
		queries := make([]core.Query, len(path)-1)
		for i, st := range path[:len(path)-1] {
			queries[i] = core.Query{Question: st.n.question, Answer: core.Ask(cfg.Processor, st.n.question)}
		}
		rec := leaf.rec
		intr := isel.Stats{Selected: map[string]int{}}
		for name, n := range rec.Intrinsics {
			intr.Selected[name] = n
		}
		leaf.res = core.Restored(rec.Entry, nil, rec.CSource, rec.CHeader, rec.VectorizedLoops, intr, queries, cfg)
	}
	res := leaf.res.On(cfg)
	leaf.mu.Unlock()
	res.Program = prog
	return &Result{res: res, proc: cfg.Processor, rec: leaf.rec, key: k}
}
