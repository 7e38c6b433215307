package core

import (
	"mat2c/internal/ir"
	"mat2c/internal/sema"
)

// Hooks into the compile memos for the external test package, which
// needs internal/bench (an importer of core) for its kernel suite.

func FrontMemoLen() int { return frontMemo.Len() }

// FrontMemoFunc returns the stored (never handed out) IR for a compile,
// or nil when its front half is not memoized.
func FrontMemoFunc(src, entry string, params []sema.Type, cfg Config) *ir.Func {
	fe, ok := frontMemo.Get(newFrontKey(src, entry, params, cfg))
	if !ok {
		return nil
	}
	return fe.fn
}

// ClearBackMemo empties the back-half memo alone, so a compile runs the
// back half again on the memoized front half.
func ClearBackMemo() { backMemo.Clear() }

// SetBackHooks installs the compile driver's test hooks: sel runs in
// every compile between the vectorizer and instruction selection (an
// error it returns fails the compile), and wait runs when a back-memo
// miss starts waiting for a concurrent compile. It returns a function
// that removes both.
func SetBackHooks(sel func() error, wait func()) (restore func()) {
	selectHook, waitHook = sel, wait
	return func() { selectHook, waitHook = nil, nil }
}
