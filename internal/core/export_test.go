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
