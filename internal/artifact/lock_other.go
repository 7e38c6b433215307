//go:build !(linux || darwin || dragonfly || freebsd || netbsd || openbsd)

package artifact

import "os"

const lockTry, lockWriter, lockNone = 1, 2, 3

// Without flock, another process's segment never seals: its tail is
// reread on each index miss, and compaction leaves it.
func flock(_ *os.File, how int) bool { return how == lockWriter }
