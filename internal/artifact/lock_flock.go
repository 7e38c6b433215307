//go:build linux || darwin || dragonfly || freebsd || netbsd || openbsd

package artifact

import (
	"os"
	"syscall"
)

// flock operations: try for a shared lock, take a writer's, release.
const lockTry, lockWriter, lockNone = syscall.LOCK_SH | syscall.LOCK_NB, syscall.LOCK_EX, syscall.LOCK_UN

func flock(f *os.File, how int) bool { return syscall.Flock(int(f.Fd()), how) == nil }
