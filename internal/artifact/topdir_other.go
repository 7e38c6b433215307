//go:build !(linux && (amd64 || arm64))

package artifact

// markTopDir is a no-op here: the top-of-hierarchy placement hint is
// set through Linux inode-flag ioctls (see topdir_linux.go).
func markTopDir(string) error { return nil }
