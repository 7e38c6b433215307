//go:build linux && (amd64 || arm64)

package artifact

import (
	"path/filepath"
	"syscall"
	"testing"
)

func inodeFlags(t *testing.T, dir string) (uint32, error) {
	t.Helper()
	fd, err := syscall.Open(dir, syscall.O_RDONLY|syscall.O_DIRECTORY|syscall.O_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fd)
	var flags uint32
	err = inodeFlagsIoctl(fd, fsIocGetFlags, &flags)
	return flags, err
}

// OpenDisk marks the store root as a top directory wherever the
// filesystem takes the flag, and keeps the root's other flags.
func TestOpenDiskMarksTopDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := OpenDisk(dir, 0); err != nil {
		t.Fatal(err)
	}
	flags, err := inodeFlags(t, dir)
	if err != nil {
		t.Skipf("no inode flags on this filesystem: %v", err)
	}
	if flags&fsTopDirFl == 0 {
		err := markTopDir(dir)
		if err == nil {
			t.Fatal("root not marked after OpenDisk, though marking it succeeds")
		}
		t.Skipf("filesystem refuses the top-directory flag: %v", err)
	}

	// Reopening leaves the flags as they are.
	if _, err := OpenDisk(dir, 0); err != nil {
		t.Fatal(err)
	}
	if again, err := inodeFlags(t, dir); err != nil || again != flags {
		t.Errorf("flags after reopen = %#x, %v; want %#x", again, err, flags)
	}
}
