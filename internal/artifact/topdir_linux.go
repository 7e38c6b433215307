//go:build linux && (amd64 || arm64)

package artifact

import (
	"syscall"
	"unsafe"
)

// The inode-flag ioctls of linux/fs.h (as encoded on 64-bit amd64 and
// arm64) and the flag that marks a directory as the top of a directory
// hierarchy (chattr +T).
const (
	fsIocGetFlags = 0x80086601
	fsIocSetFlags = 0x40086602
	fsTopDirFl    = 0x00020000
)

// markTopDir sets the top-of-hierarchy flag on dir. ext4's Orlov
// allocator then treats dir's subdirectories as unrelated and spreads
// them over the block groups, instead of packing them, and the files
// created in them, into dir's own group. That is what a store's shard
// directories are. It matters most on ext4 without a journal: there
// the inode allocator skips every inode freed in the last minute or
// so, one at a time, so creating files in a group where many were just
// deleted costs far more system time than in a quiet group. On a
// 2-vCPU VM, a sweep filling a fresh store with 1632 entries right
// after a store of that size was deleted spent about 1.1 s of system
// time unmarked and 0.25 s marked.
//
// The flag is only a placement hint; filesystems without it refuse the
// ioctl, and callers ignore the error.
func markTopDir(dir string) error {
	fd, err := syscall.Open(dir, syscall.O_RDONLY|syscall.O_DIRECTORY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return err
	}
	defer syscall.Close(fd)
	var flags uint32
	if err := inodeFlagsIoctl(fd, fsIocGetFlags, &flags); err != nil {
		return err
	}
	if flags&fsTopDirFl != 0 {
		return nil
	}
	flags |= fsTopDirFl
	return inodeFlagsIoctl(fd, fsIocSetFlags, &flags)
}

func inodeFlagsIoctl(fd int, req uintptr, flags *uint32) error {
	_, _, errno := syscall.Syscall(syscall.SYS_IOCTL, uintptr(fd), req, uintptr(unsafe.Pointer(flags)))
	if errno != 0 {
		return errno
	}
	return nil
}
