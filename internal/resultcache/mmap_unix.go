//go:build unix

package resultcache

import (
	"os"
	"syscall"
)

// MapFile maps size bytes of f read-only and shared, so every process
// mapping the same store file shares one copy in the page cache. A
// zero-size file maps to nil. On unix an LRU sweep may unlink a file that
// still has live mappings: the pages stay valid until the last UnmapFile.
func MapFile(f *os.File, size int64) ([]byte, error) {
	if size == 0 {
		return nil, nil
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

// UnmapFile releases a mapping MapFile returned; nil is a no-op.
func UnmapFile(data []byte) error {
	if data == nil {
		return nil
	}
	return syscall.Munmap(data)
}
