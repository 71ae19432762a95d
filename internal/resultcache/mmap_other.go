//go:build !unix

package resultcache

import (
	"io"
	"os"
)

// MapFile falls back to reading size bytes of f into a buffer where the
// unix mmap surface is missing: the stores still work, at one heap copy
// per process instead of shared page-cache residency. A zero-size file
// reads as nil.
func MapFile(f *os.File, size int64) ([]byte, error) {
	if size == 0 {
		return nil, nil
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// UnmapFile releases what MapFile returned: nothing to do here.
func UnmapFile([]byte) error { return nil }
