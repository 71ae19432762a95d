package tracestore

import (
	"syscall"
	"unsafe"
)

// pageSize is the unit dropPages works in.
var pageSize = uintptr(syscall.Getpagesize())

// dropPages tells the kernel that this process no longer needs the whole
// pages inside b, a read-only shared file mapping: they leave the
// process's resident set, and a later read faults them back in from the
// page cache unchanged. It is advice, so its failure is ignored.
func dropPages(b []byte) {
	start := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := (start + pageSize - 1) &^ (pageSize - 1)
	hi := (start + uintptr(len(b))) &^ (pageSize - 1)
	if hi > lo {
		_ = syscall.Madvise(b[lo-start:hi-start], syscall.MADV_DONTNEED)
	}
}
