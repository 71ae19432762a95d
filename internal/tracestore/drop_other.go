//go:build !linux

package tracestore

// dropPages is a no-op where the syscall package has no madvise: the
// pages a slab reader has read stay resident until the slab is unmapped.
func dropPages(b []byte) {}
