//go:build unix

package main

import (
	"runtime"
	"syscall"
)

// maxRSSBytes returns the process's peak resident set size so far, from
// getrusage(RUSAGE_SELF); 0 if the call fails.
func maxRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	if runtime.GOOS == "darwin" || runtime.GOOS == "ios" {
		return int64(ru.Maxrss) // bytes on Apple systems
	}
	return int64(ru.Maxrss) * 1024 // kilobytes elsewhere
}
