//go:build !unix

package main

// maxRSSBytes is 0 where getrusage does not exist.
func maxRSSBytes() int64 { return 0 }
