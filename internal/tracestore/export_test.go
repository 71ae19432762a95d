package tracestore

import (
	"os"
	"path/filepath"
)

// TempFile and SetWrapTemp let tests outside the package fail slab writes.
type TempFile = tempFile

func SetWrapTemp(s *Store, wrap func(TempFile) TempFile) { s.wrapTemp = wrap }

// FailingTemp wraps f to fail one step of its slab's write (see
// faultyTemp): the Write numbered failWrite, 0 being the placeholder
// header, or with failWrite -1 the header WriteAt.
func FailingTemp(f TempFile, failWrite int) TempFile {
	return &faultyTemp{tempFile: f, failWrite: failWrite, failAt: failWrite < 0}
}

// BlockingTemp wraps f so that its slab's rename fails: at the header
// write it puts a non-empty directory where s would publish the slab, and
// passes that directory's path to blocked.
func BlockingTemp(s *Store, f TempFile, blocked func(path string)) TempFile {
	return &faultyTemp{tempFile: f, failWrite: -1, beforeAt: func(hdr []byte) {
		h, _ := parseHeader(hdr, Key{})
		path := s.EntryPath(h.key)
		if err := os.MkdirAll(filepath.Join(path, "blocker"), 0o755); err == nil {
			blocked(path)
		}
	}}
}
