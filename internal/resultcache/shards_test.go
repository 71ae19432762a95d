package resultcache

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// publishBytes publishes n zero bytes under key and returns the number of
// entries evicted.
func publishBytes(t *testing.T, s *Shards, key Key, n int) int {
	t.Helper()
	written, evicted, err := s.Publish(key, func(w *os.File) error {
		_, err := w.Write(make([]byte, n))
		return err
	})
	if err != nil || written != int64(n) {
		t.Fatalf("Publish = %d bytes, %v; want %d", written, err, n)
	}
	return evicted
}

func tmpFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && strings.HasPrefix(d.Name(), "tmp-") {
			out = append(out, path)
		}
		return nil
	})
	return out
}

func TestShardsFailedWriteLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShards(dir, ".x", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	key := NewHasher("shards").Str("failed").Sum()
	boom := errors.New("boom")
	n, evicted, err := s.Publish(key, func(w *os.File) error {
		w.Write([]byte("partial"))
		return boom
	})
	if !errors.Is(err, boom) || n != 0 || evicted != 0 {
		t.Fatalf("Publish = %d, %d, %v; want 0, 0, boom", n, evicted, err)
	}
	if tmp := tmpFiles(t, dir); len(tmp) != 0 {
		t.Errorf("temp files left: %v", tmp)
	}
	if _, err := os.Stat(s.Path(key)); !os.IsNotExist(err) {
		t.Errorf("entry published despite failed write: %v", err)
	}
	if s.Bytes() != 0 {
		t.Errorf("Bytes = %d after failed write, want 0", s.Bytes())
	}
}

func TestShardsDropUnindexes(t *testing.T) {
	s, err := OpenShards(t.TempDir(), ".x", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewHasher("shards").Str("a").Sum(), NewHasher("shards").Str("b").Sum()
	publishBytes(t, s, a, 100)
	publishBytes(t, s, b, 30)
	if s.Bytes() != 130 {
		t.Fatalf("Bytes = %d, want 130", s.Bytes())
	}
	if err := s.Drop(a); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() != 30 {
		t.Errorf("Bytes = %d after Drop, want 30", s.Bytes())
	}
	if _, err := os.Stat(s.Path(a)); !os.IsNotExist(err) {
		t.Errorf("dropped file still present: %v", err)
	}
	if err := s.Drop(a); !os.IsNotExist(err) {
		t.Errorf("second Drop = %v, want not-exist", err)
	}
	if s.Bytes() != 30 {
		t.Errorf("Bytes = %d after second Drop, want 30", s.Bytes())
	}
}

// TestShardsIndexOnlyRegularFiles: a directory named like an entry, with
// files in it, is neither indexed nor counted in Bytes at open; the
// regular entry beside it is.
func TestShardsIndexOnlyRegularFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShards(dir, ".x", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	file, odd := NewHasher("shards").Str("file").Sum(), NewHasher("shards").Str("dir").Sum()
	publishBytes(t, s, file, 100)
	if err := os.MkdirAll(s.Path(odd), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Path(odd), "inside"), make([]byte, 5000), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenShards(dir, ".x", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Has(odd) || !s2.Has(file) {
		t.Errorf("Has(dir) = %v, Has(file) = %v; want false, true", s2.Has(odd), s2.Has(file))
	}
	if s2.Bytes() != 100 {
		t.Errorf("Bytes = %d, want the regular entry's 100", s2.Bytes())
	}
}

// TestShardsEvictionFollowsMtimes publishes three entries, reorders their
// file mtimes against write order, reopens, and checks that publishing past
// the bound evicts in mtime order.
func TestShardsEvictionFollowsMtimes(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShards(dir, ".x", 300)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = NewHasher("shards").I64(int64(i)).Sum()
	}
	for _, k := range keys[:3] {
		publishBytes(t, s, k, 100)
	}
	// Written 0,1,2; aged so that 1 is oldest, then 2, then 0.
	base := time.Now().Add(-time.Hour)
	for k, age := range map[int]time.Duration{1: 0, 2: time.Minute, 0: 2 * time.Minute} {
		at := base.Add(age)
		if err := os.Chtimes(s.Path(keys[k]), at, at); err != nil {
			t.Fatal(err)
		}
	}
	// A stray temp file from an interrupted writer is cleaned at open.
	os.WriteFile(filepath.Join(filepath.Dir(s.Path(keys[0])), "tmp-123"), []byte("x"), 0o644)

	s, err = OpenShards(dir, ".x", 300)
	if err != nil {
		t.Fatal(err)
	}
	if tmp := tmpFiles(t, dir); len(tmp) != 0 {
		t.Errorf("temp files survived reopen: %v", tmp)
	}
	if s.Bytes() != 300 {
		t.Fatalf("reopened Bytes = %d, want 300", s.Bytes())
	}
	present := func(k int) bool {
		_, err := os.Stat(s.Path(keys[k]))
		return err == nil
	}
	if evicted := publishBytes(t, s, keys[3], 100); evicted != 1 {
		t.Fatalf("Publish evicted %d, want 1", evicted)
	}
	if present(1) || !present(0) || !present(2) {
		t.Errorf("first eviction: present 0,1,2 = %v,%v,%v; want oldest-mtime 1 gone", present(0), present(1), present(2))
	}
	publishBytes(t, s, keys[1], 100)
	if present(2) || !present(0) {
		t.Errorf("second eviction: present 0,2 = %v,%v; want next-oldest 2 gone", present(0), present(2))
	}
}
