package resultcache

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Shards is a sharded file directory: one file per key at
// dir/<hh>/<hexkey><ext>, published atomically (temp file + rename) and
// indexed by size and LRU age under a byte bound. The result cache's disk
// tier and the slab store both keep their entries in one. Entry ages are
// seeded from file mtimes at open and refreshed with Chtimes on every hit,
// so LRU order survives across processes. All methods are safe for
// concurrent use.
type Shards struct {
	dir      string
	ext      string
	maxBytes int64

	mu    sync.Mutex
	index map[Key]shardEntry
	total int64 // sum of indexed entry sizes
	clock int64 // LRU logical time
}

type shardEntry struct {
	size  int64
	atime int64 // logical LRU clock, not wall time
}

// OpenShards opens (creating if needed) the directory dir holding entries
// named <hexkey><ext> and indexes the entries already there. Leftover temp
// files from interrupted writes are removed; files that do not look like
// entries, and anything at an entry's name that is not a regular file,
// are ignored.
func OpenShards(dir, ext string, maxBytes int64) (*Shards, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Shards{dir: dir, ext: ext, maxBytes: maxBytes, index: make(map[Key]shardEntry)}
	shards, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type aged struct {
		key   Key
		size  int64
		mtime time.Time
	}
	var found []aged
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		shardDir := filepath.Join(dir, sh.Name())
		files, err := os.ReadDir(shardDir)
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			if strings.HasPrefix(name, "tmp-") {
				// Leftover from an interrupted write: a partial temp file
				// was never renamed into place, so it is not an entry.
				// Best-effort; the next open retries.
				_ = os.Remove(filepath.Join(shardDir, name))
				continue
			}
			if !f.Type().IsRegular() || !strings.HasSuffix(name, ext) {
				continue
			}
			key, err := ParseKey(strings.TrimSuffix(name, ext))
			if err != nil {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			found = append(found, aged{key, info.Size(), info.ModTime()})
		}
	}
	// Oldest first, so assigned logical times preserve on-disk LRU order.
	sort.SliceStable(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	for _, e := range found {
		s.clock++
		s.index[e.key] = shardEntry{size: e.size, atime: s.clock}
		s.total += e.size
	}
	return s, nil
}

// Dir returns the directory root.
func (s *Shards) Dir() string { return s.dir }

// Path returns where the entry for key lives (or would live).
func (s *Shards) Path(key Key) string { return ShardPath(s.dir, s.ext, key) }

// ShardPath returns where a Shards directory dir holding <hexkey>ext
// entries keeps the entry for key, without opening or indexing it.
func ShardPath(dir, ext string, key Key) string {
	hexKey := key.String()
	return filepath.Join(dir, hexKey[:2], hexKey+ext)
}

// Bytes returns the indexed footprint.
func (s *Shards) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Hit records a read of the size-byte entry for key: it refreshes the
// file's mtime (the cross-process LRU age; best-effort) and makes the entry
// the most recently used, indexing it if another process wrote it after
// open.
func (s *Shards) Hit(key Key, size int64) {
	now := time.Now()
	_ = os.Chtimes(s.Path(key), now, now) // best-effort: only LRU order depends on it
	s.mu.Lock()
	s.clock++
	e, ok := s.index[key]
	if !ok {
		e.size = size
		s.total += size
	}
	e.atime = s.clock
	s.index[key] = e
	s.mu.Unlock()
}

// Has reports whether the index lists an entry for key.
func (s *Shards) Has(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// Drop unindexes the entry for key and removes its file, returning the
// removal's error (os.ErrNotExist if there was no file).
func (s *Shards) Drop(key Key) error {
	s.mu.Lock()
	s.unindexLocked(key)
	s.mu.Unlock()
	return os.Remove(s.Path(key))
}

func (s *Shards) unindexLocked(key Key) {
	if e, ok := s.index[key]; ok {
		s.total -= e.size
		delete(s.index, key)
	}
}

// Publish writes the entry for key through write into a temp file, renames
// it into place (so a crash mid-write never leaves a partial entry
// visible), indexes it, and evicts least-recently-used entries past the
// byte bound, sparing the new one. It returns the bytes written and the
// number of entries evicted. A failed write or rename leaves no temp file
// and indexes nothing.
func (s *Shards) Publish(key Key, write func(f *os.File) error) (written int64, evicted int, err error) {
	path := s.Path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, 0, err
	}
	tmp, n, err := WriteTemp(filepath.Dir(path), write)
	if err != nil {
		return 0, 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp) // the rename's error is the one to report
		return 0, 0, err
	}

	s.mu.Lock()
	s.unindexLocked(key)
	s.clock++
	s.index[key] = shardEntry{size: n, atime: s.clock}
	s.total += n
	var victims []Key
	for s.total > s.maxBytes {
		var victim Key
		var victimAge int64
		found := false
		for k, e := range s.index {
			if k != key && (!found || e.atime < victimAge) {
				victim, victimAge, found = k, e.atime, true
			}
		}
		if !found {
			break // only the fresh entry remains; keep it even if oversized
		}
		s.unindexLocked(victim)
		victims = append(victims, victim)
	}
	s.mu.Unlock()
	// Removing a file whose mapping is still live is safe on unix: the
	// pages outlive the directory entry. A victim that cannot be removed
	// is unindexed anyway; the next open indexes it again.
	for _, k := range victims {
		_ = os.Remove(s.Path(k))
	}
	return n, len(victims), nil
}

// WriteTemp creates a tmp-* file in dir, fills it through write and closes
// it, returning its path and size. write gets the file itself, so it may
// go back and patch bytes it wrote earlier (WriteAt). On any failure the
// temp file is removed. It is the one write path of every on-disk store:
// callers publish the file under its final name by rename or link.
func WriteTemp(dir string, write func(f *os.File) error) (path string, size int64, err error) {
	f, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return "", 0, err
	}
	err = write(f)
	if err == nil {
		var info os.FileInfo
		if info, err = f.Stat(); err == nil {
			size = info.Size()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(f.Name()) // the write's error is the one to report
		return "", 0, err
	}
	return f.Name(), size, nil
}
