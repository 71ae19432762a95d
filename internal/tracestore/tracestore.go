package tracestore

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/frame"
	"tracerebase/internal/resultcache"
)

// Config parameterizes Open.
type Config struct {
	// Dir is the store root. Slabs live under Dir/v<FormatVersion>/,
	// sharded by the first key byte.
	Dir string
	// MaxBytes bounds the on-disk footprint; least-recently-used slabs are
	// evicted past it. <= 0 selects the 8 GiB default (slabs are ~64 bytes
	// per instruction, far heavier than result records, so the budget is
	// correspondingly larger than resultcache's).
	MaxBytes int64
	// Warn, when set, receives printf-style diagnostics for conditions the
	// store absorbs (corrupt slabs, write failures) so runs degrade loudly
	// instead of silently.
	Warn func(format string, args ...any)
}

// DefaultMaxBytes is the on-disk budget when Config.MaxBytes is unset:
// large enough to hold every slab of a full `-exp all -step 3` run.
const DefaultMaxBytes = 8 << 30

// Stats counts store activity since Open. The json names are the ones
// `rebase -bench-json` records.
type Stats struct {
	// Hits = MemHits + DiskHits, counted by Get. Misses counts the slabs
	// Write converted, one per call: a Get that finds nothing counts
	// nothing, since its caller writes the slab next or does without it.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// MemHits were served from a mapping another caller still holds,
	// DiskHits by mapping (and validating) a slab file.
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	// Converts counts the Writes that ran the caller's convert function,
	// as Misses does; ConvertErrors counts the ones whose conversion
	// failed (never stored).
	Converts      uint64 `json:"converts"`
	ConvertErrors uint64 `json:"convert_errors"`
	// Corrupt counts slab files that failed validation and were discarded;
	// a caller that writes the slab again adds a miss and a conversion.
	Corrupt uint64 `json:"corrupt"`
	// Evictions counts slab files removed by the disk LRU bound.
	Evictions uint64 `json:"evictions"`
	// WriteErrors counts failed slab writes. Write returns the failure and
	// leaves no slab, so a read-only store degrades to whatever its caller
	// does without one.
	WriteErrors uint64 `json:"write_errors"`
	// BytesMapped counts slab file bytes mapped from disk; BytesWritten
	// counts slab file bytes persisted.
	BytesMapped  uint64 `json:"bytes_mapped"`
	BytesWritten uint64 `json:"bytes_written"`
	// PeakMappedBytes is the most slab file bytes the store held mapped at
	// once. Mapped is not resident: a slab's readers drop the pages they
	// have passed, so each keeps about a dropStep of its slab resident.
	PeakMappedBytes uint64 `json:"peak_mapped_bytes"`
}

// StreamFunc converts a slab's records for Write, handing them in order to
// emit in batches of any size; core.ConvertEmit is one. emit has copied a
// batch out when it returns, so the converter may reuse it. An error from
// emit must stop the conversion and be returned unchanged.
type StreamFunc func(emit func([]champtrace.Instruction) error) (core.Stats, error)

// ConvertFunc builds a slab's records in one slice, for GetOrConvert. The
// store keeps no conversion buffer, so scratch is always nil; the
// parameter keeps existing callers compiling.
type ConvertFunc func(scratch []champtrace.Instruction) ([]champtrace.Instruction, core.Stats, error)

// tempFile is what a slab write needs of its temp file: sequential writes,
// and one write back at offset 0 for the header.
type tempFile interface {
	io.Writer
	io.WriterAt
}

// Store is the content-addressed slab store. A slab stays mapped exactly
// as long as some caller holds a reference to it: the first reference maps
// it, later ones share that mapping, and the last Release unmaps it. All
// methods are safe for concurrent use.
type Store struct {
	dir      string // Config.Dir/v<FormatVersion>, entries <hh>/<hexkey>.slab
	maxBytes int64
	warn     func(string, ...any)

	// shards indexes dir. It is built by the first call that needs it
	// (see index), so a run that maps no slab never walks the directory.
	indexOnce sync.Once
	shards    *resultcache.Shards
	indexErr  error

	// wrapTemp, when set, wraps the temp file each slab is written into.
	// It is the test seam for write failures: production leaves it nil.
	wrapTemp func(tempFile) tempFile
	// mapHook, when set, maps slab files in place of mapFile. It is the
	// test seam for map failures: production leaves it nil.
	mapHook func(f *os.File, size int64) ([]byte, error)

	mu   sync.Mutex
	open map[Key]*Slab // referenced slabs
	// fresh holds the keys Write persisted that no load has mapped yet:
	// their first load counts with the Write's miss, not as a hit.
	fresh map[Key]bool
	// notFile holds the keys whose path was found to be something other
	// than a regular file, so each is warned once.
	notFile map[Key]bool
	mapped  uint64 // file bytes the slabs in open hold mapped
	stats   Stats
}

// Open opens (creating if needed) the slab store rooted at cfg.Dir. The
// slabs already on disk are indexed at first use, not here: Get, Has,
// Write and DiskBytes build the index, which also removes leftover temp
// files from interrupted writes; files that do not look like slabs are
// ignored.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("tracestore: empty store directory")
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.Warn == nil {
		cfg.Warn = func(string, ...any) {}
	}
	dir := filepath.Join(cfg.Dir, fmt.Sprintf("v%d", FormatVersion))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	return &Store{
		dir:      dir,
		maxBytes: cfg.MaxBytes,
		warn:     cfg.Warn,
		open:     make(map[Key]*Slab),
		fresh:    make(map[Key]bool),
		notFile:  make(map[Key]bool),
	}, nil
}

// index returns the store's shard index, building it on the first call.
// A failure is warned once, kept, and returned to every caller.
func (s *Store) index() (*resultcache.Shards, error) {
	s.indexOnce.Do(func() {
		s.shards, s.indexErr = resultcache.OpenShards(s.dir, ".slab", s.maxBytes)
		if s.indexErr != nil {
			s.indexErr = fmt.Errorf("tracestore: %w", s.indexErr)
			s.warn("%v", s.indexErr)
		}
	})
	return s.shards, s.indexErr
}

// EntryPath returns where the slab for key lives (or would live) on disk.
func (s *Store) EntryPath(key Key) string { return resultcache.ShardPath(s.dir, ".slab", key) }

// Dir returns the versioned store root.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the activity counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// DiskBytes returns the indexed on-disk footprint, building the index if
// no call has yet; 0 if it cannot be built.
func (s *Store) DiskBytes() int64 {
	shards, err := s.index()
	if err != nil {
		return 0
	}
	return shards.Bytes()
}

// Has reports whether the store's index lists a slab for key, building the
// index if no call has yet; false if it cannot be built. The file itself
// is not opened or validated.
func (s *Store) Has(key Key) bool {
	shards, err := s.index()
	return err == nil && shards.Has(key)
}

// Get returns the slab for key if another caller holds it or it is valid
// on disk, taking a reference the caller must Release. It never converts:
// a slab goes into the store only through Write. A miss is not counted
// (see Stats.Misses), nor is a store whose index cannot be built, which
// misses every Get (index warns once).
func (s *Store) Get(key Key) (*Slab, bool) {
	if _, err := s.index(); err != nil {
		return nil, false
	}
	s.mu.Lock()
	if sl, ok := s.open[key]; ok {
		sl.refs++
		s.stats.Hits++
		s.stats.MemHits++
		s.mu.Unlock()
		return sl, true
	}
	s.mu.Unlock()
	sl := s.loadDisk(key)
	return sl, sl != nil
}

// GetOrConvert returns the slab for key, converting and writing it on a
// miss: Get, else Write of convert's records as one batch, then Get. A
// failed conversion or write is returned, and so is a written slab that
// another writer evicted before the Get could map it.
func (s *Store) GetOrConvert(key Key, convert ConvertFunc) (*Slab, error) {
	if sl, ok := s.Get(key); ok {
		return sl, nil
	}
	err := s.Write(key, func(emit func([]champtrace.Instruction) error) (core.Stats, error) {
		recs, conv, err := convert(nil)
		if err != nil {
			return conv, err
		}
		return conv, emit(recs)
	})
	if err != nil {
		return nil, err
	}
	if sl, ok := s.Get(key); ok {
		return sl, nil
	}
	return nil, fmt.Errorf("tracestore: slab %s written but not loadable", s.EntryPath(key))
}

// loadDisk maps and validates the slab file for key, installs it, and takes
// a caller reference. It returns nil on miss. The caller has built the
// index.
// Corrupt files are removed so they are reconverted, never served; foreign
// files (other format version or architecture) are left in place for the
// native writer to atomically replace. A file that cannot be mapped, and
// a path that is not a regular file (a directory, say), are plain misses:
// warned and left in place, not counted as corrupt. The latter is warned
// once.
func (s *Store) loadDisk(key Key) *Slab {
	path := s.EntryPath(key)
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil
	}
	if !info.Mode().IsRegular() {
		f.Close()
		s.mu.Lock()
		first := !s.notFile[key]
		s.notFile[key] = true
		s.mu.Unlock()
		if first {
			s.warn("tracestore: %s is not a regular file; its slab cannot be stored", path)
		}
		return nil
	}
	size := info.Size()
	verdict := headerCorrupt
	var sl *Slab
	if size >= headerSize+footerSize {
		var data []byte
		if data, err = s.mapSlab(f, size); err != nil {
			f.Close()
			s.warn("tracestore: cannot map slab %s: %v", path, err)
			return nil
		}
		var h header
		h, verdict = parseHeader(data[:headerSize], key)
		if verdict == headerOK {
			var conv core.Stats
			if !checkFooter(data, h) {
				verdict = headerCorrupt
			} else if conv, err = decodeMeta(metaRegion(data, h)); err != nil {
				verdict = headerCorrupt
			} else {
				sl = &Slab{
					store: s,
					key:   key,
					conv:  conv,
					recs:  viewRecords(data, h.count),
					data:  data,
				}
			}
		}
		if sl == nil {
			resultcache.UnmapFile(data)
		}
	}
	f.Close()
	if sl == nil {
		if verdict == headerCorrupt {
			_ = s.shards.Drop(key) // best-effort: a survivor fails validation again
			s.warn("tracestore: discarding corrupt slab %s", path)
			s.mu.Lock()
			s.stats.Corrupt++
			s.mu.Unlock()
		}
		return nil
	}
	s.shards.Hit(key, size)
	s.mu.Lock()
	// The first load of a slab this process wrote counts with its Write's
	// miss, not as a hit.
	hit := !s.fresh[key]
	delete(s.fresh, key)
	if prior, ok := s.open[key]; ok {
		// Lost a race with a concurrent Get: share the installed mapping,
		// drop ours.
		prior.refs++
		if hit {
			s.stats.Hits++
			s.stats.MemHits++
		}
		s.mu.Unlock()
		sl.free()
		return prior
	}
	if hit {
		s.stats.Hits++
		s.stats.DiskHits++
	}
	s.stats.BytesMapped += uint64(size)
	s.install(sl)
	s.mu.Unlock()
	return sl
}

// mapSlab maps size bytes of a slab file (see mapFile).
func (s *Store) mapSlab(f *os.File, size int64) ([]byte, error) {
	if s.mapHook != nil {
		return s.mapHook(f, size)
	}
	return resultcache.MapFile(f, size)
}

// install (mu held) indexes sl under the caller's first reference, so
// later callers share its mapping until the last Release drops it.
func (s *Store) install(sl *Slab) {
	sl.refs = 1
	s.open[sl.key] = sl
	s.mapped += uint64(len(sl.data))
	s.stats.PeakMappedBytes = max(s.stats.PeakMappedBytes, s.mapped)
}

// Write converts the slab for key straight into a temp file as convert
// emits it and publishes the file through the index (rename, so the slab
// appears whole or not at all), without mapping it: a caller maps it with
// Get at its first use. The file is written front to back — a zero header
// page, the records and meta under a running data CRC, the footer — and
// the real header last, at offset 0, since it carries the record count.
//
// Write is the only way into the store. It counts a miss and a conversion,
// and the first load of the written slab then counts with that miss, not
// as a hit. A conversion error is counted and returned with nothing left
// on disk. A failure of any write step, the rename included, is warned,
// counted and returned; the slab is then absent.
func (s *Store) Write(key Key, convert StreamFunc) error {
	if _, err := s.index(); err != nil {
		return err
	}
	s.mu.Lock()
	s.stats.Misses++
	s.stats.Converts++
	delete(s.fresh, key) // written before, then evicted or damaged unloaded
	s.mu.Unlock()
	var convErr error
	size, evicted, err := s.shards.Publish(key, func(f *os.File) error {
		var w tempFile = f
		if s.wrapTemp != nil {
			w = s.wrapTemp(f)
		}
		if _, err := w.Write(make([]byte, headerSize)); err != nil {
			return err
		}
		var crc uint32
		var count int
		var writeErr error
		var conv core.Stats
		conv, convErr = convert(func(batch []champtrace.Instruction) error {
			if writeErr != nil {
				return writeErr
			}
			b := recordBytes(batch)
			if _, writeErr = w.Write(b); writeErr != nil {
				return writeErr
			}
			crc = frame.Update(crc, b)
			count += len(batch)
			return nil
		})
		if writeErr != nil {
			convErr = nil // the write failed, not the conversion
			return writeErr
		}
		if convErr != nil {
			return convErr
		}
		meta, err := encodeMeta(conv)
		if err != nil {
			return err
		}
		if _, err := w.Write(meta); err != nil {
			return err
		}
		if _, err := w.Write(encodeFooter(frame.Update(crc, meta))); err != nil {
			return err
		}
		_, err = w.WriteAt(encodeHeader(header{count: count, metaLen: len(meta), key: key}), 0)
		return err
	})
	if err != nil && convErr == nil {
		err = fmt.Errorf("tracestore: slab write failed: %v", err)
		s.warn("%v", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case convErr != nil:
		s.stats.ConvertErrors++
		return convErr
	case err != nil:
		s.stats.WriteErrors++
		return err
	}
	s.stats.BytesWritten += uint64(size)
	s.stats.Evictions += uint64(evicted)
	s.fresh[key] = true
	return nil
}

// Close exists for symmetry with the other stores: the store keeps no
// unreferenced slab mapped, so there is nothing to drop. Slabs still
// referenced stay mapped until their last Release.
func (s *Store) Close() {}
