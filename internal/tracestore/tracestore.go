package tracestore

import (
	"errors"
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
	// Hits = MemHits + DiskHits. Misses each trigger one conversion.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// MemHits were served from a mapping another caller still holds,
	// DiskHits by mapping (and validating) a slab file.
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	// SharedWaits counts single-flight joins on an in-progress conversion.
	SharedWaits uint64 `json:"shared_waits"`
	// Converts counts the misses that ran the caller's convert function
	// (a write failure runs it again, into memory, without counting it
	// twice); ConvertErrors counts the ones that failed (never stored).
	Converts      uint64 `json:"converts"`
	ConvertErrors uint64 `json:"convert_errors"`
	// Corrupt counts slab files that failed validation and were discarded;
	// each also shows up as a miss and a reconversion.
	Corrupt uint64 `json:"corrupt"`
	// Evictions counts slab files removed by the disk LRU bound.
	Evictions uint64 `json:"evictions"`
	// WriteErrors counts slab write failures. GetOrStream still serves
	// the slab, converted a second time into memory, so a read-only store
	// degrades gracefully; Write leaves it to a later GetOrStream.
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

// StreamFunc converts a slab's records on a store miss, handing them in
// order to emit in batches of any size; core.ConvertEmit is one. emit has
// copied a batch out when it returns, so the converter may reuse it. An
// error from emit must stop the conversion and be returned unchanged. The
// store runs a StreamFunc a second time, into memory, when its write
// fails, so both runs must yield the same records.
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

type flight struct {
	done chan struct{}
	err  error
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

	mu      sync.Mutex
	open    map[Key]*Slab // referenced slabs
	flights map[Key]*flight
	// fresh holds the keys Write persisted that no load has mapped yet:
	// their first load counts with the Write's miss, not as a hit.
	fresh  map[Key]bool
	mapped uint64 // file bytes the slabs in open hold mapped
	stats  Stats
}

// Open opens (creating if needed) the slab store rooted at cfg.Dir. The
// slabs already on disk are indexed at first use, not here: Get,
// GetOrStream (or GetOrConvert) and DiskBytes build the index, which also
// removes leftover temp files from interrupted writes; files that do not
// look like slabs are ignored.
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
		flights:  make(map[Key]*flight),
		fresh:    make(map[Key]bool),
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
// on disk, taking a reference the caller must Release. It never converts
// and never joins an in-flight conversion. A store whose index cannot be
// built counts every Get as a miss (index warns once).
func (s *Store) Get(key Key) (*Slab, bool) {
	if _, err := s.index(); err != nil {
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
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
	if sl := s.loadDisk(key); sl != nil {
		return sl, true
	}
	s.mu.Lock()
	s.stats.Misses++
	s.mu.Unlock()
	return nil, false
}

// GetOrConvert is GetOrStream for a converter that returns the whole
// record slice: the slice is written as one batch.
func (s *Store) GetOrConvert(key Key, convert ConvertFunc) (*Slab, error) {
	return s.GetOrStream(key, func(emit func([]champtrace.Instruction) error) (core.Stats, error) {
		recs, conv, err := convert(nil)
		if err != nil {
			return conv, err
		}
		return conv, emit(recs)
	})
}

// GetOrStream returns the slab for key, converting and persisting it on a
// miss. Concurrent calls for the same key share one conversion
// (single-flight); each successful return carries its own reference, which
// the caller must Release. A failed conversion is returned to every waiter
// and is not stored, so a later call retries; so is a failure to build the
// store's index.
func (s *Store) GetOrStream(key Key, convert StreamFunc) (*Slab, error) {
	if _, err := s.index(); err != nil {
		return nil, err
	}
	for {
		s.mu.Lock()
		if sl, ok := s.open[key]; ok {
			sl.refs++
			s.stats.Hits++
			s.stats.MemHits++
			s.mu.Unlock()
			return sl, nil
		}
		if fl, ok := s.flights[key]; ok {
			s.stats.SharedWaits++
			s.mu.Unlock()
			<-fl.done
			if fl.err != nil {
				return nil, fl.err
			}
			// Retry from the top to take a reference of our own: a mem hit
			// while the leader still holds the slab, else a disk hit on the
			// file it persisted.
			continue
		}
		fl := &flight{done: make(chan struct{})}
		s.flights[key] = fl
		s.mu.Unlock()

		sl, err := s.fill(key, convert)
		s.mu.Lock()
		delete(s.flights, key)
		s.mu.Unlock()
		fl.err = err
		close(fl.done)
		if err != nil {
			return nil, err
		}
		return sl, nil
	}
}

// fill resolves a leader's lookup: disk, then convert+persist. The
// returned slab carries the leader's reference and has been installed.
func (s *Store) fill(key Key, convert StreamFunc) (*Slab, error) {
	if sl := s.loadDisk(key); sl != nil {
		return sl, nil
	}

	sl, err := s.persist(key, convert)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if prior, ok := s.open[key]; ok {
		// A concurrent Get mapped the just-persisted file before we
		// installed the conversion result: adopt its mapping, drop ours.
		prior.refs++
		s.mu.Unlock()
		sl.free()
		return prior, nil
	}
	s.install(sl)
	s.mu.Unlock()
	return sl, nil
}

// loadDisk maps and validates the slab file for key, installs it, and takes
// a caller reference. It returns nil on miss. The caller has built the
// index.
// Corrupt files are removed so they are reconverted, never served; foreign
// files (other format version or architecture) are left in place for the
// native writer to atomically replace. A file that cannot be mapped is a
// plain miss: it is warned and left in place, not counted as corrupt.
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
			unmapFile(data)
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
		// Lost a race with another loader (Get vs GetOrStream): share the
		// installed mapping, drop ours.
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
	return mapFile(f, size)
}

// install (mu held) indexes sl under the caller's first reference, so
// later callers share its mapping until the last Release drops it.
func (s *Store) install(sl *Slab) {
	sl.refs = 1
	s.open[sl.key] = sl
	s.mapped += uint64(len(sl.data))
	s.stats.PeakMappedBytes = max(s.stats.PeakMappedBytes, s.mapped)
}

// persist converts the slab for key into its file (see write) and maps
// it: the served records are the shared read-only file pages, and the
// conversion never holds the whole record array. A conversion error is
// counted and returned. After a failed write, or when the file cannot be
// mapped, the slab is served from a second conversion into memory.
func (s *Store) persist(key Key, convert StreamFunc) (*Slab, error) {
	conv, count, size, err := s.write(key, convert)
	if errors.Is(err, errWriteFailed) {
		return s.convertHeap(key, convert)
	}
	if err != nil {
		return nil, err
	}
	// Serve the file mapping, so every consumer of this slab — including
	// other processes — shares one set of page-cache pages.
	f, err := os.Open(s.EntryPath(key))
	if err != nil {
		return s.convertHeap(key, convert) // evicted already?; no warning needed
	}
	data, err := s.mapSlab(f, size)
	f.Close()
	if err != nil {
		return s.convertHeap(key, convert)
	}
	s.mu.Lock()
	s.stats.BytesMapped += uint64(size)
	s.mu.Unlock()
	return &Slab{
		store: s,
		key:   key,
		conv:  conv,
		recs:  viewRecords(data, count),
		data:  data,
	}, nil
}

// Write converts the slab for key into its file, as GetOrStream does on a
// miss, but neither maps nor serves it. It is the entry point for a caller
// that converts several slabs from one pass over their input and maps each
// at its first use: it counts a miss and a conversion, and the first load
// of the written slab then counts with that miss, not as a hit. A
// conversion error is counted and returned with nothing left on disk. A
// failed write is warned, counted and returned; the slab is then absent,
// and a later GetOrStream converts it again.
func (s *Store) Write(key Key, convert StreamFunc) error {
	if _, err := s.index(); err != nil {
		return err
	}
	if _, _, _, err := s.write(key, convert); err != nil {
		return err
	}
	s.mu.Lock()
	s.fresh[key] = true
	s.mu.Unlock()
	return nil
}

// errWriteFailed wraps the cause of a failed slab write.
var errWriteFailed = errors.New("tracestore: slab write failed")

// write converts the slab for key straight into a temp file as convert
// emits it and publishes the file through the built index (rename, so the
// slab appears whole or not at all). The file is written front to back — a
// zero header page, the records and meta under a running data CRC, the
// footer — and the real header last, at offset 0, since it carries the
// record count. It counts a miss and a conversion, and returns the
// converter statistics, the record count and the file size. A conversion
// error is counted and returned with nothing left on disk. A failure of any write step, the rename included, is
// warned, counted, and returned wrapping errWriteFailed.
func (s *Store) write(key Key, convert StreamFunc) (conv core.Stats, count int, size int64, err error) {
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
		var writeErr error
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
		err = fmt.Errorf("%w: %v", errWriteFailed, err)
		s.warn("%v", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case convErr != nil:
		s.stats.ConvertErrors++
		return conv, 0, 0, convErr
	case err != nil:
		s.stats.WriteErrors++
		return conv, 0, 0, err
	}
	s.stats.BytesWritten += uint64(size)
	s.stats.Evictions += uint64(evicted)
	return conv, count, size, nil
}

// convertHeap runs convert again, into memory, for a slab the store could
// not write or map.
func (s *Store) convertHeap(key Key, convert StreamFunc) (*Slab, error) {
	var recs []champtrace.Instruction
	conv, err := convert(func(batch []champtrace.Instruction) error {
		recs = append(recs, batch...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Slab{store: s, key: key, conv: conv, recs: recs, heap: true}, nil
}

// Close exists for symmetry with the other stores: the store keeps no
// unreferenced slab mapped, so there is nothing to drop. Slabs still
// referenced stay mapped until their last Release.
func (s *Store) Close() {}
