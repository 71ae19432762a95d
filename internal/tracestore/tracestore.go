package tracestore

import (
	"bufio"
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
	// MaxResident bounds how many unreferenced slabs the store keeps
	// mapped for reuse within the process. <= 0 selects the default.
	// Referenced slabs never count against safety — eviction only drops
	// residency; the mapping lives until the last Release.
	MaxResident int
	// Warn, when set, receives printf-style diagnostics for conditions the
	// store absorbs (corrupt slabs, write failures) so runs degrade loudly
	// instead of silently.
	Warn func(format string, args ...any)
}

// DefaultMaxBytes is the on-disk budget when Config.MaxBytes is unset:
// large enough to hold every slab of a full `-exp all -step 3` run.
const DefaultMaxBytes = 8 << 30

// DefaultMaxResident is the resident-slab bound when Config.MaxResident is
// unset.
const DefaultMaxResident = 32

// Stats counts store activity since Open. The json names are the ones
// `rebase -bench-json` records.
type Stats struct {
	// Hits = MemHits + DiskHits. Misses each trigger one conversion.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// MemHits were served from an already-resident mapping, DiskHits by
	// mapping (and validating) a slab file.
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	// SharedWaits counts single-flight joins on an in-progress conversion.
	SharedWaits uint64 `json:"shared_waits"`
	// Converts counts invocations of the caller's convert function;
	// ConvertErrors counts the ones that failed (never stored).
	Converts      uint64 `json:"converts"`
	ConvertErrors uint64 `json:"convert_errors"`
	// Corrupt counts slab files that failed validation and were discarded;
	// each also shows up as a miss and a reconversion.
	Corrupt uint64 `json:"corrupt"`
	// Evictions counts slab files removed by the disk LRU bound.
	Evictions uint64 `json:"evictions"`
	// WriteErrors counts persist failures; the converted slab is still
	// served from the heap, so a read-only store degrades gracefully.
	WriteErrors uint64 `json:"write_errors"`
	// Prefetches counts slabs warmed ahead of use by Prefetch.
	Prefetches uint64 `json:"prefetches"`
	// BytesMapped counts slab file bytes mapped from disk; BytesWritten
	// counts slab file bytes persisted.
	BytesMapped  uint64 `json:"bytes_mapped"`
	BytesWritten uint64 `json:"bytes_written"`
}

// ConvertFunc builds the records for a slab on a store miss. scratch is a
// recycled buffer (possibly nil) to append into via core.ConvertAllInto;
// the returned slice may alias it or outgrow it.
type ConvertFunc func(scratch []champtrace.Instruction) ([]champtrace.Instruction, core.Stats, error)

type flight struct {
	done chan struct{}
	err  error
}

// Store is the content-addressed slab store. All methods are safe for
// concurrent use.
type Store struct {
	shards      *resultcache.Shards // rooted at Config.Dir/v<FormatVersion>, entries *.slab
	maxResident int
	warn        func(string, ...any)

	// scratch recycles conversion buffers (grown to trace size after the
	// first conversion) so steady-state misses allocate no slab memory.
	scratch sync.Pool // of *[]champtrace.Instruction
	// bufw recycles the persist path's write buffer across slabs.
	bufw sync.Pool // of *bufio.Writer

	mu      sync.Mutex
	open    map[Key]*Slab // resident slabs (mapped, reusable)
	flights map[Key]*flight
	tick    uint64
	stats   Stats
	closed  bool
}

// Open opens (creating if needed) the slab store rooted at cfg.Dir and
// indexes the slabs already on disk. Leftover temp files from interrupted
// writes are removed; files that do not look like slabs are ignored.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("tracestore: empty store directory")
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.MaxResident <= 0 {
		cfg.MaxResident = DefaultMaxResident
	}
	if cfg.Warn == nil {
		cfg.Warn = func(string, ...any) {}
	}
	shards, err := resultcache.OpenShards(filepath.Join(cfg.Dir, fmt.Sprintf("v%d", FormatVersion)), ".slab", cfg.MaxBytes)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	return &Store{
		shards:      shards,
		maxResident: cfg.MaxResident,
		warn:        cfg.Warn,
		open:        make(map[Key]*Slab),
		flights:     make(map[Key]*flight),
	}, nil
}

// EntryPath returns where the slab for key lives (or would live) on disk.
func (s *Store) EntryPath(key Key) string { return s.shards.Path(key) }

// Dir returns the versioned store root.
func (s *Store) Dir() string { return s.shards.Dir() }

// Stats returns a snapshot of the activity counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// DiskBytes returns the indexed on-disk footprint.
func (s *Store) DiskBytes() int64 { return s.shards.Bytes() }

func (s *Store) getScratch() []champtrace.Instruction {
	if p, ok := s.scratch.Get().(*[]champtrace.Instruction); ok {
		return (*p)[:0]
	}
	return nil
}

func (s *Store) putScratch(b []champtrace.Instruction) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	s.scratch.Put(&b)
}

// Get returns the slab for key if it is resident or valid on disk, taking
// a reference the caller must Release. It never converts and never joins
// an in-flight conversion.
func (s *Store) Get(key Key) (*Slab, bool) {
	s.mu.Lock()
	if sl, ok := s.open[key]; ok {
		s.ref(sl)
		s.stats.Hits++
		s.stats.MemHits++
		s.mu.Unlock()
		return sl, true
	}
	s.mu.Unlock()
	if sl := s.loadDisk(key, true); sl != nil {
		return sl, true
	}
	s.mu.Lock()
	s.stats.Misses++
	s.mu.Unlock()
	return nil, false
}

// GetOrConvert returns the slab for key, converting and persisting it on a
// miss. Concurrent calls for the same key share one conversion
// (single-flight); each successful return carries its own reference, which
// the caller must Release. A failed conversion is returned to every waiter
// and is not stored, so a later call retries.
func (s *Store) GetOrConvert(key Key, convert ConvertFunc) (*Slab, error) {
	for {
		s.mu.Lock()
		if sl, ok := s.open[key]; ok {
			s.ref(sl)
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
			// The leader installed the slab resident; retry from the top to
			// take a reference of our own. (If residency pressure already
			// evicted it, the retry reloads it from the file the leader
			// persisted.)
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
// returned slab carries the leader's reference and has been installed
// resident.
func (s *Store) fill(key Key, convert ConvertFunc) (*Slab, error) {
	if sl := s.loadDisk(key, true); sl != nil {
		return sl, nil
	}

	s.mu.Lock()
	s.stats.Misses++
	s.stats.Converts++
	s.mu.Unlock()
	recs, conv, err := convert(s.getScratch())
	if err != nil {
		s.putScratch(recs)
		s.mu.Lock()
		s.stats.ConvertErrors++
		s.mu.Unlock()
		return nil, err
	}

	sl := s.persist(key, recs, conv)
	s.mu.Lock()
	if prior, ok := s.open[key]; ok {
		// A Prefetch mapped the just-persisted file before we installed the
		// conversion result: adopt the resident mapping, drop ours.
		s.ref(prior)
		s.destroyLocked(sl)
		s.mu.Unlock()
		return prior, nil
	}
	s.install(sl)
	s.ref(sl)
	s.mu.Unlock()
	return sl, nil
}

// Prefetch warms the slab for key from disk — validating it touches every
// page — so a subsequent GetOrConvert is a resident hit. It takes no
// reference and converts nothing; a miss or corrupt slab is simply left
// for the eventual GetOrConvert to resolve.
func (s *Store) Prefetch(key Key) {
	s.mu.Lock()
	_, resident := s.open[key]
	_, inFlight := s.flights[key]
	s.mu.Unlock()
	if resident || inFlight {
		return
	}
	if s.loadDisk(key, false) != nil {
		s.mu.Lock()
		s.stats.Prefetches++
		s.mu.Unlock()
	}
}

// loadDisk maps and validates the slab file for key, installs it resident,
// and (when ref is set) takes a caller reference. It returns nil on miss.
// Corrupt files are removed so they are reconverted, never served; foreign
// files (other format version or architecture) are left in place for the
// native writer to atomically replace.
func (s *Store) loadDisk(key Key, ref bool) *Slab {
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
		data, err = mapFile(f, size)
		if err == nil {
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
	if prior, ok := s.open[key]; ok {
		// Lost a race with another loader (Prefetch vs GetOrConvert): keep
		// the installed mapping, drop ours.
		if ref {
			s.ref(prior)
			s.stats.Hits++
			s.stats.MemHits++
		}
		s.mu.Unlock()
		unmapFile(sl.data)
		return prior
	}
	s.stats.Hits++
	s.stats.DiskHits++
	s.stats.BytesMapped += uint64(size)
	s.install(sl)
	if ref {
		s.ref(sl)
	}
	s.mu.Unlock()
	return sl
}

// ref (mu held) takes a caller reference and refreshes residency LRU age.
func (s *Store) ref(sl *Slab) {
	sl.refs++
	s.tick++
	sl.lastUse = s.tick
}

// install (mu held) makes sl resident and trims residency to the bound,
// least recently used first. Eviction only drops the store's residency
// hold: a victim still referenced by a simulation stays mapped until its
// last Release; a fully idle one is unmapped immediately.
func (s *Store) install(sl *Slab) {
	if s.closed {
		// Store closed underneath a racing fill: hand the slab to the
		// caller un-resident; its last Release destroys it.
		return
	}
	s.open[sl.key] = sl
	sl.resident = true
	s.tick++
	sl.lastUse = s.tick
	for len(s.open) > s.maxResident {
		var victim *Slab
		for _, cand := range s.open {
			if cand == sl {
				continue
			}
			if victim == nil || cand.lastUse < victim.lastUse {
				victim = cand
			}
		}
		if victim == nil {
			break
		}
		delete(s.open, victim.key)
		victim.resident = false
		if victim.refs == 0 {
			s.destroyLocked(victim)
		}
	}
}

// destroyLocked releases victim's backing memory while holding s.mu. It
// inlines Slab.destroy minus the re-lock.
func (s *Store) destroyLocked(victim *Slab) {
	if victim.data != nil {
		unmapFile(victim.data)
		victim.data = nil
	} else if victim.heap {
		// putScratch touches only the pool; safe under mu.
		s.putScratch(victim.recs)
	}
	victim.recs = nil
	victim.destroyed = true
}

// persist writes the slab file atomically (temp + rename), remaps it so
// the served records are the shared read-only file pages, and recycles the
// conversion scratch. On any write failure it degrades to serving the heap
// slab directly: the run proceeds, the failure is counted and warned.
func (s *Store) persist(key Key, recs []champtrace.Instruction, conv core.Stats) *Slab {
	heapSlab := func() *Slab {
		return &Slab{store: s, key: key, conv: conv, recs: recs, heap: true}
	}
	meta, err := encodeMeta(conv)
	if err != nil {
		return s.persistFailed(heapSlab, err)
	}
	h := header{count: len(recs), metaLen: len(meta), key: key}
	body := recordBytes(recs)
	size, evicted, err := s.shards.Publish(key, func(f io.Writer) error {
		w, _ := s.bufw.Get().(*bufio.Writer)
		if w == nil {
			w = bufio.NewWriterSize(io.Discard, 1<<20)
		}
		w.Reset(f)
		defer func() {
			w.Reset(io.Discard) // drop the file reference before pooling
			s.bufw.Put(w)
		}()
		if _, err := w.Write(encodeHeader(h)); err != nil {
			return err
		}
		if _, err := w.Write(body); err != nil {
			return err
		}
		if _, err := w.Write(meta); err != nil {
			return err
		}
		crc := frame.Update(frame.Update(0, body), meta)
		if _, err := w.Write(encodeFooter(crc)); err != nil {
			return err
		}
		return w.Flush()
	})
	if err != nil {
		return s.persistFailed(heapSlab, err)
	}
	s.mu.Lock()
	s.stats.BytesWritten += uint64(size)
	s.stats.Evictions += uint64(evicted)
	s.mu.Unlock()

	// Serve the file mapping, not the heap copy, so the scratch returns to
	// the pool and every consumer of this slab — including other processes
	// — shares one set of page-cache pages.
	f, err := os.Open(s.EntryPath(key))
	if err != nil {
		return heapSlab() // evicted already?; serve from heap, no warning needed
	}
	data, err := mapFile(f, size)
	f.Close()
	if err != nil {
		return heapSlab()
	}
	sl := &Slab{
		store: s,
		key:   key,
		conv:  conv,
		recs:  viewRecords(data, h.count),
		data:  data,
	}
	s.mu.Lock()
	s.stats.BytesMapped += uint64(size)
	s.mu.Unlock()
	s.putScratch(recs)
	return sl
}

func (s *Store) persistFailed(heapSlab func() *Slab, err error) *Slab {
	s.warn("tracestore: slab write failed (serving from memory): %v", err)
	s.mu.Lock()
	s.stats.WriteErrors++
	s.mu.Unlock()
	return heapSlab()
}

// Close drops every resident slab. Slabs still referenced stay mapped
// until their last Release; everything else is unmapped now. The store
// must not be used after Close.
func (s *Store) Close() {
	s.mu.Lock()
	s.closed = true
	for k, sl := range s.open {
		delete(s.open, k)
		sl.resident = false
		if sl.refs == 0 {
			s.destroyLocked(sl)
		}
	}
	s.mu.Unlock()
}
