package tracestore

import (
	"io"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/resultcache"
)

// Slab is one converted trace, held by at least one caller. Its record
// slice is a read-only view into an mmap'd file and stays valid until
// Release drops the last reference — a slab is never unmapped under a
// simulation that still holds it. Being mapped is not being resident: a Source gives back the
// pages it has read, so a simulating cell keeps about dropStep bytes of
// its slab in the process's memory, not the whole file.
type Slab struct {
	store *Store
	key   Key
	conv  core.Stats
	recs  []champtrace.Instruction

	// data is the raw mapping backing recs.
	data []byte

	// The fields below are guarded by store.mu.
	refs int32
	// destroyed is a test hook: set exactly once, when the last Release
	// gives up the backing memory.
	destroyed bool
}

// Records returns the simulation-ready instruction slab. The slice is
// shared and read-only; it must not be retained past Release. The pages
// it touches stay resident until the last Release: a simulation reads
// through Source instead.
func (s *Slab) Records() []champtrace.Instruction { return s.recs }

// Source returns a reader over the slab's records from the first, for one
// front-to-back pass; each call returns an independent reader. A reader
// drops each dropStep of pages from the process's mapping once it has
// passed it (dropPages). A dropped page faults back in from
// the page cache unchanged, so readers at different offsets, or a file
// evicted meanwhile, still read what was written. The reader must not be
// used past Release.
func (s *Slab) Source() champtrace.Source {
	return &slabSource{recs: s.recs, data: s.data}
}

// dropStep is the unit in which a reader gives pages back: entering a new
// dropStep of the record region, it drops the one it has finished. It is
// a constant, not a knob: a smaller step saves little RSS and costs system
// CPU per drop (see DESIGN.md, "Lifetime").
const dropStep = 1 << 20

// dropRecords is the record count of one dropStep (records never straddle
// a step: recordSize divides it).
const dropRecords = dropStep / recordSize

// slabSource reads a slab's records in order, dropping the pages of each
// finished dropStep.
type slabSource struct {
	recs []champtrace.Instruction
	data []byte // the mapping; recs is a view into it
	pos  int
}

// Next implements champtrace.Source.
func (r *slabSource) Next() (*champtrace.Instruction, error) {
	if r.pos >= len(r.recs) {
		return nil, io.EOF
	}
	if r.pos > 0 && r.pos%dropRecords == 0 {
		off := headerSize + (r.pos-dropRecords)*recordSize
		dropPages(r.data[off : off+dropStep])
	}
	in := &r.recs[r.pos]
	r.pos++
	return in, nil
}

// Conv returns the converter statistics captured when the slab was built.
// They are part of the slab's content: figure rendering consumes them, so
// a slab load must reproduce them exactly as a fresh conversion would.
func (s *Slab) Conv() core.Stats { return s.conv }

// Len returns the record count.
func (s *Slab) Len() int { return len(s.recs) }

// Release drops the caller's reference. The last one unindexes the slab
// and frees its backing memory, so the next lookup maps the file afresh.
func (s *Slab) Release() {
	if s == nil {
		return
	}
	st := s.store
	st.mu.Lock()
	if s.refs <= 0 {
		st.mu.Unlock()
		panic("tracestore: Release without matching reference")
	}
	s.refs--
	last := s.refs == 0
	if last {
		delete(st.open, s.key)
		st.mapped -= uint64(len(s.data))
		s.destroyed = true
	}
	st.mu.Unlock()
	if last {
		s.free()
	}
}

// free releases the mapping of a slab no caller can reach: an unindexed
// one, or a duplicate mapping that lost an install race.
func (s *Slab) free() {
	resultcache.UnmapFile(s.data)
	s.data, s.recs = nil, nil
}
