package tracestore

import (
	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
)

// Slab is one converted trace, held by at least one caller. Its record
// slice is a read-only view into an mmap'd file (or, after a write
// failure, a plain heap slab) and stays valid until Release drops the last
// reference — a slab is never unmapped under a simulation that still
// holds it.
type Slab struct {
	store *Store
	key   Key
	conv  core.Stats
	recs  []champtrace.Instruction

	// data is the raw mapping backing recs; nil for heap slabs.
	data []byte
	// heap marks a slab whose records live on the Go heap: the store
	// failed to write or map its file and converted it a second time,
	// into memory. Nothing recycles them; the last Release drops them.
	heap bool

	// The fields below are guarded by store.mu.
	refs int32
	// destroyed is a test hook: set exactly once, when the last Release
	// gives up the backing memory.
	destroyed bool
}

// Records returns the simulation-ready instruction slab. The slice is
// shared and read-only; it must not be retained past Release.
func (s *Slab) Records() []champtrace.Instruction { return s.recs }

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

// free releases the backing memory of a slab no caller can reach: an
// unindexed one, or a duplicate mapping that lost an install race.
func (s *Slab) free() {
	if s.data != nil {
		unmapFile(s.data)
		s.data = nil
	}
	s.recs = nil
}
