package resultcache

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sync"
)

// Codec converts cached values to and from their stored payload bytes.
// Encode must be deterministic enough for Decode(Encode(v)) == v; byte-level
// stability across versions is not required (the record version and
// SchemaVersion gate compatibility).
type Codec[T any] interface {
	Encode(T) ([]byte, error)
	Decode([]byte) (T, error)
}

// GobCodec is a Codec backed by encoding/gob — sufficient for plain
// exported-field result structs.
type GobCodec[T any] struct{}

// Encode implements Codec.
func (GobCodec[T]) Encode(v T) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode implements Codec.
func (GobCodec[T]) Decode(b []byte) (T, error) {
	var v T
	err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v)
	return v, err
}

// BinaryCodec is a Codec over encoding/binary's fixed little-endian
// layout. T must have a fixed size — numbers, bools, and arrays and
// structs of them; a string, slice or map field makes Encode fail. The
// layout has no framing of its own, so Decode insists the payload is
// exactly one T long: a truncated, padded or foreign (e.g. gob) payload is
// a decode error, which the cache discards as corrupt and recomputes.
type BinaryCodec[T any] struct{}

// Encode implements Codec.
func (BinaryCodec[T]) Encode(v T) ([]byte, error) {
	return binary.Append(nil, binary.LittleEndian, &v)
}

// Decode implements Codec.
func (BinaryCodec[T]) Decode(b []byte) (T, error) {
	var v T
	n, err := binary.Decode(b, binary.LittleEndian, &v)
	if err == nil && n != len(b) {
		err = fmt.Errorf("resultcache: %d-byte payload for a %d-byte record", len(b), n)
	}
	return v, err
}

// Config parameterizes Open.
type Config struct {
	// Dir is the cache root. Entries live under Dir/v<SchemaVersion>/,
	// sharded by the first key byte.
	Dir string
	// MaxBytes bounds the on-disk footprint; least-recently-used entries
	// are evicted past it. <= 0 selects the 1 GiB default. The in-memory
	// decoded-value layer is not bounded: a process keeps every result it
	// has touched.
	MaxBytes int64
}

// DefaultMaxBytes is the on-disk budget when Config.MaxBytes is unset.
const DefaultMaxBytes = 1 << 30

// Stats counts cache activity since Open. Hits+Misses is the number of
// resolved lookups (single-flight waiters sharing another goroutine's
// computation are counted under SharedWaits, not as lookups of their own).
// The json names are the ones `rebase -bench-json` records.
type Stats struct {
	// Hits = MemHits + DiskHits.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// MemHits were served from the in-process decoded-value map, DiskHits
	// from the backend (disk, or whatever tier composition backs the
	// cache).
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	// SharedWaits counts single-flight joins: lookups that blocked on an
	// identical in-flight computation instead of duplicating it.
	SharedWaits uint64 `json:"shared_waits"`
	// Computes counts invocations of the caller's compute function;
	// Errors counts the ones that failed (failures are never stored).
	Computes uint64 `json:"computes"`
	Errors   uint64 `json:"errors"`
	// Corrupt counts entries that failed validation and were discarded;
	// each also shows up as a miss and a recompute.
	Corrupt uint64 `json:"corrupt"`
	// Evictions counts entries removed by a size bound.
	Evictions uint64 `json:"evictions"`
	// WriteErrors counts store failures; the computed value is still
	// returned to the caller, so a read-only cache degrades gracefully.
	WriteErrors uint64 `json:"write_errors"`
	// BytesRead and BytesWritten count payload-carrying bytes moved
	// through the backend tiers.
	BytesRead    uint64 `json:"bytes_read"`
	BytesWritten uint64 `json:"bytes_written"`
}

type flight[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// Cache is a content-addressed result store over a Backend: an unbounded
// in-process decoded-value map, the backend (a single disk tier for Open,
// any Tiered composition for New), and a single-flight layer that
// collapses concurrent computations of the same key into one. All methods
// are safe for concurrent use.
type Cache[T any] struct {
	backend Backend
	codec   Codec[T]

	mu      sync.Mutex
	mem     map[Key]T
	flights map[Key]*flight[T]
	stats   Stats
}

// Open opens (creating if needed) a disk-backed cache rooted at cfg.Dir —
// the classic batch-CLI configuration. See New to compose the cache over
// other backends (memory LRU, remote, tiered).
func Open[T any](cfg Config, codec Codec[T]) (*Cache[T], error) {
	disk, err := NewDisk(DiskConfig{Dir: cfg.Dir, MaxBytes: cfg.MaxBytes})
	if err != nil {
		return nil, err
	}
	return New[T](disk, codec), nil
}

// New builds a cache over an already-constructed backend. The cache owns
// the backend: Close closes it.
func New[T any](backend Backend, codec Codec[T]) *Cache[T] {
	return &Cache[T]{
		backend: backend,
		codec:   codec,
		mem:     make(map[Key]T),
		flights: make(map[Key]*flight[T]),
	}
}

// Backend returns the tier composition the cache stores through.
func (c *Cache[T]) Backend() Backend { return c.backend }

// EntryPath returns where the entry for key lives (or would live) on
// disk, or "" when no tier is file-backed.
func (c *Cache[T]) EntryPath(key Key) string {
	if p, ok := c.backend.(entryPather); ok {
		return p.EntryPath(key)
	}
	return ""
}

// Dir returns the versioned root of the first directory-rooted tier, or
// "" when there is none.
func (c *Cache[T]) Dir() string {
	if p, ok := c.backend.(dirBackend); ok {
		return p.Dir()
	}
	return ""
}

// Stats returns a snapshot of the activity counters: lookup outcomes are
// counted by the cache itself; storage-side counters (corruption,
// evictions, write errors, byte traffic) are summed over the backend
// tiers.
func (c *Cache[T]) Stats() Stats {
	c.mu.Lock()
	s := c.stats
	c.mu.Unlock()
	for _, t := range TierStats(c.backend) {
		s.Corrupt += t.Corrupt
		s.Evictions += t.Evictions
		s.WriteErrors += t.WriteErrors
		s.BytesRead += t.BytesRead
		s.BytesWritten += t.BytesWritten
	}
	return s
}

// TierStats returns the per-tier backend counters (one entry per tier for
// a Tiered backend).
func (c *Cache[T]) TierStats() []BackendStats {
	return TierStats(c.backend)
}

// DiskBytes returns the persistent footprint of the first sized tier.
func (c *Cache[T]) DiskBytes() int64 {
	if p, ok := c.backend.(sizedBackend); ok {
		return p.DiskBytes()
	}
	return 0
}

// Close flushes and closes the backend.
func (c *Cache[T]) Close() error { return c.backend.Close() }

// Get returns the cached value for key if it is resident in memory or
// valid in the backend, counting a miss when it is neither. It never
// computes and never joins an in-flight computation.
func (c *Cache[T]) Get(key Key) (T, bool) {
	v, ok := c.Lookup(key)
	if !ok {
		c.mu.Lock()
		c.stats.Misses++
		c.mu.Unlock()
	}
	return v, ok
}

// Lookup is Get without the miss count, for callers that resolve every
// key before computing any: each miss is then resolved with GetOrCompute,
// which counts it, so a lookup followed by a GetOrCompute counts one miss,
// not two.
func (c *Cache[T]) Lookup(key Key) (T, bool) {
	c.mu.Lock()
	if v, ok := c.mem[key]; ok {
		c.stats.Hits++
		c.stats.MemHits++
		c.mu.Unlock()
		return v, true
	}
	c.mu.Unlock()
	return c.tryBackend(key)
}

// GetOrCompute returns the value for key, computing and storing it on a
// miss. Concurrent calls for the same key share one computation: exactly
// one caller runs compute, the rest block and receive its result
// (single-flight). A failed compute is returned to every waiter and is not
// cached, so a later call retries. Store failures degrade to a warm
// in-memory result rather than an error.
func (c *Cache[T]) GetOrCompute(key Key, compute func() (T, error)) (T, error) {
	c.mu.Lock()
	if v, ok := c.mem[key]; ok {
		c.stats.Hits++
		c.stats.MemHits++
		c.mu.Unlock()
		return v, nil
	}
	if fl, ok := c.flights[key]; ok {
		c.stats.SharedWaits++
		c.mu.Unlock()
		<-fl.done
		return fl.val, fl.err
	}
	fl := &flight[T]{done: make(chan struct{})}
	c.flights[key] = fl
	c.mu.Unlock()

	fl.val, fl.err = c.fill(key, compute)
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	close(fl.done)
	return fl.val, fl.err
}

// fill resolves a leader's lookup: backend, then compute+store.
func (c *Cache[T]) fill(key Key, compute func() (T, error)) (T, error) {
	if v, ok := c.tryBackend(key); ok {
		return v, nil
	}

	c.mu.Lock()
	c.stats.Misses++
	c.stats.Computes++
	c.mu.Unlock()
	v, err := compute()
	if err != nil {
		c.mu.Lock()
		c.stats.Errors++
		c.mu.Unlock()
		return v, err
	}
	c.store(key, v)
	return v, nil
}

// tryBackend attempts to load and decode the backend entry for key,
// promoting it into the memory layer on success. A payload the backend
// validated but the codec cannot decode is discarded as corrupt so it is
// recomputed, never served.
func (c *Cache[T]) tryBackend(key Key) (T, bool) {
	var zero T
	payload, err := c.backend.Get(key)
	if err != nil {
		return zero, false
	}
	v, err := c.codec.Decode(payload)
	if err != nil {
		c.backend.Delete(key)
		c.mu.Lock()
		c.stats.Corrupt++
		c.mu.Unlock()
		return zero, false
	}
	c.mu.Lock()
	c.stats.Hits++
	c.stats.DiskHits++
	c.mem[key] = v
	c.mu.Unlock()
	return v, true
}

// store encodes v and writes it through the backend. Failures are
// counted, not returned: the value is already in memory and the run must
// not depend on a writable cache.
func (c *Cache[T]) store(key Key, v T) {
	c.mu.Lock()
	c.mem[key] = v
	c.mu.Unlock()

	payload, err := c.codec.Encode(v)
	if err != nil {
		// Encode failures are the cache's own; backend Put failures are
		// counted by the failing tier.
		c.mu.Lock()
		c.stats.WriteErrors++
		c.mu.Unlock()
		return
	}
	c.backend.Put(key, payload)
}
