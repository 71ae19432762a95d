package expstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"tracerebase/internal/resultcache"
)

// Config configures a Store. The zero value plus Dir is usable.
type Config struct {
	// Dir is the store directory; block files live directly in it.
	Dir string
	// BlockCells is the append-buffer flush threshold: a block is written
	// once this many cells accumulate (or on Flush/Close). Blocks smaller
	// than this are compaction candidates. Default 256.
	BlockCells int
	// Warn receives diagnostics for corrupt and foreign blocks and write
	// failures; nil discards them.
	Warn func(format string, args ...any)
}

// compactTrigger is the number of undersized blocks at which a flush
// merges them into one.
const compactTrigger = 8

// Stats are the store's observability counters, all cumulative since Open.
// The json names are the ones `rebase -bench-json` records.
type Stats struct {
	// Appends is cells offered; DupSkipped of those were already present
	// (on disk or pending) under the same content key and were dropped.
	Appends    uint64 `json:"appends"`
	DupSkipped uint64 `json:"dup_skipped"`
	// BlocksWritten / CellsWritten / BytesWritten cover both fresh flushes
	// and compaction outputs.
	BlocksWritten uint64 `json:"blocks_written"`
	CellsWritten  uint64 `json:"cells_written"`
	BytesWritten  uint64 `json:"bytes_written"`
	// Compactions counts merge passes; BlocksCompacted the inputs retired.
	Compactions     uint64 `json:"compactions"`
	BlocksCompacted uint64 `json:"blocks_compacted"`
	// Corrupt blocks were removed (their cells return on the next sweep);
	// Foreign blocks (other format or schema) are skipped but kept. Both
	// are found when the row set is loaded.
	Corrupt uint64 `json:"corrupt"`
	Foreign uint64 `json:"foreign"`
	// WriteErrors counts failed block writes. Appends degrade gracefully:
	// the sweep result is still returned, the store just misses the cell.
	WriteErrors uint64 `json:"write_errors"`
	// LookupHits / LookupMisses count the keys Lookup was asked for that
	// the store served / could not serve.
	LookupHits   uint64 `json:"lookup_hits"`
	LookupMisses uint64 `json:"lookup_misses"`
}

// BlockFS is the file-system seam of a block publish: the temp-file write,
// then the link into place, or the rename where links fail. Only
// fault-injection tests replace its functions.
var BlockFS = struct {
	Write        func(f *os.File, b []byte) (int, error)
	Link, Rename func(oldpath, newpath string) error
}{(*os.File).Write, os.Link, os.Rename}

// blockRef is one block file this store serves, or will once loaded.
type blockRef struct {
	path     string
	seq, gen int
	cells    int // known once loaded or written
}

// Store is an append-only store of experiment cells backed by block files
// in one directory, served from one in-memory row set.
type Store struct {
	cfg Config

	mu      sync.Mutex
	blocks  []*blockRef // in (seq, gen) order
	nextSeq int
	// cells is the row set: every served cell once, keep-first in block
	// order, then in flush order. It only grows, so a snapshot of the
	// slice header stays valid without the lock. index maps each key to
	// its row, and each pending cell to len(cells)+its place in pending;
	// it is nil until the first read loads the blocks.
	cells   []Cell
	index   map[Key]int
	pending []Cell
	stats   Stats
	closed  bool
}

func blockName(seq, gen int) string {
	return fmt.Sprintf("b%08d-g%04d.expb", seq, gen)
}

func parseBlockName(name string) (seq, gen int, ok bool) {
	var tail string
	if n, err := fmt.Sscanf(name, "b%08d-g%04d%s", &seq, &gen, &tail); err != nil || n != 3 || tail != ".expb" {
		return 0, 0, false
	}
	return seq, gen, true
}

// Open lists the block files in dir (created if missing), removing
// temp-file leftovers. It reads no block data: the first read loads it.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("expstore: empty directory")
	}
	if cfg.BlockCells <= 0 {
		cfg.BlockCells = 256
	}
	if cfg.Warn == nil {
		cfg.Warn = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("expstore: %w", err)
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("expstore: %w", err)
	}
	s := &Store{cfg: cfg}
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(cfg.Dir, name)
		switch {
		case e.IsDir():
		case strings.HasPrefix(name, "tmp-"):
			os.Remove(path)
		case strings.HasSuffix(name, ".expb"):
			seq, gen, ok := parseBlockName(name)
			if !ok {
				// Not ours to judge; leave it alone but don't serve it.
				cfg.Warn("expstore: ignoring unrecognized file %s", path)
				continue
			}
			s.blocks = append(s.blocks, &blockRef{path: path, seq: seq, gen: gen})
			s.nextSeq = max(s.nextSeq, seq+1)
		}
	}
	sort.Slice(s.blocks, func(i, j int) bool { return blockBefore(s.blocks[i], s.blocks[j]) })
	return s, nil
}

func blockBefore(a, b *blockRef) bool {
	return a.seq < b.seq || (a.seq == b.seq && a.gen < b.gen)
}

// loadLocked reads every listed block into the row set, once, and returns
// the bytes it read. Foreign blocks are skipped and corrupt ones removed;
// neither stays listed. mu is held.
func (s *Store) loadLocked() int64 {
	if s.index != nil {
		return 0
	}
	type block struct {
		ref  *blockRef
		rows []byte
		n    int
	}
	var blocks []block
	var read int64
	total, most := 0, 0
	for _, ref := range s.blocks {
		data, err := os.ReadFile(ref.path)
		if err != nil {
			continue // gone since Open: compacted away by another process
		}
		read += int64(len(data))
		rows, n, v, err := openBlock(data)
		switch v {
		case blockForeign:
			s.stats.Foreign++
			s.cfg.Warn("expstore: skipping foreign block %s: %v", ref.path, err)
		case blockCorrupt:
			s.dropCorrupt(ref.path, err)
		default:
			blocks = append(blocks, block{ref, rows, n})
			total, most = total+n, max(most, n)
		}
	}
	// Each block decodes into one scratch slice and its new keys are copied
	// into a row set sized once, so loading allocates little beyond it.
	s.cells = make([]Cell, 0, total)
	s.index = make(map[Key]int, total)
	s.blocks = s.blocks[:0]
	scratch := make([]Cell, most)
	intern := make(map[string]string)
	for _, b := range blocks {
		cells := scratch[:b.n]
		if err := decodeRows(b.rows, cells, intern); err != nil {
			s.dropCorrupt(b.ref.path, err)
			continue
		}
		b.ref.cells = b.n
		s.blocks = append(s.blocks, b.ref)
		for i := range cells {
			if _, dup := s.index[cells[i].Key]; !dup {
				s.index[cells[i].Key] = len(s.cells)
				s.cells = append(s.cells, cells[i])
			}
		}
	}
	return read
}

// dropCorrupt removes a damaged block file: its cells were lost, but they
// reconvert — the next sweep recomputes and re-appends them.
func (s *Store) dropCorrupt(path string, err error) {
	s.stats.Corrupt++
	s.cfg.Warn("expstore: removing corrupt block %s: %v", path, err)
	os.Remove(path)
}

// Append offers one cell. Cells already present under the same content key
// (on disk or pending) are dropped — the engine is deterministic, so a
// duplicate key is a duplicate cell. A block is written once BlockCells
// cells are pending.
func (s *Store) Append(cell Cell) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("expstore: store closed")
	}
	s.loadLocked()
	s.stats.Appends++
	if _, dup := s.index[cell.Key]; dup {
		s.stats.DupSkipped++
		return nil
	}
	s.index[cell.Key] = len(s.cells) + len(s.pending)
	s.pending = append(s.pending, cell)
	if len(s.pending) >= s.cfg.BlockCells {
		return s.flushLocked()
	}
	return nil
}

// Flush writes the pending cells as a block, then merges the undersized
// blocks once compactTrigger of them exist.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	cells := s.pending
	if len(cells) == 0 {
		return nil
	}
	s.pending = nil
	ref, err := s.writeBlockLocked(cells, s.nextSeq, 0, true)
	if err != nil {
		// The cells are never served: they leave the index, so this
		// process may offer them again and a later one re-appends them.
		for i := range cells {
			delete(s.index, cells[i].Key)
		}
		return err
	}
	s.cells = append(s.cells, cells...)
	s.insertLocked(ref)
	s.compactLocked()
	return nil
}

// writeBlockLocked encodes cells and publishes the file under an unused
// (seq, gen) name via link-into-place, so two processes appending to the
// same directory cannot silently overwrite each other's blocks. Fresh
// flushes pass bumpSeq and take the next free sequence number; compaction
// keeps its first input's sequence and takes the next free generation. A
// failure is counted and warned.
func (s *Store) writeBlockLocked(cells []Cell, seq, gen int, bumpSeq bool) (*blockRef, error) {
	img := EncodeBlock(cells)
	ref := &blockRef{seq: seq, gen: gen, cells: len(cells)}
	if err := s.publish(img, ref, bumpSeq); err != nil {
		s.stats.WriteErrors++
		s.cfg.Warn("expstore: writing block %s failed, %d cells not stored: %v", ref.path, len(cells), err)
		return nil, err
	}
	s.stats.BlocksWritten++
	s.stats.CellsWritten += uint64(len(cells))
	s.stats.BytesWritten += uint64(len(img))
	return ref, nil
}

// publish writes img to a temp file and links it into place, setting
// ref's path, seq and gen to the name it took (on failure, the name it
// was meant for).
func (s *Store) publish(img []byte, ref *blockRef, bumpSeq bool) error {
	ref.path = filepath.Join(s.cfg.Dir, blockName(ref.seq, ref.gen))
	tmp, size, err := resultcache.WriteTemp(s.cfg.Dir, func(f *os.File) error {
		_, err := BlockFS.Write(f, img)
		return err
	})
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	if size != int64(len(img)) {
		return io.ErrShortWrite
	}
	for {
		if bumpSeq {
			ref.seq = s.nextSeq
			s.nextSeq++
		}
		ref.path = filepath.Join(s.cfg.Dir, blockName(ref.seq, ref.gen))
		err := BlockFS.Link(tmp, ref.path)
		if err == nil {
			return nil
		}
		if !errors.Is(err, os.ErrExist) {
			// Filesystem without hard links: fall back to plain rename.
			return BlockFS.Rename(tmp, ref.path)
		}
		if !bumpSeq {
			ref.gen++ // a crash leftover holds this name; take the next generation
		}
	}
}

// insertLocked adds a block keeping (seq, gen) order.
func (s *Store) insertLocked(ref *blockRef) {
	i := sort.Search(len(s.blocks), func(i int) bool { return !blockBefore(s.blocks[i], ref) })
	s.blocks = append(s.blocks, nil)
	copy(s.blocks[i+1:], s.blocks[i:])
	s.blocks[i] = ref
}

// compactLocked merges the undersized blocks into one once compactTrigger
// of them exist. The output keeps every input cell, duplicates included,
// and takes the first input's sequence with a higher generation. A crash
// between publishing it and removing the inputs leaves each cell twice on
// disk, which the load's key dedup absorbs. mu is held.
func (s *Store) compactLocked() {
	var small []*blockRef
	for _, b := range s.blocks {
		if b.cells < s.cfg.BlockCells {
			small = append(small, b)
		}
	}
	if len(small) < compactTrigger {
		return
	}
	var cells []Cell
	gen := 0
	for _, ref := range small {
		data, err := os.ReadFile(ref.path)
		if err != nil {
			return // gone since listed: another process compacted it
		}
		cs, err := DecodeBlock(data)
		if err != nil {
			return // its rows are loaded already; the next process drops it
		}
		cells = append(cells, cs...)
		gen = max(gen, ref.gen+1)
	}
	out, err := s.writeBlockLocked(cells, small[0].seq, gen, false)
	if err != nil {
		return
	}
	s.stats.Compactions++
	s.stats.BlocksCompacted += uint64(len(small))
	kept := s.blocks[:0]
	for _, b := range s.blocks {
		if b.cells >= s.cfg.BlockCells {
			kept = append(kept, b)
		}
	}
	s.blocks = kept
	s.insertLocked(out)
	for _, ref := range small {
		os.Remove(ref.path)
	}
}

// readyLocked loads the row set if needed and flushes pending cells, and
// returns the block bytes it loaded. Cells of a failed flush are not
// served; the write error has been counted and warned. mu is held.
func (s *Store) readyLocked() int64 {
	read := s.loadLocked()
	s.flushLocked()
	return read
}

// snapshot returns the row set, ready, with the block bytes this call
// loaded.
func (s *Store) snapshot() ([]Cell, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	read := s.readyLocked()
	return s.cells[:len(s.cells):len(s.cells)], read
}

// ScanCells returns every cell the store serves, each key once, in block
// order.
func (s *Store) ScanCells() ([]Cell, error) {
	cells, _ := s.snapshot()
	return append([]Cell(nil), cells...), nil
}

// Cells fetches the given content keys. This is the figure pipeline's read
// path: before a sweep dispatches a cell it looks the cell up here
// (Lookup), and after the sweep it rehydrates every cell it just appended
// (or deduped against) from the store.
func (s *Store) Cells(keys []Key) (map[Key]Cell, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readyLocked()
	out := make(map[Key]Cell, len(keys))
	for _, k := range keys {
		if i, ok := s.index[k]; ok {
			out[k] = s.cells[i]
		}
	}
	return out, nil
}

// Lookup is Cells counted as a cache lookup: each requested key (once per
// occurrence) adds to Stats.LookupHits or Stats.LookupMisses. It is the
// sweep executor's first lookup, made before any cell is dispatched.
func (s *Store) Lookup(keys []Key) (map[Key]Cell, error) {
	cells, err := s.Cells(keys)
	hits := 0
	for _, k := range keys {
		if _, ok := cells[k]; ok {
			hits++
		}
	}
	s.mu.Lock()
	s.stats.LookupHits += uint64(hits)
	s.stats.LookupMisses += uint64(len(keys) - hits)
	s.mu.Unlock()
	return cells, err
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.cfg.Dir }

// Close flushes pending cells. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.flushLocked()
	s.closed = true
	return err
}
