package expstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
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
	// CompactTrigger starts background compaction once this many
	// undersized blocks exist. Default 8.
	CompactTrigger int
	// MaxBlockCells bounds a compacted block. Default 16×BlockCells.
	MaxBlockCells int
	// Warn receives diagnostics for corrupt blocks and write failures;
	// nil discards them.
	Warn func(format string, args ...any)
}

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
	// Foreign blocks (other format or schema) are skipped but kept.
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

// blockRef is one on-disk block. Mappings are created lazily under
// single-flight and stay resident until Close; compaction retires refs but
// never unmaps them mid-life, so query snapshots remain valid.
type blockRef struct {
	path    string
	seq     int
	gen     int
	size    int64
	foreign bool

	mapOnce sync.Once
	mapErr  error
	data    []byte
	h       blockHeader
	bm      blockMeta
	metas   []colMeta
}

// srcRange is the sequence range a block's cells originate from: the
// block's own sequence for fresh flushes, the recorded source range for
// compaction outputs. Dup-suspicion analysis works on these ranges.
func (ref *blockRef) srcRange() (lo, hi uint64) {
	if ref.bm.hasSrc {
		return ref.bm.srcMin, ref.bm.srcMax
	}
	return uint64(ref.seq), uint64(ref.seq)
}

// Store is an append-only columnar store of experiment cells backed by
// block files in one directory.
type Store struct {
	cfg Config

	mu      sync.Mutex
	blocks  []*blockRef
	retired []*blockRef // compacted away; unmapped at Close
	nextSeq int
	// pending buffers cells per partition — the (category, config) pair —
	// so every flushed block is partition-pure and category/config/trace
	// filters prune it from its footer dictionaries alone.
	pending  map[string][]Cell
	nPending int
	seen     map[Key]struct{} // nil until first Append builds the index
	// runID and baseSeq stamp every block this store writes: the writer
	// lineage queries use to prove scanned blocks duplicate-free (see
	// blockMeta).
	runID   uint64
	baseSeq uint64
	stats   Stats
	closed  bool

	compacting bool
	compactCv  *sync.Cond
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

// Open scans dir (created if missing) for block files, removing temp-file
// leftovers and corrupt headers, and returns the store ready to append and
// query.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("expstore: empty directory")
	}
	if cfg.BlockCells <= 0 {
		cfg.BlockCells = 256
	}
	if cfg.CompactTrigger <= 0 {
		cfg.CompactTrigger = 8
	}
	if cfg.MaxBlockCells <= 0 {
		cfg.MaxBlockCells = 16 * cfg.BlockCells
	}
	if cfg.Warn == nil {
		cfg.Warn = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("expstore: %w", err)
	}
	s := &Store{cfg: cfg}
	s.compactCv = sync.NewCond(&s.mu)
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("expstore: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, "tmp-") {
			os.Remove(filepath.Join(cfg.Dir, name))
			continue
		}
		if !strings.HasSuffix(name, ".expb") {
			continue
		}
		path := filepath.Join(cfg.Dir, name)
		seq, gen, ok := parseBlockName(name)
		if !ok {
			// Not ours to judge; leave it alone but don't serve it.
			s.cfg.Warn("expstore: ignoring unrecognized file %s", path)
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		ref := &blockRef{path: path, seq: seq, gen: gen, size: info.Size()}
		switch s.classify(ref) {
		case blockOK:
			s.blocks = append(s.blocks, ref)
		case blockForeign:
			ref.foreign = true
			s.stats.Foreign++
			s.blocks = append(s.blocks, ref)
		case blockCorrupt:
			s.dropCorrupt(ref, fmt.Errorf("header validation failed"))
		}
		if seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
	}
	sort.Slice(s.blocks, func(i, j int) bool {
		if s.blocks[i].seq != s.blocks[j].seq {
			return s.blocks[i].seq < s.blocks[j].seq
		}
		return s.blocks[i].gen < s.blocks[j].gen
	})
	// Every block present now is loaded into the seen-set before the first
	// append, so this run's blocks are dup-free against anything below
	// baseSeq; a zero run ID would read as "unknown writer" to queries.
	s.baseSeq = uint64(s.nextSeq)
	for s.runID == 0 {
		s.runID = rand.Uint64()
	}
	s.pending = make(map[string][]Cell)
	return s, nil
}

// classify reads just the header page to sort a scanned file into the
// OK/Corrupt/Foreign trichotomy without mapping the block.
func (s *Store) classify(ref *blockRef) blockVerdict {
	f, err := os.Open(ref.path)
	if err != nil {
		return blockCorrupt
	}
	defer f.Close()
	buf := make([]byte, blockHeaderSize)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return blockCorrupt
	}
	h, v := parseBlockHeader(buf, ref.size)
	if v == blockOK {
		ref.h = h
	}
	return v
}

// dropCorrupt removes a damaged block file: its cells were lost, but they
// reconvert — the next sweep recomputes and re-appends them.
func (s *Store) dropCorrupt(ref *blockRef, err error) {
	s.stats.Corrupt++
	s.cfg.Warn("expstore: removing corrupt block %s: %v", ref.path, err)
	os.Remove(ref.path)
}

// acquire maps a block (single-flight via sync.Once) and validates its
// footer and column directory. A nil return with nil error means the block
// turned out corrupt and was dropped from the store.
func (s *Store) acquire(ref *blockRef) (*blockRef, error) {
	ref.mapOnce.Do(func() {
		f, err := os.Open(ref.path)
		if err != nil {
			ref.mapErr = err
			return
		}
		defer f.Close()
		data, err := resultcache.MapFile(f, ref.size)
		if err != nil {
			ref.mapErr = err
			return
		}
		h, bm, metas, v, err := openBlock(data)
		if err != nil {
			resultcache.UnmapFile(data)
			if v == blockCorrupt {
				ref.mapErr = fmt.Errorf("%w (removed)", err)
				s.mu.Lock()
				s.dropCorrupt(ref, err)
				s.removeRefLocked(ref)
				s.mu.Unlock()
			} else {
				ref.mapErr = err
			}
			return
		}
		ref.data, ref.h, ref.bm, ref.metas = data, h, bm, metas
	})
	if ref.mapErr != nil {
		return nil, ref.mapErr
	}
	return ref, nil
}

// removeRefLocked drops ref from the active block list (mu held).
func (s *Store) removeRefLocked(ref *blockRef) {
	for i, b := range s.blocks {
		if b == ref {
			s.blocks = append(s.blocks[:i], s.blocks[i+1:]...)
			return
		}
	}
}

// snapshot returns the current serveable blocks in (seq, gen) order.
// Mappings stay valid for the life of the store, so the snapshot can be
// read without further locking.
func (s *Store) snapshot() []*blockRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*blockRef, 0, len(s.blocks))
	for _, b := range s.blocks {
		if !b.foreign {
			out = append(out, b)
		}
	}
	return out
}

// buildSeenLocked loads the content keys of every serveable block so
// appends dedup against cells already on disk — a warm re-run appends
// nothing and the store does not grow. mu is held; mapping happens with it
// released.
func (s *Store) buildSeenLocked() {
	if s.seen != nil {
		return
	}
	s.mu.Unlock()
	seen := make(map[Key]struct{})
	for _, ref := range s.snapshot() {
		r, err := s.acquire(ref)
		if err != nil {
			continue
		}
		ki := colIndex["key"]
		keys, err := materializeKeys(r.data, &r.metas[ki], r.h.cells)
		if err != nil {
			s.mu.Lock()
			s.dropCorrupt(ref, err)
			s.removeRefLocked(ref)
			s.mu.Unlock()
			continue
		}
		for _, k := range keys {
			seen[k] = struct{}{}
		}
	}
	s.mu.Lock()
	if s.seen == nil {
		s.seen = seen
		for _, cells := range s.pending {
			for i := range cells {
				s.seen[cells[i].Key] = struct{}{}
			}
		}
	}
}

// partitionKey buckets a cell for block purity: one partition per
// (category, config) pair, so a flushed block's category and config
// dictionaries are singletons and its trace dictionary spans one category.
func partitionKey(cell *Cell) string {
	return cell.Category + "\x00" + cell.Config
}

// Append offers one cell. Cells already present under the same content key
// (on disk or pending) are dropped — the engine is deterministic, so a
// duplicate key is a duplicate cell. Cells buffer per (category, config)
// partition; a partition flushes to its own block once BlockCells
// accumulate, keeping footer statistics pure so pruning bites.
func (s *Store) Append(cell Cell) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("expstore: store closed")
	}
	s.buildSeenLocked()
	s.stats.Appends++
	if _, dup := s.seen[cell.Key]; dup {
		s.stats.DupSkipped++
		return nil
	}
	s.seen[cell.Key] = struct{}{}
	part := partitionKey(&cell)
	s.pending[part] = append(s.pending[part], cell)
	s.nPending++
	if len(s.pending[part]) >= s.cfg.BlockCells {
		return s.flushPartitionLocked(part)
	}
	return nil
}

// sortCells orders a batch by identity columns then key, so block footer
// statistics are tight and pruning bites.
func sortCells(cells []Cell) {
	sort.SliceStable(cells, func(i, j int) bool {
		a, b := &cells[i], &cells[j]
		if a.Category != b.Category {
			return a.Category < b.Category
		}
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Variant != b.Variant {
			return a.Variant < b.Variant
		}
		return bytes.Compare(a.Key[:], b.Key[:]) < 0
	})
}

// Flush writes every pending partition as a block, in partition order.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nPending == 0 {
		return nil
	}
	parts := make([]string, 0, len(s.pending))
	for part := range s.pending {
		parts = append(parts, part)
	}
	sort.Strings(parts)
	var firstErr error
	for _, part := range parts {
		if err := s.flushPartitionLocked(part); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (s *Store) flushPartitionLocked(part string) error {
	cells := s.pending[part]
	if len(cells) == 0 {
		return nil
	}
	delete(s.pending, part)
	s.nPending -= len(cells)
	sortCells(cells)
	bm := blockMeta{runID: s.runID, baseSeq: s.baseSeq}
	ref, err := s.writeBlockLocked(cells, bm, 0, 0, true)
	if err != nil {
		s.stats.WriteErrors++
		// The cells' keys stay in seen: re-offering them this process
		// would fail the same way. A later process re-appends them.
		s.cfg.Warn("expstore: block write failed, %d cells dropped: %v", len(cells), err)
		return err
	}
	s.insertRefLocked(ref)
	s.maybeCompactLocked()
	return nil
}

// writeBlockLocked encodes cells and publishes the file under an unused
// (seq, gen) name via link-into-place, so two processes appending to the
// same directory cannot silently overwrite each other's blocks. Fresh
// flushes pass bumpSeq and allocate the next sequence number; compaction
// keeps its first input's sequence and bumps the generation instead.
func (s *Store) writeBlockLocked(cells []Cell, bm blockMeta, seq, gen int, bumpSeq bool) (*blockRef, error) {
	img, err := encodeBlock(cells, bm)
	if err != nil {
		return nil, err
	}
	tmpPath, _, err := resultcache.WriteTemp(s.cfg.Dir, func(w *os.File) error {
		_, err := w.Write(img)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmpPath)
	var path string
	for {
		if bumpSeq {
			seq = s.nextSeq
			s.nextSeq++
		}
		path = filepath.Join(s.cfg.Dir, blockName(seq, gen))
		err := os.Link(tmpPath, path)
		if err == nil {
			break
		}
		if errors.Is(err, os.ErrExist) {
			if !bumpSeq {
				gen++ // crash leftover under this name; take the next generation
			}
			continue // name taken (by another process or a leftover); try the next
		}
		// Filesystem without hard links: fall back to plain rename.
		if err := os.Rename(tmpPath, path); err != nil {
			return nil, err
		}
		break
	}
	s.stats.BlocksWritten++
	s.stats.CellsWritten += uint64(len(cells))
	s.stats.BytesWritten += uint64(len(img))
	ref := &blockRef{path: path, seq: seq, gen: gen, size: int64(len(img))}
	if v := s.classify(ref); v != blockOK {
		return nil, fmt.Errorf("expstore: freshly written block %s fails validation", path)
	}
	return ref, nil
}

// insertRefLocked adds a block keeping (seq, gen) order.
func (s *Store) insertRefLocked(ref *blockRef) {
	i := sort.Search(len(s.blocks), func(i int) bool {
		b := s.blocks[i]
		return b.seq > ref.seq || (b.seq == ref.seq && b.gen >= ref.gen)
	})
	s.blocks = append(s.blocks, nil)
	copy(s.blocks[i+1:], s.blocks[i:])
	s.blocks[i] = ref
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.cfg.Dir }

// Blocks returns the number of serveable blocks.
func (s *Store) Blocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, b := range s.blocks {
		if !b.foreign {
			n++
		}
	}
	return n
}

// Close flushes pending cells, waits out any background compaction, and
// unmaps every block. The store must not be used afterwards.
func (s *Store) Close() error {
	err := s.Flush()
	s.mu.Lock()
	for s.compacting {
		s.compactCv.Wait()
	}
	s.closed = true
	refs := append(append([]*blockRef{}, s.blocks...), s.retired...)
	s.blocks, s.retired = nil, nil
	s.mu.Unlock()
	for _, ref := range refs {
		if ref.data != nil {
			resultcache.UnmapFile(ref.data)
			ref.data = nil
		}
	}
	return err
}
