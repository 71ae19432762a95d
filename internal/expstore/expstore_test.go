package expstore

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"tracerebase/internal/frame"
	"tracerebase/internal/resultcache"
)

// randCell fabricates a cell with identity fields drawn from small
// vocabularies (so dictionary pruning has something to bite on) and
// counters drawn wide (so delta encoding sees real ranges).
func randCell(rng *rand.Rand) Cell {
	cats := []string{"compute_int", "compute_fp", "crypto", "srv"}
	variants := []string{"No_imp", "All_imps", "BP_only", "BTB_only", "ICache_only"}
	configs := []string{"develop", "ipc1"}
	prefs := []string{"none", "next2"}
	var c Cell
	c.Category = cats[rng.Intn(len(cats))]
	c.Trace = fmt.Sprintf("%s_%d", c.Category, rng.Intn(8))
	c.Variant = variants[rng.Intn(len(variants))]
	c.Config = configs[rng.Intn(len(configs))]
	c.Prefetcher = prefs[rng.Intn(len(prefs))]
	c.ROB = uint64(64 << rng.Intn(4))
	c.Cores = 1
	c.SamplePeriod = uint64(rng.Intn(2)) * 1000
	c.Instructions = uint64(1+rng.Intn(5)) * 100000
	c.Warmup = uint64(rng.Intn(3)) * 10000
	c.IPC = rng.Float64() * 4
	c.Sim.Instructions = c.Instructions
	c.Sim.Cycles = uint64(float64(c.Instructions) / (c.IPC + 0.01))
	c.Sim.Branches = rng.Uint64() % c.Instructions
	c.Sim.Mispredicts = c.Sim.Branches / uint64(1+rng.Intn(50))
	c.Sim.L1I.Accesses = rng.Uint64() % (1 << 40)
	c.Sim.L1I.Misses = c.Sim.L1I.Accesses / uint64(1+rng.Intn(100))
	c.Sim.SampleIPCMean = rng.Float64() * 4
	c.Conv.In = rng.Uint64() % (1 << 50)
	c.Conv.Out = c.Conv.In + uint64(rng.Intn(1000))
	c.Key = resultcache.NewHasher("expstore-test").U64(rng.Uint64()).U64(rng.Uint64()).Sum()
	return c
}

func TestBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 256} {
		cells := make([]Cell, n)
		for i := range cells {
			cells[i] = randCell(rng)
		}
		img, err := encodeBlock(cells, blockMeta{runID: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBlock(img)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(got, cells) {
			t.Fatalf("n=%d: cells did not round-trip", n)
		}
	}
}

// fillNumeric walks a struct with reflection, setting every uint64 field
// to a fresh distinct value and every float64 to a fresh non-integral one.
func fillNumeric(v reflect.Value, next *uint64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNumeric(v.Field(i), next)
		}
	case reflect.Uint64:
		*next++
		v.SetUint(*next)
	case reflect.Float64:
		*next++
		v.SetFloat(float64(*next) + 0.25)
	}
}

// TestSchemaCoversStats pins the column schema against the counter
// structs: every numeric field of sim.Stats and core.Stats is set to a
// distinct value and must survive a block round-trip. Adding a field to
// either struct without adding a column here fails this test instead of
// silently dropping the data.
func TestSchemaCoversStats(t *testing.T) {
	var c Cell
	c.Trace, c.Category, c.Variant, c.Config, c.Prefetcher = "t", "c", "v", "m", "p"
	var next uint64
	fillNumeric(reflect.ValueOf(&c.Sim).Elem(), &next)
	fillNumeric(reflect.ValueOf(&c.Conv).Elem(), &next)
	c.ROB, c.Cores, c.SamplePeriod, c.Instructions, c.Warmup = 1, 2, 3, 4, 5
	c.IPC = 6.5
	c.Key = resultcache.NewHasher("cover").Sum()
	img, err := encodeBlock([]Cell{c}, blockMeta{runID: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBlock(img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], c) {
		t.Fatalf("schema does not cover all Stats fields:\n got %+v\nwant %+v", got[0], c)
	}
}

func newTestStore(t *testing.T, blockCells int) *Store {
	t.Helper()
	s, err := Open(Config{Dir: t.TempDir(), BlockCells: blockCells, CompactTrigger: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func fillStore(t *testing.T, s *Store, rng *rand.Rand, n int) []Cell {
	t.Helper()
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = randCell(rng)
		if err := s.Append(cells[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return cells
}

func rowsEqual(a, b *Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if !reflect.DeepEqual(a.Rows[i], b.Rows[i]) {
			return false
		}
	}
	return true
}

// TestQueryFullScanEquivalence is the randomized oracle: random cells in
// small blocks, random queries, and the pruned+projected engine must
// return exactly the rows the brute-force full scan does.
func TestQueryFullScanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := newTestStore(t, 16)
	fillStore(t, s, rng, 400)

	metrics := []string{"ipc", "cycles", "mispredicts", "sample_ipc_mean"}
	groups := []string{"", "category", "variant", "rob", "category,variant", "trace,rob"}
	stats := []string{"mean", "count,geomean", "min,max,p50,p99", "sum,p90,p95"}
	filterCols := []string{"category", "variant", "trace", "rob", "config"}
	vocab := map[string][]string{
		"category": {"compute_int", "compute_fp", "crypto", "srv", "absent"},
		"variant":  {"No_imp", "All_imps", "BP_only", "BTB_only", "ICache_only"},
		"trace":    {"srv_0", "srv_1", "crypto_2", "compute_int_3", "nosuch"},
		"rob":      {"64", "128", "256", "512", "7"},
		"config":   {"develop", "ipc1"},
	}
	anyPruned := false
	check := func(seed int64) bool {
		qr := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		fmt.Fprintf(&sb, "metric=%s stat=%s", metrics[qr.Intn(len(metrics))], stats[qr.Intn(len(stats))])
		if g := groups[qr.Intn(len(groups))]; g != "" {
			fmt.Fprintf(&sb, " group-by=%s", g)
		}
		for _, col := range filterCols {
			if qr.Intn(2) == 0 {
				continue
			}
			vs := vocab[col]
			n := 1 + qr.Intn(2)
			picks := make([]string, n)
			for i := range picks {
				picks[i] = vs[qr.Intn(len(vs))]
			}
			fmt.Fprintf(&sb, " %s=%s", col, strings.Join(picks, ","))
		}
		q, err := ParseQuery(sb.String())
		if err != nil {
			t.Fatalf("%s: %v", sb.String(), err)
		}
		fast, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := s.FullScan(q)
		if err != nil {
			t.Fatal(err)
		}
		if fast.Stats.BlocksPruned > 0 {
			anyPruned = true
		}
		if !rowsEqual(fast, slow) {
			t.Logf("query %q diverged:\nfast %+v\nslow %+v", sb.String(), fast.Rows, slow.Rows)
			return false
		}
		return fast.Stats.BytesRead <= slow.Stats.BytesRead
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if !anyPruned {
		t.Fatal("no query pruned any block; footer statistics are inert")
	}
}

func TestAppendDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, BlockCells: 8})
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]Cell, 20)
	for i := range cells {
		cells[i] = randCell(rng)
		if err := s.Append(cells[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cells { // same keys again, same process
		if err := s.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.DupSkipped != 20 {
		t.Fatalf("DupSkipped = %d, want 20", st.DupSkipped)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process re-appending the same cells dedups against disk.
	s2, err := Open(Config{Dir: dir, BlockCells: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, c := range cells {
		if err := s2.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	if st := s2.Stats(); st.DupSkipped != 20 {
		t.Fatalf("after reopen DupSkipped = %d, want 20", st.DupSkipped)
	}
	all, err := s2.ScanCells()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 20 {
		t.Fatalf("store holds %d cells, want 20", len(all))
	}
}

// cellMultiset renders cells order-independently for multiset comparison.
func cellMultiset(cells []Cell) []string {
	out := make([]string, len(cells))
	for i := range cells {
		out[i] = fmt.Sprintf("%+v", cells[i])
	}
	sort.Strings(out)
	return out
}

func TestCompactionPreservesMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := newTestStore(t, 8)
	// Flush every 5 cells: 20 undersized tail-style blocks, the shape
	// incremental appends leave behind.
	for i := 0; i < 20; i++ {
		fillStore(t, s, rng, 5)
	}
	before, err := s.ScanCells()
	if err != nil {
		t.Fatal(err)
	}
	blocksBefore := s.Blocks()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := s.ScanCells()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cellMultiset(before), cellMultiset(after)) {
		t.Fatal("compaction changed the cell multiset")
	}
	if s.Blocks() >= blocksBefore {
		t.Fatalf("compaction did not reduce block count: %d -> %d", blocksBefore, s.Blocks())
	}
	if st := s.Stats(); st.Compactions == 0 || st.BlocksCompacted == 0 {
		t.Fatalf("compaction counters not advanced: %+v", st)
	}
}

func TestCorruptBlockDroppedAndReconverts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, BlockCells: 10})
	if err != nil {
		t.Fatal(err)
	}
	cells := fillStore(t, s, rng, 30)
	s.Close()

	// Flip the last column-data byte in one block (the byte before the
	// footer is always inside the final column's checked region); the
	// column checksum catches it when the column is materialized.
	names, _ := filepath.Glob(filepath.Join(dir, "*.expb"))
	if len(names) < 2 {
		t.Fatalf("expected multiple partitioned blocks, have %v", names)
	}
	victim := names[len(names)/2]
	img, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	lost := int(binary.LittleEndian.Uint64(img[40:48]))
	footerOff := binary.LittleEndian.Uint64(img[48:56])
	img[footerOff-1] ^= 0xFF
	if err := os.WriteFile(victim, img, 0o644); err != nil {
		t.Fatal(err)
	}

	var warned []string
	s2, err := Open(Config{Dir: dir, BlockCells: 10, Warn: func(f string, a ...any) {
		warned = append(warned, fmt.Sprintf(f, a...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// A full scan materializes every column, so the damaged one is found,
	// the block dropped, and the scan completes on what remains.
	q, _ := ParseQuery("stat=count")
	res, err := s2.FullScan(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CellsMatched != 30-lost {
		t.Fatalf("after corruption scan sees %d cells, want %d", res.Stats.CellsMatched, 30-lost)
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
	}
	if len(warned) == 0 || !strings.Contains(warned[0], victim) {
		t.Fatalf("warning does not point at the corrupt file: %q", warned)
	}
	if _, err := os.Stat(victim); !os.IsNotExist(err) {
		t.Fatalf("corrupt block %s still on disk", victim)
	}

	// The lost cells reconvert: re-appending restores the full matrix.
	for _, c := range cells {
		if err := s2.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	res, err = s2.FullScan(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CellsMatched != 30 {
		t.Fatalf("after re-append query sees %d cells, want 30", res.Stats.CellsMatched)
	}
}

func TestCorruptHeaderRemovedAtOpen(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	dir := t.TempDir()
	s, _ := Open(Config{Dir: dir, BlockCells: 10})
	fillStore(t, s, rng, 10)
	s.Close()
	names, _ := filepath.Glob(filepath.Join(dir, "*.expb"))
	img, _ := os.ReadFile(names[0])
	img[5] ^= 0xFF // version byte inside the CRC'd header prefix
	os.WriteFile(names[0], img, 0o644)
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
	}
	if _, err := os.Stat(names[0]); !os.IsNotExist(err) {
		t.Fatal("corrupt-header block still on disk")
	}
}

func TestForeignBlockSkippedNotDeleted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	s, _ := Open(Config{Dir: dir, BlockCells: 10})
	fillStore(t, s, rng, 20)
	s.Close()
	names, _ := filepath.Glob(filepath.Join(dir, "*.expb"))
	img, _ := os.ReadFile(names[0])
	skipped := int(binary.LittleEndian.Uint64(img[40:48]))
	// Rewrite the header as a future format version with a valid CRC.
	img[4] = byte(FormatVersion + 1)
	crc := frame.Checksum(img[:blockHeaderCRCOff])
	img[64], img[65], img[66], img[67] = byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24)
	os.WriteFile(names[0], img, 0o644)

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Foreign != 1 || st.Corrupt != 0 {
		t.Fatalf("Foreign = %d Corrupt = %d, want 1, 0", st.Foreign, st.Corrupt)
	}
	q, _ := ParseQuery("stat=count")
	res, err := s2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CellsMatched != 20-skipped {
		t.Fatalf("query sees %d cells, want %d (foreign block skipped)", res.Stats.CellsMatched, 20-skipped)
	}
	if _, err := os.Stat(names[0]); err != nil {
		t.Fatal("foreign block was deleted; it must be left in place")
	}
}

func TestCellsReadBack(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := newTestStore(t, 16)
	cells := fillStore(t, s, rng, 64)
	keys := make([]Key, 0, 10)
	want := make(map[Key]Cell, 10)
	for _, i := range []int{0, 7, 13, 22, 31, 40, 49, 55, 60, 63} {
		keys = append(keys, cells[i].Key)
		want[cells[i].Key] = cells[i]
	}
	got, err := s.Cells(keys)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read-back mismatch: got %d cells, want %d", len(got), len(want))
	}
}

// TestPartitionedBlocksArePure pins the writer's partition discipline:
// every flushed block holds exactly one (category, config) pair, which is
// what makes category/config/trace pruning effective.
func TestPartitionedBlocksArePure(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s := newTestStore(t, 8)
	fillStore(t, s, rng, 120)
	for _, ref := range s.snapshot() {
		r, err := s.acquire(ref)
		if err != nil {
			t.Fatal(err)
		}
		cat := r.metas[colIndex["category"]].dict
		cfg := r.metas[colIndex["config"]].dict
		if len(cat) != 1 || len(cfg) != 1 {
			t.Fatalf("block %s mixes partitions: categories %v configs %v", ref.path, cat, cfg)
		}
	}
}

// TestQueryKeySkipAndDedup covers the dup-free scan optimization from both
// sides: a linear store proves its blocks disjoint and skips the key
// column entirely, while crash-leftover and concurrent-writer lineages
// force the key column back on so keep-first dedup stays correct.
func TestQueryKeySkipAndDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := newTestStore(t, 8)
	fillStore(t, s, rng, 60)
	q, _ := ParseQuery("stat=count")
	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// One writer run: lineage proves the blocks disjoint, so the only
	// materialized column is the ipc metric.
	if res.Stats.ColumnsRead != 1 || res.Stats.DupDropped != 0 {
		t.Fatalf("linear store read %d columns (%d dups), want the metric column only",
			res.Stats.ColumnsRead, res.Stats.DupDropped)
	}
	if len(res.Rows) != 1 || res.Rows[0].Count != 60 {
		t.Fatalf("rows %+v, want one row counting 60 cells", res.Rows)
	}

	// Crash-leftover shape: a compaction output (source range covering
	// sequence 0) coexists with its input. The overlap flags the pair, the
	// key column comes back, and the duplicates are dropped.
	dir := t.TempDir()
	cells := []Cell{randCell(rng), randCell(rng)}
	sortCells(cells)
	fresh, err := encodeBlock(cells, blockMeta{runID: 7, baseSeq: 0})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := encodeBlock(cells, blockMeta{runID: 7, baseSeq: 0, hasSrc: true, srcMin: 0, srcMax: 0})
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, blockName(0, 0)), fresh, 0o644)
	os.WriteFile(filepath.Join(dir, blockName(0, 1)), merged, 0o644)
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	res2, err := s2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.DupDropped != 2 {
		t.Fatalf("DupDropped = %d, want 2 (leftover cells deduplicated)", res2.Stats.DupDropped)
	}
	full, err := s2.FullScan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(res2, full) {
		t.Fatalf("pruned rows %+v diverge from full scan %+v", res2.Rows, full.Rows)
	}

	// Concurrent-writer shape: two runs that started from the same view
	// cannot prove each other's blocks disjoint, so the key column is
	// materialized even though no duplicate exists.
	dir2 := t.TempDir()
	a, _ := encodeBlock([]Cell{randCell(rng)}, blockMeta{runID: 21, baseSeq: 0})
	b, _ := encodeBlock([]Cell{randCell(rng)}, blockMeta{runID: 22, baseSeq: 0})
	os.WriteFile(filepath.Join(dir2, blockName(0, 0)), a, 0o644)
	os.WriteFile(filepath.Join(dir2, blockName(1, 0)), b, 0o644)
	s3, err := Open(Config{Dir: dir2})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	res3, err := s3.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Stats.ColumnsRead != 2 || res3.Stats.DupDropped != 0 {
		t.Fatalf("concurrent-writer store read %d columns (%d dups), want key + metric",
			res3.Stats.ColumnsRead, res3.Stats.DupDropped)
	}
}

func TestParseQueryErrors(t *testing.T) {
	bad := []string{
		"metric=trace", // non-numeric metric
		"metric=nope",  // unknown column
		"group-by=ipc", // cannot group by float
		"stat=median",  // unknown stat
		"bogus=1",      // unknown filter column
		"rob",          // not key=value
		"rob=",         // empty value
	}
	for _, src := range bad {
		if _, err := ParseQuery(src); err == nil {
			t.Errorf("ParseQuery(%q) succeeded, want error", src)
		}
	}
	q, err := ParseQuery("category=srv variant=All_imps,No_imp metric=ipc group-by=rob stat=p50,p99")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Filters) != 2 || q.Metric != "ipc" || len(q.GroupBy) != 1 || len(q.Stats) != 2 {
		t.Fatalf("parse: %+v", q)
	}
}

func TestAggregate(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 100}
	cases := map[string]float64{
		"count": 5, "sum": 110, "mean": 22, "min": 1, "max": 100,
		"p50": 3, "p90": 100, "p99": 100,
	}
	for st, want := range cases {
		if got := aggregate(st, vals); got != want {
			t.Errorf("aggregate(%s) = %v, want %v", st, got, want)
		}
	}
}

// TestTruncatedBlockAtEveryOffset cuts one small block short at every
// length in turn. No length may be served or panic: the reopened store
// counts the block corrupt, removes it and misses every one of its cells.
// Appending the cells again then restores them, and no temp file is left.
func TestTruncatedBlockAtEveryOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]Cell, 3)
	keys := make([]Key, len(cells))
	for i := range cells {
		cells[i] = randCell(rng)
		cells[i].Category, cells[i].Config = "srv", "develop" // one partition, so one block
		keys[i] = cells[i].Key
		if err := s.Append(cells[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "*.expb"))
	if len(names) != 1 {
		t.Fatalf("blocks %v, want one", names)
	}
	whole, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	s, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Cells(keys)
	if err != nil || len(want) != len(cells) {
		t.Fatalf("intact block serves %d cells (%v), want %d", len(want), err, len(cells))
	}
	s.Close()
	for n := 0; n < len(whole); n++ {
		if err := os.WriteFile(names[0], whole[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := s.Lookup(keys)
		st := s.Stats()
		if len(got) != 0 || st.LookupMisses != uint64(len(keys)) || st.Corrupt != 1 {
			t.Fatalf("block cut to %d of %d bytes: %d cells served, stats %+v; want none, %d misses and 1 corrupt",
				n, len(whole), len(got), st, len(keys))
		}
		if _, err := os.Stat(names[0]); !os.IsNotExist(err) {
			t.Fatalf("block cut to %d bytes left on disk: %v", n, err)
		}
		s.Close()
	}

	s, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if err := s.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.Cells(keys)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("rewritten block serves %v (%v), want the original cells", got, err)
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "tmp-*")); len(tmp) != 0 {
		t.Fatalf("temp files left: %v", tmp)
	}
}
