package expstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tracerebase/internal/resultcache"
)

// randCell fabricates a cell with identity fields drawn from small
// vocabularies (so filters and groups match several cells) and counters
// drawn wide (so uvarints of every length are encoded).
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
		img := EncodeBlock(cells)
		got, err := DecodeBlock(img)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(got, cells) {
			t.Fatalf("n=%d: cells did not round-trip", n)
		}
		if again := EncodeBlock(got); !bytes.Equal(again, img) {
			t.Fatalf("n=%d: decoded block re-encodes to other bytes", n)
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
	got, err := DecodeBlock(EncodeBlock([]Cell{c}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], c) {
		t.Fatalf("schema does not cover all Stats fields:\n got %+v\nwant %+v", got[0], c)
	}
}

func newTestStore(t *testing.T, blockCells int) *Store {
	t.Helper()
	s, err := Open(Config{Dir: t.TempDir(), BlockCells: blockCells})
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

// TestCompactionPreservesMultiset flushes twenty undersized blocks, the
// shape incremental appends leave behind. Flushes merge them as they reach
// compactTrigger, and the block files on disk then hold every appended
// cell exactly once, in fewer blocks.
func TestCompactionPreservesMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, BlockCells: 8})
	if err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for i := 0; i < 20; i++ {
		cells = append(cells, fillStore(t, s, rng, 5)...)
	}
	st := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Compactions == 0 || st.BlocksCompacted == 0 {
		t.Fatalf("compaction counters not advanced: %+v", st)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "*.expb"))
	if len(names) >= 20 {
		t.Fatalf("compaction did not reduce block count: %d blocks for 20 flushes", len(names))
	}
	var onDisk []Cell
	for _, name := range names {
		img, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBlock(img)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		onDisk = append(onDisk, got...)
	}
	if !reflect.DeepEqual(cellMultiset(onDisk), cellMultiset(cells)) {
		t.Fatalf("blocks on disk hold %d cells, not the %d appended", len(onDisk), len(cells))
	}
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	all, err := s2.ScanCells()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cellMultiset(all), cellMultiset(cells)) {
		t.Fatal("reopened store serves another cell multiset")
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

	// Flip the last row byte in one block; the frame checksum catches it
	// when the row set is loaded.
	names, _ := filepath.Glob(filepath.Join(dir, "*.expb"))
	if len(names) < 2 {
		t.Fatalf("expected several blocks, have %v", names)
	}
	victim := names[len(names)/2]
	img, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	held, err := DecodeBlock(img)
	if err != nil {
		t.Fatal(err)
	}
	lost := len(held)
	img[len(img)-5] ^= 0xFF
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
	// The load finds the damage, drops the block, and the query answers
	// from what remains.
	q, _ := ParseQuery("stat=count")
	res, err := s2.Query(q)
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
	res, err = s2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CellsMatched != 30 {
		t.Fatalf("after re-append query sees %d cells, want 30", res.Stats.CellsMatched)
	}
}

// TestCorruptHeaderRemovedAtOpen damages a block's frame header. Open
// reads no block data, so the block is found, counted and removed by the
// first read.
func TestCorruptHeaderRemovedAtOpen(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	dir := t.TempDir()
	s, _ := Open(Config{Dir: dir, BlockCells: 10})
	cells := fillStore(t, s, rng, 10)
	s.Close()
	names, _ := filepath.Glob(filepath.Join(dir, "*.expb"))
	img, _ := os.ReadFile(names[0])
	img[40] ^= 0xFF // the payload length, after magic, version and schema key
	os.WriteFile(names[0], img, 0o644)
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := os.Stat(names[0]); err != nil {
		t.Fatalf("Open touched the block: %v", err)
	}
	if got, _ := s2.Cells([]Key{cells[0].Key}); len(got) != 0 {
		t.Fatal("a cell of the corrupt block was served")
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
	}
	if _, err := os.Stat(names[0]); !os.IsNotExist(err) {
		t.Fatal("corrupt-header block still on disk")
	}
}

// TestForeignBlockSkippedNotDeleted opens a store beside two foreign
// blocks: one of a later format version and the checked-in
// testdata/v1-block.bin, a block of the v1 columnar format. Neither is
// served or deleted.
func TestForeignBlockSkippedNotDeleted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	s, _ := Open(Config{Dir: dir, BlockCells: 10})
	fillStore(t, s, rng, 20)
	s.Close()
	names, _ := filepath.Glob(filepath.Join(dir, "*.expb"))
	img, _ := os.ReadFile(names[0])
	held, err := DecodeBlock(img)
	if err != nil {
		t.Fatal(err)
	}
	img[4] = byte(FormatVersion + 1)
	os.WriteFile(names[0], img, 0o644)
	v1, err := os.ReadFile(filepath.Join("testdata", "v1-block.bin"))
	if err != nil {
		t.Fatal(err)
	}
	v1Path := filepath.Join(dir, blockName(99, 0))
	os.WriteFile(v1Path, v1, 0o644)

	var warned []string
	s2, err := Open(Config{Dir: dir, Warn: func(f string, a ...any) { warned = append(warned, fmt.Sprintf(f, a...)) }})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	q, _ := ParseQuery("stat=count")
	res, err := s2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Foreign != 2 || st.Corrupt != 0 {
		t.Fatalf("Foreign = %d Corrupt = %d, want 2, 0", st.Foreign, st.Corrupt)
	}
	if res.Stats.CellsMatched != 20-len(held) {
		t.Fatalf("query sees %d cells, want %d (foreign blocks skipped)", res.Stats.CellsMatched, 20-len(held))
	}
	var v1Keys []Key
	for _, c := range goldenCells()[:3] {
		v1Keys = append(v1Keys, c.Key)
	}
	if got, _ := s2.Cells(v1Keys); len(got) != 0 {
		t.Fatalf("%d cells of the v1 block served", len(got))
	}
	for _, p := range []string{names[0], v1Path} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("foreign block %s was deleted; it must be left in place", p)
		}
		if !strings.Contains(strings.Join(warned, "\n"), p) {
			t.Fatalf("no warning names foreign block %s: %q", p, warned)
		}
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

// TestQueryKeySkipAndDedup puts a compaction leftover beside its input,
// the shape a crash between publishing a merged block and removing its
// inputs leaves: both hold the same cells. The row set counts each key
// once.
func TestQueryKeySkipAndDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	cells := []Cell{randCell(rng), randCell(rng)}
	img := EncodeBlock(cells)
	os.WriteFile(filepath.Join(dir, blockName(0, 0)), img, 0o644)
	os.WriteFile(filepath.Join(dir, blockName(0, 1)), img, 0o644)
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	q, _ := ParseQuery("stat=count")
	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Count != 2 || res.Stats.CellsScanned != 2 {
		t.Fatalf("rows %+v (%d cells scanned), want one row counting 2 cells", res.Rows, res.Stats.CellsScanned)
	}
	if res.Stats.BytesRead != 2*int64(len(img)) {
		t.Fatalf("first query read %d bytes, want both blocks, %d", res.Stats.BytesRead, 2*len(img))
	}
	if res, _ = s.Query(q); res.Stats.BytesRead != 0 {
		t.Fatalf("second query read %d bytes, want 0", res.Stats.BytesRead)
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
	// A reserved key given twice, or a name repeated in a list, is an
	// error naming the token.
	for src, tok := range map[string]string{
		"metric=ipc metric=cycles stat=count": "metric=cycles",
		"group-by=category group-by=variant":  "group-by=variant",
		"stat=mean stat=max":                  "stat=max",
		"group-by=category,category":          "group-by=category,category",
		"stat=mean,mean":                      "stat=mean,mean",
		"group-by=rob,variant,rob stat=count": "group-by=rob,variant,rob",
	} {
		_, err := ParseQuery(src)
		if err == nil || !strings.Contains(err.Error(), tok) {
			t.Errorf("ParseQuery(%q) = %v, want an error naming %q", src, err, tok)
		}
	}
	// Repeated filters on one column all hold.
	s := newTestStore(t, 16)
	for i, cat := range []string{"srv", "srv", "crypto"} {
		c := randCell(rand.New(rand.NewSource(int64(i))))
		c.Category = cat
		if err := s.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	q, err := ParseQuery("category=srv,crypto category=crypto stat=count")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := s.Query(q); err != nil || len(res.Rows) != 1 || res.Rows[0].Count != 1 {
		t.Fatalf("two filters on category: %v %+v, want one crypto cell", err, res)
	}
	q, err = ParseQuery("category=srv variant=All_imps,No_imp metric=ipc group-by=rob stat=p50,p99")
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
