package tracestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/frame"
	"tracerebase/internal/resultcache"
)

func testKey(n uint64) Key {
	return resultcache.NewHasher("tracestore/test").U64(n).Sum()
}

// testRecords builds n distinguishable instruction records.
func testRecords(n int, salt uint64) []champtrace.Instruction {
	recs := make([]champtrace.Instruction, n)
	for i := range recs {
		recs[i] = testRecord(i, salt)
	}
	return recs
}

// testRecord is record i of testRecords(_, salt).
func testRecord(i int, salt uint64) champtrace.Instruction {
	return champtrace.Instruction{
		IP:       0x400000 + uint64(i)*4 + salt,
		IsBranch: i%7 == 0,
		Taken:    i%14 == 0,
		SrcRegs:  [champtrace.NumSrcRegs]uint8{1, 2},
		SrcMem:   [champtrace.NumSrcMem]uint64{uint64(i) * 64},
	}
}

// streamerFor emits testRecords(n, salt) in batches of batch records from
// one reused buffer, as core.ConvertEmit does. It fails with fail, when
// set, after emitting failAfter batches.
func streamerFor(n, batch int, salt uint64, failAfter int, fail error) StreamFunc {
	return func(emit func([]champtrace.Instruction) error) (core.Stats, error) {
		buf := make([]champtrace.Instruction, 0, batch)
		emitted := 0
		for i := 0; i < n; i++ {
			buf = append(buf, testRecord(i, salt))
			if len(buf) == batch || i == n-1 {
				if fail != nil && emitted == failAfter {
					return core.Stats{}, fail
				}
				if err := emit(buf); err != nil {
					return core.Stats{}, err
				}
				emitted++
				buf = buf[:0]
			}
		}
		return testConv(n), nil
	}
}

func testConv(n int) core.Stats {
	return core.Stats{In: uint64(n), Out: uint64(n), CondBranches: uint64(n / 7)}
}

func converterFor(n int, salt uint64, calls *atomic.Int64) ConvertFunc {
	return func(scratch []champtrace.Instruction) ([]champtrace.Instruction, core.Stats, error) {
		if calls != nil {
			calls.Add(1)
		}
		return append(scratch[:0], testRecords(n, salt)...), testConv(n), nil
	}
}

func mustOpen(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestConvertPersistReload(t *testing.T) {
	dir := t.TempDir()
	key := testKey(1)
	want := testRecords(500, 9)

	s := mustOpen(t, Config{Dir: dir})
	sl, err := s.GetOrConvert(key, converterFor(500, 9, nil))
	if err != nil {
		t.Fatalf("GetOrConvert: %v", err)
	}
	if !reflect.DeepEqual(sl.Records(), want) {
		t.Fatalf("converted records differ")
	}
	if sl.Conv() != testConv(500) {
		t.Fatalf("conv stats differ: %+v", sl.Conv())
	}
	// The served slab is the file mapping: that is the zero-copy contract.
	if sl.data == nil {
		t.Fatalf("slab not served from the written file")
	}
	sl.Release()
	st := s.Stats()
	if st.Misses != 1 || st.Converts != 1 || st.BytesWritten == 0 {
		t.Fatalf("cold stats: %+v", st)
	}

	// Second lookup in-process: the last Release unmapped the slab, so it
	// is a disk hit, and no conversion.
	sl2, err := s.GetOrConvert(key, converterFor(500, 777, nil))
	if err != nil {
		t.Fatalf("warm GetOrConvert: %v", err)
	}
	if !reflect.DeepEqual(sl2.Records(), want) {
		t.Fatalf("re-read records differ")
	}
	if st := s.Stats(); st.DiskHits != 1 || st.MemHits != 0 || st.Converts != 1 {
		t.Fatalf("re-read stats: %+v", st)
	}
	// While that reference is held, another lookup shares its mapping.
	sl2b, ok := s.Get(key)
	if !ok || sl2b != sl2 {
		t.Fatalf("held slab not shared (ok=%v)", ok)
	}
	sl2b.Release()
	sl2.Release()
	if st := s.Stats(); st.MemHits != 1 || st.DiskHits != 1 {
		t.Fatalf("shared-mapping stats: %+v", st)
	}
	s.Close()

	// Fresh store over the same dir: disk hit, byte-identical records and
	// identical converter stats — the persisted slab fully replaces the
	// conversion.
	s2 := mustOpen(t, Config{Dir: dir})
	var calls atomic.Int64
	sl3, err := s2.GetOrConvert(key, converterFor(500, 777, &calls))
	if err != nil {
		t.Fatalf("reload GetOrConvert: %v", err)
	}
	defer sl3.Release()
	if calls.Load() != 0 {
		t.Fatalf("reload ran the converter")
	}
	if !reflect.DeepEqual(sl3.Records(), want) {
		t.Fatalf("reloaded records differ")
	}
	if sl3.Conv() != testConv(500) {
		t.Fatalf("reloaded conv stats differ: %+v", sl3.Conv())
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.BytesMapped == 0 {
		t.Fatalf("reload stats: %+v", st)
	}
}

func TestEmptySlab(t *testing.T) {
	dir := t.TempDir()
	key := testKey(2)
	s := mustOpen(t, Config{Dir: dir})
	sl, err := s.GetOrConvert(key, converterFor(0, 0, nil))
	if err != nil {
		t.Fatalf("GetOrConvert: %v", err)
	}
	if sl.Len() != 0 {
		t.Fatalf("want empty slab, got %d records", sl.Len())
	}
	sl.Release()
	s.Close()

	s2 := mustOpen(t, Config{Dir: dir})
	sl2, ok := s2.Get(key)
	if !ok || sl2.Len() != 0 {
		t.Fatalf("empty slab did not round-trip (ok=%v)", ok)
	}
	sl2.Release()
}

func TestConvertErrorNotStored(t *testing.T) {
	s := mustOpen(t, Config{Dir: t.TempDir()})
	key := testKey(4)
	boom := fmt.Errorf("converter exploded")
	_, err := s.GetOrConvert(key, func(scratch []champtrace.Instruction) ([]champtrace.Instruction, core.Stats, error) {
		return scratch, core.Stats{}, boom
	})
	if err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Fatalf("want converter error, got %v", err)
	}
	if st := s.Stats(); st.ConvertErrors != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// A later call retries and can succeed.
	sl, err := s.GetOrConvert(key, converterFor(10, 0, nil))
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	sl.Release()
}

// corruptOneByte flips a byte in the record region of the only slab file
// under dir.
func corruptOneByte(t *testing.T, s *Store, at int64) string {
	t.Helper()
	var path string
	filepath.Walk(s.Dir(), func(p string, info os.FileInfo, err error) error {
		if err == nil && strings.HasSuffix(p, ".slab") {
			path = p
		}
		return nil
	})
	if path == "" {
		t.Fatalf("no slab file found under %s", s.Dir())
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open slab: %v", err)
	}
	defer f.Close()
	buf := []byte{0}
	if _, err := f.ReadAt(buf, at); err != nil {
		t.Fatalf("read: %v", err)
	}
	buf[0] ^= 0xff
	if _, err := f.WriteAt(buf, at); err != nil {
		t.Fatalf("write: %v", err)
	}
	return path
}

func TestCorruptSlabReconverted(t *testing.T) {
	dir := t.TempDir()
	key := testKey(5)
	s := mustOpen(t, Config{Dir: dir})
	sl, err := s.GetOrConvert(key, converterFor(300, 1, nil))
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	sl.Release()
	// Flip a byte mid-records: header still parses, data CRC must catch it.
	path := corruptOneByte(t, s, headerSize+100)
	s.Close()

	var warned []string
	s2 := mustOpen(t, Config{Dir: dir, Warn: func(f string, a ...any) {
		warned = append(warned, fmt.Sprintf(f, a...))
	}})
	var calls atomic.Int64
	sl2, err := s2.GetOrConvert(key, converterFor(300, 1, &calls))
	if err != nil {
		t.Fatalf("GetOrConvert over corrupt slab: %v", err)
	}
	defer sl2.Release()
	if calls.Load() != 1 {
		t.Fatalf("corrupt slab was not reconverted (calls=%d)", calls.Load())
	}
	if !reflect.DeepEqual(sl2.Records(), testRecords(300, 1)) {
		t.Fatalf("reconverted records differ")
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if len(warned) == 0 || !strings.Contains(warned[0], "corrupt slab") {
		t.Fatalf("no pointed warning, got %q", warned)
	}
	// The corrupt file was replaced by the reconversion's write.
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("slab file not rewritten: %v", err)
	}
}

func TestTruncatedSlabReconverted(t *testing.T) {
	dir := t.TempDir()
	key := testKey(6)
	s := mustOpen(t, Config{Dir: dir})
	sl, err := s.GetOrConvert(key, converterFor(300, 2, nil))
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	sl.Release()
	path := s.EntryPath(key)
	s.Close()
	if err := os.Truncate(path, headerSize+64); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	s2 := mustOpen(t, Config{Dir: dir})
	var calls atomic.Int64
	sl2, err := s2.GetOrConvert(key, converterFor(300, 2, &calls))
	if err != nil {
		t.Fatalf("GetOrConvert over truncated slab: %v", err)
	}
	sl2.Release()
	if calls.Load() != 1 {
		t.Fatalf("truncated slab was not reconverted")
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestForeignVersionIsMissWithoutDelete(t *testing.T) {
	dir := t.TempDir()
	key := testKey(7)
	s := mustOpen(t, Config{Dir: dir})
	sl, err := s.GetOrConvert(key, converterFor(50, 3, nil))
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	sl.Release()
	s.Close()

	// Patch the header to a future format version with a valid header CRC:
	// intact but unusable — must read as a miss and NOT be deleted until
	// the native writer replaces it.
	entry := ""
	filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && strings.HasSuffix(p, ".slab") {
			entry = p
		}
		return nil
	})
	raw, err := os.ReadFile(entry)
	if err != nil {
		t.Fatalf("read slab: %v", err)
	}
	raw[4] = 0xfe // version 254
	crc := frame.Checksum(raw[:headerCRCOff])
	binary.LittleEndian.PutUint32(raw[headerCRCOff:headerCRCOff+4], crc)
	if err := os.WriteFile(entry, raw, 0o644); err != nil {
		t.Fatalf("rewrite: %v", err)
	}

	s3 := mustOpen(t, Config{Dir: dir})
	var calls atomic.Int64
	sl3, err := s3.GetOrConvert(key, converterFor(50, 3, &calls))
	if err != nil {
		t.Fatalf("GetOrConvert: %v", err)
	}
	sl3.Release()
	if calls.Load() != 1 {
		t.Fatalf("foreign slab was not treated as a miss")
	}
	if st := s3.Stats(); st.Corrupt != 0 {
		t.Fatalf("foreign slab counted corrupt: %+v", st)
	}
	// The native write replaced it: it must now load.
	s3.Close()
	s4 := mustOpen(t, Config{Dir: dir})
	if _, ok := s4.Get(key); !ok {
		t.Fatalf("native rewrite did not replace foreign slab")
	}
}

func TestMmapLifetime(t *testing.T) {
	s := mustOpen(t, Config{Dir: t.TempDir()})
	keyA, keyB := testKey(10), testKey(11)

	slA, err := s.GetOrConvert(keyA, converterFor(200, 10, nil))
	if err != nil {
		t.Fatalf("A: %v", err)
	}
	wantA := append([]champtrace.Instruction(nil), slA.Records()...)

	// Mapping and releasing another key leaves the held A untouched, and
	// frees B's mapping at once.
	slB, err := s.GetOrConvert(keyB, converterFor(200, 11, nil))
	if err != nil {
		t.Fatalf("B: %v", err)
	}
	slB.Release()
	s.mu.Lock()
	aDestroyed, bDestroyed := slA.destroyed, slB.destroyed
	s.mu.Unlock()
	if aDestroyed {
		t.Fatalf("A destroyed while still referenced")
	}
	if !bDestroyed {
		t.Fatalf("B still mapped after its last Release")
	}
	if !reflect.DeepEqual(slA.Records(), wantA) {
		t.Fatalf("A's records changed while another key was mapped and released")
	}

	// The last Release is what frees A.
	slA.Release()
	s.mu.Lock()
	aDestroyed = slA.destroyed
	s.mu.Unlock()
	if !aDestroyed {
		t.Fatalf("A not destroyed after its last Release")
	}
	s.mu.Lock()
	mapped, peak := s.mapped, s.stats.PeakMappedBytes
	s.mu.Unlock()
	if mapped != 0 || peak == 0 {
		t.Fatalf("%d bytes mapped after every Release (peak %d)", mapped, peak)
	}

	// Nothing kept it mapped, so a second Get maps the file again.
	slA2, ok := s.Get(keyA)
	if !ok {
		t.Fatalf("A not served from disk")
	}
	if !reflect.DeepEqual(slA2.Records(), wantA) {
		t.Fatalf("A's records differ after re-mapping")
	}
	slA2.Release()
	if st := s.Stats(); st.DiskHits != 1 || st.MemHits != 0 {
		t.Fatalf("second Get of a released slab: %+v, want one disk hit", st)
	}
}

func TestCloseWithOutstandingRef(t *testing.T) {
	s := mustOpen(t, Config{Dir: t.TempDir()})
	sl, err := s.GetOrConvert(testKey(12), converterFor(100, 12, nil))
	if err != nil {
		t.Fatalf("GetOrConvert: %v", err)
	}
	want := append([]champtrace.Instruction(nil), sl.Records()...)
	s.Close()
	if !reflect.DeepEqual(sl.Records(), want) {
		t.Fatalf("records invalid after Close with outstanding ref")
	}
	sl.Release()
	s.mu.Lock()
	destroyed := sl.destroyed
	s.mu.Unlock()
	if !destroyed {
		t.Fatalf("slab leaked after Close + final Release")
	}
}

func TestDiskLRUEviction(t *testing.T) {
	// Each 100-record slab file is 4096 + 6400 + meta + 8 ≈ 10.6 KB; a
	// 32 KB budget holds two.
	s := mustOpen(t, Config{Dir: t.TempDir(), MaxBytes: 32 << 10})
	for i := uint64(0); i < 4; i++ {
		sl, err := s.GetOrConvert(testKey(20+i), converterFor(100, i, nil))
		if err != nil {
			t.Fatalf("slab %d: %v", i, err)
		}
		sl.Release()
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no disk evictions under MaxBytes: %+v", st)
	}
	if s.DiskBytes() > 32<<10 {
		t.Fatalf("disk footprint %d exceeds budget", s.DiskBytes())
	}
	// The most recent slab must have survived.
	if _, err := os.Stat(s.EntryPath(testKey(23))); err != nil {
		t.Fatalf("newest slab evicted: %v", err)
	}
}

// TestPersistStreamsRecords pins that Write streams its records into the
// slab file: writing a 100k-record slab (6.4 MB of records) from a
// converter that reuses one batch buffer allocates less than an eighth of
// the record bytes, so the store never builds the record array.
func TestPersistStreamsRecords(t *testing.T) {
	const n = 100_000
	s := mustOpen(t, Config{Dir: t.TempDir()})
	if _, err := s.index(); err != nil { // built outside the measurement
		t.Fatal(err)
	}
	convert := streamerFor(n, 4096, 60, 0, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := s.Write(testKey(60), convert)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	sl, ok := s.Get(testKey(60))
	if !ok {
		t.Fatal("written slab not loaded")
	}
	defer sl.Release()
	if sl.Len() != n {
		t.Fatalf("slab has %d records, want %d", sl.Len(), n)
	}
	for i, rec := range sl.Records() {
		if rec != testRecord(i, 60) {
			t.Fatalf("record %d differs", i)
		}
	}
	recordBytes := uint64(n * recordSize)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("persisting %d record bytes allocated %d bytes", recordBytes, alloc)
	if alloc >= recordBytes/8 {
		t.Fatalf("persisting %d record bytes allocated %d bytes; want < %d", recordBytes, alloc, recordBytes/8)
	}
}

var errInjected = errors.New("injected write failure")

// faultyTemp is a tempFile that fails one step of a slab write: the Write
// numbered failWrite (0 is the placeholder header), or the header WriteAt
// when failAt is set. A failing Write writes half its bytes first, as a
// full disk would. beforeAt, when set, runs at the header WriteAt with the
// header's bytes.
type faultyTemp struct {
	tempFile
	writes    int
	failWrite int
	failAt    bool
	beforeAt  func(header []byte)
}

func (f *faultyTemp) Write(p []byte) (int, error) {
	f.writes++
	if f.writes-1 == f.failWrite {
		n, _ := f.tempFile.Write(p[:len(p)/2])
		return n, errInjected
	}
	return f.tempFile.Write(p)
}

func (f *faultyTemp) WriteAt(p []byte, off int64) (int, error) {
	if f.beforeAt != nil {
		f.beforeAt(p)
	}
	if f.failAt {
		return 0, errInjected
	}
	return f.tempFile.WriteAt(p, off)
}

// storeFiles lists the files under dir: temp files, slabs, anything.
func storeFiles(dir string) []string {
	var out []string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			out = append(out, path)
		}
		return nil
	})
	return out
}

// TestWriteFailureEveryStage fails each step of a slab write in turn,
// without relying on file permissions (which root ignores). Every failure
// must return an error, warn once, count one write error and no conversion
// error, and leave no file; the same store must then write the slab, which
// a later Get maps from disk exactly as a clean conversion wrote it.
func TestWriteFailureEveryStage(t *testing.T) {
	const n, batch = 300, 100 // writes: header page, 3 batches, meta, footer
	want := testRecords(n, 70)
	cases := []struct {
		name string
		fail func(t *testing.T, s *Store, key Key) *faultyTemp
	}{
		{"placeholder header", func(*testing.T, *Store, Key) *faultyTemp { return &faultyTemp{failWrite: 0} }},
		{"second record batch", func(*testing.T, *Store, Key) *faultyTemp { return &faultyTemp{failWrite: 2} }},
		{"meta", func(*testing.T, *Store, Key) *faultyTemp { return &faultyTemp{failWrite: 4} }},
		{"footer", func(*testing.T, *Store, Key) *faultyTemp { return &faultyTemp{failWrite: 5} }},
		{"header", func(*testing.T, *Store, Key) *faultyTemp { return &faultyTemp{failWrite: -1, failAt: true} }},
		{"rename", func(t *testing.T, s *Store, key Key) *faultyTemp {
			// A non-empty directory in the slab's place makes the rename
			// fail; it appears once the slab's bytes are written.
			return &faultyTemp{failWrite: -1, beforeAt: func([]byte) {
				if err := os.MkdirAll(filepath.Join(s.EntryPath(key), "blocker"), 0o755); err != nil {
					t.Error(err)
				}
			}}
		}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, Config{Dir: dir})
			key := testKey(70 + uint64(i))
			var warned []string
			s.warn = func(f string, a ...any) { warned = append(warned, fmt.Sprintf(f, a...)) }
			s.wrapTemp = func(f tempFile) tempFile {
				ft := tc.fail(t, s, key)
				ft.tempFile = f
				return ft
			}
			if err := s.Write(key, streamerFor(n, batch, 70, 0, nil)); err == nil {
				t.Fatal("failed write returned no error")
			}
			if st := s.Stats(); st.WriteErrors != 1 || st.Misses != 1 || st.Converts != 1 || st.ConvertErrors != 0 || st.BytesWritten != 0 {
				t.Fatalf("stats: %+v", st)
			}
			if s.Has(key) {
				t.Fatal("failed write left the slab indexed")
			}
			if len(warned) != 1 || !strings.Contains(warned[0], "slab write failed") {
				t.Fatalf("want one write-failure warning, got %q", warned)
			}
			if files := storeFiles(dir); len(files) != 0 {
				t.Fatalf("files left behind: %v", files)
			}

			// Healthy again: the next Write persists the slab, and Get maps
			// it from disk.
			s.wrapTemp = nil
			if err := os.RemoveAll(s.EntryPath(key)); err != nil {
				t.Fatal(err)
			}
			if err := s.Write(key, streamerFor(n, batch, 70, 0, nil)); err != nil {
				t.Fatal(err)
			}
			sl, ok := s.Get(key)
			if !ok {
				t.Fatalf("persisted slab not found")
			}
			defer sl.Release()
			if st := s.Stats(); st.WriteErrors != 1 || st.Misses != 2 || st.Converts != 2 || st.BytesMapped == 0 {
				t.Fatalf("stats after the healthy write: %+v", st)
			}
			if !reflect.DeepEqual(sl.Records(), want) || sl.Conv() != testConv(n) {
				t.Fatalf("persisted slab differs from a clean conversion")
			}
		})
	}
}

// TestConvertErrorAfterEmittedBatches: a conversion that fails after some
// of its records reached the temp file returns its error, counts one
// conversion error, and leaves nothing on disk.
func TestConvertErrorAfterEmittedBatches(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	boom := errors.New("converter exploded mid-trace")
	err := s.Write(testKey(80), streamerFor(300, 100, 80, 2, boom))
	if !errors.Is(err, boom) {
		t.Fatalf("want the conversion error, got %v", err)
	}
	if st := s.Stats(); st.ConvertErrors != 1 || st.WriteErrors != 0 || st.BytesWritten != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if files := storeFiles(dir); len(files) != 0 {
		t.Fatalf("files left behind: %v", files)
	}
}

// TestIndexAtFirstUse pins when the store indexes its directory: Open only
// creates it, so a leftover temp file from an interrupted write survives
// Open and goes at the first Get; DiskBytes, called first on a fresh
// store, indexes the slabs already on disk.
func TestIndexAtFirstUse(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	for i := uint64(0); i < 3; i++ {
		sl, err := s.GetOrConvert(testKey(100+i), converterFor(200+int(i), i, nil))
		if err != nil {
			t.Fatal(err)
		}
		sl.Release()
	}
	var footprint int64
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(d.Name(), ".slab") {
			info, _ := d.Info()
			footprint += info.Size()
		}
		return nil
	})
	if footprint == 0 {
		t.Fatal("no slab files written")
	}
	tmp := filepath.Join(filepath.Dir(s.EntryPath(testKey(100))), "tmp-interrupted")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, Config{Dir: dir})
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("Open indexed the store: the temp file is gone (%v)", err)
	}
	sl, ok := s2.Get(testKey(101))
	if !ok {
		t.Fatal("Get missed a slab on disk")
	}
	sl.Release()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file survived the first Get (stat err %v)", err)
	}

	s3 := mustOpen(t, Config{Dir: dir})
	if got := s3.DiskBytes(); got != footprint {
		t.Fatalf("DiskBytes after Open = %d, want the on-disk footprint %d", got, footprint)
	}
}

// TestWriteThenLoad: Write persists a slab without mapping it and counts
// one miss and one conversion; the first load counts with that miss, and
// only later loads are hits. A failed Write warns, counts a write error
// and leaves no file, and the next Write converts the slab again.
func TestWriteThenLoad(t *testing.T) {
	const n, batch = 300, 100
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	key := testKey(90)
	if s.Has(key) {
		t.Fatal("empty store has the slab")
	}
	if err := s.Write(key, streamerFor(n, batch, 90, 0, nil)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Misses != 1 || st.Converts != 1 || st.BytesWritten == 0 || st.BytesMapped != 0 || st.PeakMappedBytes != 0 {
		t.Fatalf("stats after Write: %+v", st)
	}
	if !s.Has(key) {
		t.Fatal("written slab is not indexed")
	}
	sl, ok := s.Get(key)
	if !ok {
		t.Fatal("written slab not loaded")
	}
	if !reflect.DeepEqual(sl.Records(), testRecords(n, 90)) || sl.Conv() != testConv(n) {
		t.Fatal("written slab differs from its conversion")
	}
	sl.Release()
	if st := s.Stats(); st.Hits != 0 || st.Misses != 1 || st.BytesMapped == 0 {
		t.Fatalf("first load counted as a hit or a second miss: %+v", st)
	}
	sl, ok = s.Get(key)
	if !ok {
		t.Fatal("written slab not found")
	}
	sl.Release()
	if st := s.Stats(); st.Hits != 1 || st.DiskHits != 1 || st.Misses != 1 {
		t.Fatalf("second load is not a disk hit: %+v", st)
	}

	var warned []string
	s.warn = func(f string, a ...any) { warned = append(warned, fmt.Sprintf(f, a...)) }
	s.wrapTemp = func(f tempFile) tempFile { return &faultyTemp{tempFile: f, failWrite: 2} }
	key = testKey(91)
	if err := s.Write(key, streamerFor(n, batch, 91, 0, nil)); err == nil {
		t.Fatal("failed Write returned no error")
	}
	if st := s.Stats(); st.WriteErrors != 1 || st.Misses != 2 || len(warned) != 1 || s.Has(key) {
		t.Fatalf("failed Write: stats %+v, %d warnings, indexed %v", st, len(warned), s.Has(key))
	}
	s.wrapTemp = nil
	if err := s.Write(key, streamerFor(n, batch, 91, 0, nil)); err != nil {
		t.Fatal(err)
	}
	if sl, ok = s.Get(key); !ok {
		t.Fatal("rewritten slab not loaded")
	}
	sl.Release()
	if st := s.Stats(); st.Converts != 3 || st.Misses != 3 || st.Hits != 1 {
		t.Fatalf("reconversion after the failed Write: %+v", st)
	}
	for _, f := range storeFiles(dir) {
		if strings.HasPrefix(filepath.Base(f), "tmp-") {
			t.Fatalf("temp file left behind: %s", f)
		}
	}
}
