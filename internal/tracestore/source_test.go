package tracestore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"tracerebase/internal/champtrace"
)

// drain reads src to its end.
func drain(t *testing.T, src champtrace.Source) []champtrace.Instruction {
	t.Helper()
	var out []champtrace.Instruction
	for {
		in, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, *in)
	}
}

// mappingRSS returns the resident bytes of the mapping that starts at
// data[0], from the mapping's Rss line in /proc/self/smaps.
func mappingRSS(t *testing.T, data []byte) int64 {
	t.Helper()
	smaps, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		t.Fatalf("read smaps: %v", err)
	}
	start := uint64(uintptr(unsafe.Pointer(&data[0])))
	found := false
	for _, line := range strings.Split(string(smaps), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if lo, _, ok := strings.Cut(fields[0], "-"); ok {
			addr, err := strconv.ParseUint(lo, 16, 64)
			found = err == nil && addr == start
			continue
		}
		if found && fields[0] == "Rss:" && len(fields) == 3 {
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("smaps Rss line %q: %v", line, err)
			}
			return kb << 10
		}
	}
	t.Fatalf("no smaps entry for the mapping at %#x", start)
	return 0
}

// TestSourceDropsReadPages pins the drop-behind window: an 8 MB slab keeps
// at most 3 MB of its mapping resident after loadDisk's CRC pass and at
// every dropStep of a Source's progress through it.
func TestSourceDropsReadPages(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("dropPages is a no-op off Linux")
	}
	const n = 8 << 20 / recordSize
	const bound = 3 << 20
	s := mustOpen(t, Config{Dir: t.TempDir()})
	key := testKey(90)
	if err := s.Write(key, streamerFor(n, 4096, 90, 0, nil)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	sl, ok := s.Get(key)
	if !ok {
		t.Fatal("written slab not loaded")
	}
	defer sl.Release()
	if rss := mappingRSS(t, sl.data); rss > bound {
		t.Fatalf("%d bytes resident after the CRC pass, want <= %d", rss, bound)
	}
	src := sl.Source()
	for i := 0; i < n; i++ {
		in, err := src.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if *in != testRecord(i, 90) {
			t.Fatalf("record %d differs", i)
		}
		if (i+1)%dropRecords == 0 {
			if rss := mappingRSS(t, sl.data); rss > bound {
				t.Fatalf("%d bytes resident after %d records, want <= %d", rss, i+1, bound)
			}
		}
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("after the last record: %v, want EOF", err)
	}
}

// TestSourcesInterleave reads one held slab through two Sources at
// different offsets, one record each in turn, and removes the slab file
// midway: each reader's drops fault the other's pages back in from the
// page cache, so both must return exactly the records written.
func TestSourcesInterleave(t *testing.T) {
	const n = 3*dropRecords + 100
	want := testRecords(n, 91)
	s := mustOpen(t, Config{Dir: t.TempDir()})
	key := testKey(91)
	if err := s.Write(key, streamerFor(n, 4096, 91, 0, nil)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	sl, ok := s.Get(key)
	if !ok {
		t.Fatal("written slab not loaded")
	}
	defer sl.Release()
	a, b := sl.Source(), sl.Source()
	var gotA, gotB []champtrace.Instruction
	next := func(src champtrace.Source, got *[]champtrace.Instruction) bool {
		in, err := src.Next()
		if err == io.EOF {
			return false
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		*got = append(*got, *in)
		return true
	}
	for range dropRecords + dropRecords/2 {
		next(a, &gotA)
	}
	for moreA, moreB := true, true; moreA || moreB; {
		if len(gotB) == dropRecords {
			if err := os.Remove(s.EntryPath(key)); err != nil {
				t.Fatalf("remove: %v", err)
			}
		}
		moreA = moreA && next(a, &gotA)
		moreB = moreB && next(b, &gotB)
	}
	if !reflect.DeepEqual(gotA, want) || !reflect.DeepEqual(gotB, want) {
		t.Fatal("interleaved readers returned records other than the ones written")
	}
}

// TestMapFailureIsPlainMiss pins that a slab file that cannot be mapped is
// a miss, not corruption: it is warned with the map error, left on disk,
// and not counted as corrupt or as a miss, so it loads once mapping works
// again.
func TestMapFailureIsPlainMiss(t *testing.T) {
	const n = 300
	var warned []string
	s := mustOpen(t, Config{Dir: t.TempDir(), Warn: func(f string, a ...any) {
		warned = append(warned, fmt.Sprintf(f, a...))
	}})
	key := testKey(93)
	if err := s.Write(key, streamerFor(n, 100, 93, 0, nil)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	seed, ok := s.Get(key) // the first load counts with the Write's miss
	if !ok {
		t.Fatal("written slab not loaded")
	}
	seed.Release()
	errMap := errors.New("injected map failure")
	s.mapHook = func(*os.File, int64) ([]byte, error) { return nil, errMap }
	if sl, ok := s.Get(key); ok {
		sl.Release()
		t.Fatal("Get served a slab it could not map")
	}
	if st := s.Stats(); st.Corrupt != 0 || st.Misses != 1 {
		t.Fatalf("stats after the failed map: %+v, want 0 corrupt and the Write's 1 miss", st)
	}
	if len(warned) != 1 || !strings.Contains(warned[0], errMap.Error()) || strings.Contains(warned[0], "corrupt") {
		t.Fatalf("warnings %q, want one naming the map error", warned)
	}
	if _, err := os.Stat(s.EntryPath(key)); err != nil {
		t.Fatalf("slab file removed after a map failure: %v", err)
	}

	s.mapHook = nil
	sl, ok := s.Get(key)
	if !ok {
		t.Fatal("slab not loaded once mapping works")
	}
	defer sl.Release()
	if !reflect.DeepEqual(drain(t, sl.Source()), testRecords(n, 93)) {
		t.Fatal("records differ after the failed map")
	}
	if st := s.Stats(); st.Corrupt != 0 || st.DiskHits != 1 {
		t.Fatalf("stats: %+v, want 0 corrupt and 1 disk hit", st)
	}
}
