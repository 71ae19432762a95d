package resultcache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

type payload struct {
	N    int
	Blob []byte
}

func testCache(t *testing.T, dir string, maxBytes int64) *Cache[payload] {
	t.Helper()
	c, err := Open[payload](Config{Dir: dir, MaxBytes: maxBytes}, GobCodec[payload]{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func keyOf(i int) Key {
	return NewHasher("test").U64(uint64(i)).Sum()
}

func TestGetOrComputeRoundTrip(t *testing.T) {
	c := testCache(t, t.TempDir(), 0)
	want := payload{N: 7, Blob: []byte("hello")}
	got, err := c.GetOrCompute(keyOf(1), func() (payload, error) { return want, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got.N != want.N || string(got.Blob) != string(want.Blob) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	// Second lookup must be a memory hit, not a recompute.
	got2, err := c.GetOrCompute(keyOf(1), func() (payload, error) {
		t.Fatal("recomputed a cached key")
		return payload{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got2.N != want.N {
		t.Fatalf("memory hit returned %+v", got2)
	}
	s := c.Stats()
	if s.Computes != 1 || s.MemHits != 1 || s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// TestSingleFlight: N concurrent goroutines asking for the same key must
// share exactly one computation.
func TestSingleFlight(t *testing.T) {
	c := testCache(t, t.TempDir(), 0)
	const n = 32
	var computes atomic.Int32
	start := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]payload, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = c.GetOrCompute(keyOf(42), func() (payload, error) {
				computes.Add(1)
				<-release // hold the flight open so every goroutine joins it
				return payload{N: 42}, nil
			})
		}(i)
	}
	close(start)
	// Let the leader enter compute and the rest pile up behind the flight;
	// SharedWaits is checked loosely because arrival order is scheduled.
	for c.Stats().Computes == 0 {
	}
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("%d computations for one key, want 1", got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i].N != 42 {
			t.Fatalf("goroutine %d got %+v", i, results[i])
		}
	}
}

// TestComputeErrorNotCached: a failed computation reaches the caller and is
// retried on the next lookup rather than served from cache.
func TestComputeErrorNotCached(t *testing.T) {
	c := testCache(t, t.TempDir(), 0)
	boom := errors.New("boom")
	if _, err := c.GetOrCompute(keyOf(5), func() (payload, error) { return payload{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	got, err := c.GetOrCompute(keyOf(5), func() (payload, error) { return payload{N: 5}, nil })
	if err != nil || got.N != 5 {
		t.Fatalf("retry after error: %+v, %v", got, err)
	}
	if s := c.Stats(); s.Errors != 1 || s.Computes != 2 {
		t.Fatalf("stats %+v", s)
	}
}

// TestCrossReopen: entries written by one Cache instance are served by a
// fresh instance over the same directory — the cross-process path.
func TestCrossReopen(t *testing.T) {
	dir := t.TempDir()
	c1 := testCache(t, dir, 0)
	if _, err := c1.GetOrCompute(keyOf(9), func() (payload, error) { return payload{N: 9}, nil }); err != nil {
		t.Fatal(err)
	}
	c2 := testCache(t, dir, 0)
	got, err := c2.GetOrCompute(keyOf(9), func() (payload, error) {
		t.Fatal("recomputed an entry that is on disk")
		return payload{}, nil
	})
	if err != nil || got.N != 9 {
		t.Fatalf("reopen: %+v, %v", got, err)
	}
	if s := c2.Stats(); s.DiskHits != 1 || s.Computes != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// TestCorruptEntryRecomputed: a corrupted on-disk record must be detected,
// discarded, and recomputed — never decoded into a bogus result.
func TestCorruptEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	c1 := testCache(t, dir, 0)
	want := payload{N: 3, Blob: []byte("precious bits")}
	if _, err := c1.GetOrCompute(keyOf(3), func() (payload, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	path := c1.EntryPath(keyOf(3))
	// Corrupt one payload byte on disk.
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-8] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := testCache(t, dir, 0)
	recomputed := false
	got, err := c2.GetOrCompute(keyOf(3), func() (payload, error) {
		recomputed = true
		return want, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Fatal("corrupt entry served instead of recomputed")
	}
	if got.N != want.N || string(got.Blob) != string(want.Blob) {
		t.Fatalf("got %+v", got)
	}
	if s := c2.Stats(); s.Corrupt != 1 || s.Computes != 1 {
		t.Fatalf("stats %+v", s)
	}
	// The rewritten entry must be valid again for the next instance.
	c3 := testCache(t, dir, 0)
	if _, err := c3.GetOrCompute(keyOf(3), func() (payload, error) {
		t.Fatal("entry not repaired after recompute")
		return payload{}, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatedAndForeignFiles: truncation, wrong magic, and a record
// stored under the wrong name are all treated as corruption.
func TestTruncatedAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	c1 := testCache(t, dir, 0)
	if _, err := c1.GetOrCompute(keyOf(1), func() (payload, error) { return payload{N: 1}, nil }); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(c1.EntryPath(keyOf(1)))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"truncated": good[:len(good)/2],
		"badmagic":  append([]byte("XXXX"), good[4:]...),
		"empty":     {},
	}
	for name, data := range cases {
		if err := os.WriteFile(c1.EntryPath(keyOf(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c := testCache(t, dir, 0)
		recomputed := false
		if _, err := c.GetOrCompute(keyOf(1), func() (payload, error) {
			recomputed = true
			return payload{N: 1}, nil
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !recomputed {
			t.Fatalf("%s: corrupt entry served", name)
		}
	}
	// A valid record renamed onto another key's path must be rejected by
	// the embedded-key check.
	other := c1.EntryPath(keyOf(2))
	if err := os.MkdirAll(filepath.Dir(other), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(other, good, 0o644); err != nil {
		t.Fatal(err)
	}
	c := testCache(t, dir, 0)
	recomputed := false
	if _, err := c.GetOrCompute(keyOf(2), func() (payload, error) {
		recomputed = true
		return payload{N: 2}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Fatal("record with mismatched embedded key was served")
	}
}

// TestLRUEviction: with a tight size bound, the least-recently-used
// entries are evicted and the footprint stays bounded.
func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	// Size one record to learn the per-entry footprint. The probe value
	// must have the same shape as the real entries (nonzero N — gob omits
	// zero fields, which would undersize the bound).
	probe := testCache(t, t.TempDir(), 0)
	if _, err := probe.GetOrCompute(keyOf(7), mk(7)); err != nil {
		t.Fatal(err)
	}
	per := probe.DiskBytes()
	if per <= 0 {
		t.Fatalf("probe size %d", per)
	}

	c := testCache(t, dir, 3*per)
	for i := 1; i <= 5; i++ {
		if _, err := c.GetOrCompute(keyOf(i), mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.DiskBytes(); got > 3*per {
		t.Fatalf("disk footprint %d exceeds bound %d", got, 3*per)
	}
	if s := c.Stats(); s.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2; stats %+v", s.Evictions, s)
	}
	// A fresh instance sees only the surviving three: 1 and 2 (oldest)
	// evicted, 3..5 resident.
	c2 := testCache(t, dir, 3*per)
	for i := 1; i <= 2; i++ {
		if _, ok := c2.Get(keyOf(i)); ok {
			t.Fatalf("entry %d should have been evicted", i)
		}
	}
	for i := 3; i <= 5; i++ {
		if _, ok := c2.Get(keyOf(i)); !ok {
			t.Fatalf("entry %d should have survived", i)
		}
	}
}

// TestLRUTouchOnHit: a disk hit refreshes an entry's age, changing the
// eviction victim.
func TestLRUTouchOnHit(t *testing.T) {
	dir := t.TempDir()
	probe := testCache(t, t.TempDir(), 0)
	if _, err := probe.GetOrCompute(keyOf(7), mk(7)); err != nil {
		t.Fatal(err)
	}
	per := probe.DiskBytes()

	c := testCache(t, dir, 2*per)
	for i := 1; i <= 2; i++ {
		if _, err := c.GetOrCompute(keyOf(i), mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 1 (disk hit via a fresh instance so it is not a memory hit),
	// then insert 3: the victim must now be 2.
	c2 := testCache(t, dir, 2*per)
	if _, ok := c2.Get(keyOf(1)); !ok {
		t.Fatal("entry 1 missing")
	}
	if _, err := c2.GetOrCompute(keyOf(3), mk(3)); err != nil {
		t.Fatal(err)
	}
	c3 := testCache(t, dir, 2*per)
	if _, ok := c3.Get(keyOf(2)); ok {
		t.Fatal("entry 2 should have been evicted (entry 1 was touched)")
	}
	if _, ok := c3.Get(keyOf(1)); !ok {
		t.Fatal("touched entry 1 was evicted")
	}
}

// TestAtomicWriteCrash: a partial temp file — what a crash mid-write
// leaves behind — is never visible as an entry and is cleaned up by the
// next Open.
func TestAtomicWriteCrash(t *testing.T) {
	dir := t.TempDir()
	c1 := testCache(t, dir, 0)
	if _, err := c1.GetOrCompute(keyOf(1), mk(1)); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: a half-written temp file next to a real entry.
	shard := filepath.Dir(c1.EntryPath(keyOf(1)))
	tmpPath := filepath.Join(shard, "tmp-1234crash")
	if err := os.WriteFile(tmpPath, []byte("partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := testCache(t, dir, 0)
	if _, err := os.Stat(tmpPath); !os.IsNotExist(err) {
		t.Fatalf("stale temp file not cleaned up at Open: %v", err)
	}
	// The real entry still loads; the temp file never surfaced as one.
	if _, ok := c2.Get(keyOf(1)); !ok {
		t.Fatal("valid entry lost")
	}
	if s := c2.Stats(); s.Corrupt != 0 {
		t.Fatalf("temp file misread as a corrupt entry: %+v", s)
	}
	// And a successful store leaves no temp files behind.
	if _, err := c2.GetOrCompute(keyOf(2), mk(2)); err != nil {
		t.Fatal(err)
	}
	var leftovers []string
	filepath.WalkDir(c2.Dir(), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), "tmp-") {
			leftovers = append(leftovers, path)
		}
		return nil
	})
	if len(leftovers) != 0 {
		t.Fatalf("temp files left after store: %v", leftovers)
	}
}

// TestConcurrentDistinctKeys: hammer the cache with overlapping keys under
// race detection.
func TestConcurrentDistinctKeys(t *testing.T) {
	c := testCache(t, t.TempDir(), 0)
	const goroutines, keys = 8, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				got, err := c.GetOrCompute(keyOf(i), mk(i))
				if err != nil {
					t.Error(err)
					return
				}
				if got.N != i {
					t.Errorf("key %d resolved to %+v", i, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s := c.Stats(); s.Computes != keys {
		t.Fatalf("computes = %d, want %d (stats %+v)", s.Computes, keys, s)
	}
}

// mk returns a compute function producing a deterministic payload for i.
func mk(i int) func() (payload, error) {
	return func() (payload, error) {
		return payload{N: i, Blob: []byte(fmt.Sprintf("payload-%d-%s", i, strings.Repeat("x", 64)))}, nil
	}
}

// TestHitSplitInvariant pins the diagnosable-warmth contract the rebase
// stderr summary and -bench-json rely on: Hits always equals
// MemHits + DiskHits, a same-process re-read is a memory hit, and a fresh
// instance over the same store (a second process) serves the same key from
// disk — after which the now-promoted entry reads from memory again.
func TestHitSplitInvariant(t *testing.T) {
	dir := t.TempDir()
	check := func(c *Cache[payload], wantMem, wantDisk uint64) {
		t.Helper()
		s := c.Stats()
		if s.Hits != s.MemHits+s.DiskHits {
			t.Fatalf("hit split broken: %d hits != %d mem + %d disk", s.Hits, s.MemHits, s.DiskHits)
		}
		if s.MemHits != wantMem || s.DiskHits != wantDisk {
			t.Fatalf("stats %+v, want %d mem hits and %d disk hits", s, wantMem, wantDisk)
		}
	}
	get := func(c *Cache[payload]) {
		t.Helper()
		if _, err := c.GetOrCompute(keyOf(9), func() (payload, error) {
			return payload{N: 9}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	c1 := testCache(t, dir, 0)
	get(c1) // miss + compute
	check(c1, 0, 0)
	get(c1) // in-process re-read
	check(c1, 1, 0)

	c2 := testCache(t, dir, 0) // second process: memory layer is empty
	get(c2)
	check(c2, 0, 1)
	get(c2) // the disk hit promoted the entry into memory
	check(c2, 1, 1)
}

// TestLookupThenComputeCountsOnce: resolving keys in two phases — Lookup
// for every key, then GetOrCompute for the misses — counts each key once:
// a missed and computed key as one miss and one compute, a found key as
// one hit.
func TestLookupThenComputeCountsOnce(t *testing.T) {
	dir := t.TempDir()
	c := testCache(t, dir, 0)
	for i := 0; i < 3; i++ {
		if _, ok := c.Lookup(keyOf(i)); ok {
			t.Fatalf("key %d found in an empty cache", i)
		}
		if _, err := c.GetOrCompute(keyOf(i), func() (payload, error) { return payload{N: i}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Misses != 3 || s.Computes != 3 || s.Hits != 0 {
		t.Fatalf("cold stats %+v, want 3 misses and 3 computes", s)
	}

	warm := testCache(t, dir, 0)
	for i := 0; i < 3; i++ {
		if v, ok := warm.Lookup(keyOf(i)); !ok || v.N != i {
			t.Fatalf("key %d: got %+v, %v", i, v, ok)
		}
	}
	if s := warm.Stats(); s.Hits != 3 || s.DiskHits != 3 || s.Misses != 0 || s.Computes != 0 {
		t.Fatalf("warm stats %+v, want 3 disk hits", s)
	}
}
