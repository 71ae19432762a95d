package tracestore_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tracerebase/internal/experiments"
	"tracerebase/internal/synth"
	"tracerebase/internal/tracestore"
)

// sweepRun runs a sweep or a co-schedule over the given slab store (nil
// runs it store-off) and returns its results.
type sweepRun func(t *testing.T, slabs *tracestore.Store) any

// failureRuns returns the single-core sweep and the two-core co-schedule
// the write-failure tests run, and the slab count of each. 2000 instructions
// convert to at most 4000 records, one core.EmitBatch, so every slab file
// is written as the placeholder header page (write 0), one record batch
// (1), the meta (2) and the footer (3), then the header at offset 0.
func failureRuns() (sweep, multi sweepRun, slabs int) {
	profiles := []synth.Profile{
		synth.PublicProfile(synth.ComputeInt, 2),
		synth.PublicProfile(synth.Crypto, 1),
	}
	cfg := experiments.SweepConfig{Instructions: 2000, Warmup: 500, Parallelism: 2}
	cfg.Variants = append(cfg.Variants, experiments.Variants()[:3]...)
	sweep = func(t *testing.T, slabs *tracestore.Store) any {
		c := cfg
		c.Slabs = slabs
		res, err := experiments.RunSweep(profiles, c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	multi = func(t *testing.T, slabs *tracestore.Store) any {
		c := cfg
		c.Cores, c.Slabs = len(profiles), slabs
		res, err := experiments.RunMultiSweep("pair", profiles, c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	return sweep, multi, len(profiles) * len(cfg.Variants)
}

// noTempFiles fails t if a tmp-* file is left under dir.
func noTempFiles(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasPrefix(d.Name(), "tmp-") {
			t.Errorf("temp file left behind: %s", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSweepSlabWriteFailure fails one slab write of a sweep's conversion
// pass at each step of the write in turn, and once in a co-schedule's.
// The class's first cell finds no slab and writes it again, so the output
// equals the store-off output, with one write error, one warning, one
// extra conversion and no temp file left behind.
func TestSweepSlabWriteFailure(t *testing.T) {
	sweep, multi, slabs := failureRuns()
	runs := map[bool]sweepRun{false: sweep, true: multi}
	want := map[bool]any{false: sweep(t, nil), true: multi(t, nil)}
	const rename = -2
	cases := []struct {
		name  string
		fail  int // the write to fail (see failureRuns); -1 the header, rename the rename
		multi bool
	}{
		{"placeholder header", 0, false},
		{"record batch", 1, false},
		{"meta", 2, false},
		{"footer", 3, false},
		{"header", -1, false},
		{"rename", rename, false},
		{"co-schedule record batch", 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var mu sync.Mutex
			var warned []string
			var blocker string
			s, err := tracestore.Open(tracestore.Config{Dir: dir, Warn: func(format string, args ...any) {
				mu.Lock()
				defer mu.Unlock()
				warned = append(warned, fmt.Sprintf(format, args...))
				// The failed rename is warned before the class writes its
				// slab again: clear the way for that write.
				if blocker != "" {
					os.RemoveAll(blocker)
					blocker = ""
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
			var created atomic.Int32
			tracestore.SetWrapTemp(s, func(f tracestore.TempFile) tracestore.TempFile {
				switch {
				case created.Add(1) != 2:
					return f
				case tc.fail == rename:
					return tracestore.BlockingTemp(s, f, func(path string) {
						mu.Lock()
						blocker = path
						mu.Unlock()
					})
				default:
					return tracestore.FailingTemp(f, tc.fail)
				}
			})
			if got := runs[tc.multi](t, s); !reflect.DeepEqual(got, want[tc.multi]) {
				t.Fatal("run with a failed slab write differs from the store-off run")
			}
			if st := s.Stats(); st.WriteErrors != 1 || len(warned) != 1 || st.Converts != uint64(slabs+1) {
				t.Fatalf("stats %+v and warnings %q, want 1 write error, 1 warning and 1 reconversion", st, warned)
			}
			noTempFiles(t, dir)
		})
	}
}

// TestSweepSlabStoreUnwritable: when every slab write fails, each class
// writes its slab twice — in the pass and again at its first cell — and
// then converts into memory, as a store-off run does; the output is the
// store-off output and nothing is left on disk.
func TestSweepSlabStoreUnwritable(t *testing.T) {
	sweep, _, slabs := failureRuns()
	want := sweep(t, nil)
	dir := t.TempDir()
	var warnings atomic.Int32
	s, err := tracestore.Open(tracestore.Config{Dir: dir, Warn: func(string, ...any) { warnings.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	tracestore.SetWrapTemp(s, func(f tracestore.TempFile) tracestore.TempFile {
		return tracestore.FailingTemp(f, 1)
	})
	if got := sweep(t, s); !reflect.DeepEqual(got, want) {
		t.Fatal("sweep over an unwritable store differs from the store-off sweep")
	}
	if st := s.Stats(); st.WriteErrors != uint64(2*slabs) || st.Hits != 0 || st.BytesWritten != 0 || warnings.Load() != int32(2*slabs) {
		t.Fatalf("stats %+v and %d warnings, want %d write errors and warnings, no hit and nothing written",
			st, warnings.Load(), 2*slabs)
	}
	noTempFiles(t, dir)
}

// TestSweepSlabPathIsDirectory: a non-empty directory where one slab would
// be published is a plain miss, not a corrupt slab. The store never
// indexes or drops it, each write of that slab fails at the rename, and
// the warnings name its path; the output is the store-off output and no
// temp file is left.
func TestSweepSlabPathIsDirectory(t *testing.T) {
	sweep, _, _ := failureRuns()
	want := sweep(t, nil)

	// A first store shows where the sweep's slabs live.
	probe := t.TempDir()
	s0, err := tracestore.Open(tracestore.Config{Dir: probe})
	if err != nil {
		t.Fatal(err)
	}
	sweep(t, s0)
	slabs, _ := filepath.Glob(filepath.Join(probe, "*", "*", "*.slab"))
	if len(slabs) == 0 {
		t.Fatal("the sweep wrote no slab")
	}
	rel, _ := filepath.Rel(probe, slabs[0])

	dir := t.TempDir()
	path := filepath.Join(dir, rel)
	if err := os.MkdirAll(filepath.Join(path, "inside"), 0o755); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var warned []string
	s, err := tracestore.Open(tracestore.Config{Dir: dir, Warn: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		warned = append(warned, fmt.Sprintf(format, args...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := sweep(t, s); !reflect.DeepEqual(got, want) {
		t.Fatal("sweep with a directory at a slab's path differs from the store-off sweep")
	}
	st := s.Stats()
	if st.Corrupt != 0 || st.WriteErrors == 0 {
		t.Fatalf("stats %+v, want no corrupt slab and the blocked writes counted", st)
	}
	writeWarnings := 0
	for _, w := range warned {
		if !strings.Contains(w, path) {
			t.Errorf("warning %q does not name %s", w, path)
		}
		if strings.Contains(w, "slab write failed") {
			writeWarnings++
		}
	}
	if writeWarnings != int(st.WriteErrors) || len(warned) != writeWarnings+1 {
		t.Errorf("warnings %q, want one per write error (%d) and one for the directory", warned, st.WriteErrors)
	}
	if info, err := os.Stat(path); err != nil || !info.IsDir() {
		t.Errorf("the directory at %s was removed: %v", path, err)
	}
	noTempFiles(t, dir)
}
