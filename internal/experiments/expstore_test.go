package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"tracerebase/internal/expstore"
	"tracerebase/internal/resultcache"
	"tracerebase/internal/synth"
	"tracerebase/internal/tracestore"
)

// TestSweepExpStoreTransparency is the engine-level transparency check: a
// sweep with the experiment store enabled — cells appended, then results
// read back out of the store — returns exactly what the plain engine
// returns, a warm store dedups every re-offered cell, and the recorded
// cells answer queries.
func TestSweepExpStoreTransparency(t *testing.T) {
	profiles := synth.PublicSuite()[:3]
	base := SweepConfig{Instructions: 6000, Warmup: 2000, Parallelism: 2,
		Variants: figureVariants(VariantNone, VariantAll)}

	plain, err := RunSweep(profiles, base)
	if err != nil {
		t.Fatal(err)
	}

	store, err := expstore.Open(expstore.Config{Dir: t.TempDir(), BlockCells: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	misses := -1
	cfg := base
	cfg.Exp = store
	cfg.ExpMisses = func(n int) { misses = n }
	backed, err := RunSweep(profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if misses != 0 {
		t.Fatalf("store read-back missed %d cells, want 0", misses)
	}
	if !reflect.DeepEqual(plain, backed) {
		t.Fatal("store-backed sweep diverged from the plain engine")
	}
	st := store.Stats()
	if st.Appends != uint64(len(profiles)*2) || st.DupSkipped != 0 {
		t.Fatalf("appends %d dup %d, want %d appends 0 dups", st.Appends, st.DupSkipped, len(profiles)*2)
	}

	// A warm re-run offers every cell again; the store drops them all.
	if _, err := RunSweep(profiles, cfg); err != nil {
		t.Fatal(err)
	}
	st = store.Stats()
	if st.DupSkipped != uint64(len(profiles)*2) {
		t.Fatalf("warm re-run DupSkipped = %d, want %d", st.DupSkipped, len(profiles)*2)
	}

	// The recorded cells are queryable, and the filtered IPC values match
	// the sweep's own results exactly.
	q, err := expstore.ParseQuery("variant=All_imps trace=" + profiles[0].Name + " stat=count,mean")
	if err != nil {
		t.Fatal(err)
	}
	res, err := store.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Count != 1 {
		t.Fatalf("query rows %+v, want one single-cell row", res.Rows)
	}
	if got, want := res.Rows[0].Values[1], plain[0].Results[VariantAll].IPC; got != want {
		t.Fatalf("store IPC %v, sweep IPC %v", got, want)
	}
}

// TestStoreServedTables: with a result cache and an experiment store, a
// repeat run takes every cell of the sweep, Table 2 and Table 3 from the
// store — no generation, no slab-store access, no result-cache lookup,
// nothing offered back — and renders the text and the JSON report
// byte-identically to the run that computed them. Table 3 was never read
// back from the store before this path.
func TestStoreServedTables(t *testing.T) {
	profiles := []synth.Profile{
		synth.PublicProfile(synth.ComputeInt, 2),
		synth.PublicProfile(synth.Crypto, 1),
		synth.PublicProfile(synth.Server, 3),
	}
	suite := synth.IPC1Suite()[:2]
	cfg := testSweepConfig()
	cfg.Variants = figureVariants(VariantNone, VariantBranch, VariantAll)
	cells := uint64(len(profiles)*len(cfg.Variants) + len(suite)*2 + len(suite)*2*(1+len(Table3Prefetchers)))
	dir := t.TempDir()

	type run struct {
		text, json []byte
		exp        expstore.Stats
		cache      resultcache.Stats
		slabs      tracestore.Stats
	}
	do := func() run {
		c := cfg
		c.Cache = openCacheAt(t, filepath.Join(dir, "results"))
		c.Slabs = testSlabStore(t, filepath.Join(dir, "slabs"))
		store, err := expstore.Open(expstore.Config{Dir: filepath.Join(dir, "exp")})
		if err != nil {
			t.Fatal(err)
		}
		c.Exp = store
		sweep, err := RunSweep(profiles, c)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := Table2(c, suite)
		if err != nil {
			t.Fatal(err)
		}
		t3, err := Table3(c, suite)
		if err != nil {
			t.Fatal(err)
		}
		var text, js bytes.Buffer
		RenderFig1(&text, Fig1(sweep))
		RenderTable2(&text, t2)
		RenderTable3(&text, t3)
		rep := NewJSONReport(c)
		rep.FillFigures(sweep)
		rep.Table2, rep.Table3 = &t2, &t3
		if err := rep.Write(&js); err != nil {
			t.Fatal(err)
		}
		// Close flushes Table 3's cells for the next run.
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		return run{text.Bytes(), js.Bytes(), store.Stats(), c.Cache.Stats(), c.Slabs.Stats()}
	}

	cold := do()
	if s := cold.exp; s.LookupHits != 0 || s.LookupMisses != cells || s.CellsWritten != cells {
		t.Fatalf("cold exp-store stats %+v, want %d lookup misses and cells written", s, cells)
	}
	if s := cold.cache; s.Misses != cells || s.Computes != cells {
		t.Fatalf("cold cache stats %+v, want %d misses and computes", s, cells)
	}
	gens := countGenerations(t)
	warm := do()
	if !bytes.Equal(warm.text, cold.text) {
		t.Fatalf("store-served tables differ from computed ones\nwarm:\n%s\ncold:\n%s", warm.text, cold.text)
	}
	if !bytes.Equal(warm.json, cold.json) {
		t.Fatal("store-served JSON report differs from the computed one")
	}
	if n := gens.Load(); n != 0 {
		t.Fatalf("warm run generated %d traces", n)
	}
	if warm.slabs != (tracestore.Stats{}) {
		t.Fatalf("warm run touched the slab store: %+v", warm.slabs)
	}
	if s := warm.cache; s.Hits != 0 || s.Misses != 0 || s.Computes != 0 {
		t.Fatalf("warm cache stats %+v, want no lookup", s)
	}
	if s := warm.exp; s.LookupHits != cells || s.LookupMisses != 0 || s.Appends != 0 || s.BlocksWritten != 0 {
		t.Fatalf("warm exp-store stats %+v, want %d lookup hits and nothing offered or written", s, cells)
	}
}

// TestBlockPublishFaults fails the second block publish of a store-backed
// sweep three ways: ENOSPC from the temp-file write, a short write, and a
// failed link together with a failed rename. Each time the failure is
// counted and warned with the block's path, the sweep renders what the
// store-off run renders, the block's cells are read-back misses and are
// never served, no temp file is left, and a second process re-appends
// exactly those cells.
func TestBlockPublishFaults(t *testing.T) {
	profiles := synth.PublicSuite()[:3]
	base := SweepConfig{Instructions: 6000, Warmup: 2000, Parallelism: 2}
	render := func(res []TraceResult) []byte {
		var buf bytes.Buffer
		RenderFig1(&buf, Fig1(res))
		RenderFig4(&buf, Fig4(res))
		RenderFig5(&buf, Fig5(res))
		return buf.Bytes()
	}
	plain, err := RunSweep(profiles, base)
	if err != nil {
		t.Fatal(err)
	}
	want := render(plain)
	var keys []expstore.Key
	for _, p := range profiles {
		for _, v := range Variants() {
			key, err := base.CellKey(p, v)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, key)
		}
	}
	jobs := uint64(len(keys))

	// sweep runs the store-backed sweep in a fresh store over dir, as a new
	// process would.
	sweep := func(dir string, warn func(string, ...any)) (expstore.Stats, int, int) {
		t.Helper()
		store, err := expstore.Open(expstore.Config{Dir: dir, BlockCells: 4, Warn: warn})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		misses := -1
		cfg := base
		cfg.Exp = store
		cfg.ExpMisses = func(n int) { misses = n }
		res, err := RunSweep(profiles, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := render(res); !bytes.Equal(got, want) {
			t.Fatalf("store-backed sweep renders\n%s\nwant\n%s", got, want)
		}
		served, _ := store.Cells(keys)
		return store.Stats(), misses, len(served)
	}

	orig := expstore.BlockFS
	t.Cleanup(func() { expstore.BlockFS = orig })
	for _, tc := range []struct {
		name string
		// inject replaces BlockFS functions with ones that fail when
		// fail() says so.
		inject func(fail func() bool)
	}{
		{"ENOSPC", func(fail func() bool) {
			expstore.BlockFS.Write = func(f *os.File, b []byte) (int, error) {
				if fail() {
					return 0, &os.PathError{Op: "write", Path: f.Name(), Err: syscall.ENOSPC}
				}
				return f.Write(b)
			}
		}},
		{"short write", func(fail func() bool) {
			expstore.BlockFS.Write = func(f *os.File, b []byte) (int, error) {
				if fail() {
					b = b[:len(b)/2]
				}
				return f.Write(b)
			}
		}},
		{"link and rename", func(fail func() bool) {
			expstore.BlockFS.Link = func(oldpath, newpath string) error {
				if fail() {
					return &os.LinkError{Op: "link", Old: oldpath, New: newpath, Err: syscall.EPERM}
				}
				return os.Link(oldpath, newpath)
			}
			expstore.BlockFS.Rename = func(oldpath, newpath string) error {
				return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: syscall.EXDEV}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			calls := 0
			tc.inject(func() bool { calls++; return calls == 2 })
			var warned []string
			st, misses, served := sweep(dir, func(f string, a ...any) { warned = append(warned, fmt.Sprintf(f, a...)) })
			expstore.BlockFS = orig
			lost := jobs - st.CellsWritten
			if st.WriteErrors != 1 || lost == 0 {
				t.Fatalf("stats %+v, want one write error and lost cells", st)
			}
			if len(warned) != 1 || !strings.Contains(warned[0], filepath.Join(dir, "b0")) {
				t.Fatalf("warnings %q, want one naming the block under %s", warned, dir)
			}
			if uint64(misses) != lost || uint64(served) != st.CellsWritten {
				t.Fatalf("%d read-back misses, %d cells served; want %d and %d", misses, served, lost, st.CellsWritten)
			}
			if tmp, _ := filepath.Glob(filepath.Join(dir, "tmp-*")); len(tmp) != 0 {
				t.Fatalf("temp files left: %v", tmp)
			}
			st, misses, served = sweep(dir, nil)
			if st.CellsWritten != lost || st.DupSkipped != jobs-lost || misses != 0 || uint64(served) != jobs {
				t.Fatalf("second process: %d cells written, %d dups, %d misses, %d served; want %d, %d, 0, %d",
					st.CellsWritten, st.DupSkipped, misses, served, lost, jobs-lost, jobs)
			}
		})
	}
}
