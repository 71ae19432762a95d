package experiments

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tracerebase/internal/core"
	"tracerebase/internal/synth"
	"tracerebase/internal/tracestore"
)

func testSlabStore(t *testing.T, dir string) *SlabStore {
	t.Helper()
	s, err := tracestore.Open(tracestore.Config{Dir: dir})
	if err != nil {
		t.Fatalf("open slab store: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestConverterClasses(t *testing.T) {
	opts := []core.Options{
		core.OptionsNone(),
		core.OptionsAll(),
		core.OptionsNone(), // same bits as 0
		{FlagReg: true},
	}
	var cells []cell
	for trace := 0; trace < 2; trace++ {
		for _, o := range opts {
			cells = append(cells, cell{trace: trace, opts: o})
		}
	}
	all := make([]int, len(cells))
	for i := range all {
		all[i] = i
	}
	classOf, classes := converterClasses(cells, all)
	if len(classes) != 6 {
		t.Fatalf("got %d classes, want 3 per trace", len(classes))
	}
	if in := classes[classOf[0]]; classOf[0] != classOf[2] || in.cells != 2 || in.left.Load() != 2 {
		t.Fatalf("identical option sets split: classes %d and %d", classOf[0], classOf[2])
	}
	if classOf[0] == classOf[1] || classOf[1] == classOf[3] || classOf[0] == classOf[3] {
		t.Fatalf("distinct option sets merged: %v", classOf)
	}
	if classOf[0] == classOf[4] {
		t.Fatal("one option set on two traces shares a class")
	}
	for i, ci := range classOf {
		if classes[ci].opts.Bits() != cells[i].opts.Bits() || classes[ci].trace != cells[i].trace {
			t.Fatalf("class %d does not match cell %d", ci, i)
		}
	}
	// Only the cells asked for are grouped: a trace whose cells all hit
	// the result cache has no class.
	classOf, classes = converterClasses(cells, []int{5, 7})
	if len(classes) != 2 || len(classOf) != 2 || classes[0].trace != 1 {
		t.Fatalf("subset grouping: %d classes %v", len(classes), classOf)
	}
	// The standard ten variants all have distinct option bits.
	cells, all = nil, nil
	for i, v := range Variants() {
		cells = append(cells, cell{opts: v.Opts})
		all = append(all, i)
	}
	if _, classes = converterClasses(cells, all); len(classes) != 10 {
		t.Fatalf("standard variants: %d classes, want 10", len(classes))
	}
}

// TestRunSweepSlabTransparency: a sweep fed from the slab store must be
// DeepEqual to the streaming-conversion sweep — records, IPC, simulator
// statistics, and converter statistics alike — cold and warm.
func TestRunSweepSlabTransparency(t *testing.T) {
	profiles := []synth.Profile{
		synth.PublicProfile(synth.ComputeInt, 2),
		synth.PublicProfile(synth.Crypto, 1),
	}
	cfg := testSweepConfig()
	cfg.Variants = figureVariants(VariantNone, VariantBranch, VariantAll)

	want, err := RunSweep(profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cold := cfg
	cold.Slabs = testSlabStore(t, dir)
	got, err := RunSweep(profiles, cold)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("slab-fed sweep differs from streaming sweep (cold store)")
	}
	st := cold.Slabs.Stats()
	if st.Converts != uint64(len(profiles)*len(cfg.Variants)) {
		t.Fatalf("cold store converts = %d, want %d (one per trace and class): %+v",
			st.Converts, len(profiles)*len(cfg.Variants), st)
	}

	// A fresh store over the same directory serves every slab from disk.
	warm := cfg
	warm.Slabs = testSlabStore(t, dir)
	got2, err := RunSweep(profiles, warm)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got2) {
		t.Fatal("slab-fed sweep differs from streaming sweep (warm store)")
	}
	st = warm.Slabs.Stats()
	if st.Converts != 0 || st.DiskHits == 0 {
		t.Fatalf("warm store stats: %+v", st)
	}
}

// TestSweepMapsOnlyRunningSlabs: sweep classes are single-cell, so a
// slab-warm sweep at Parallelism 2 never holds more than two slabs mapped
// at once, and once it returns nothing of the store is mapped.
func TestSweepMapsOnlyRunningSlabs(t *testing.T) {
	profiles := []synth.Profile{
		synth.PublicProfile(synth.ComputeInt, 2),
		synth.PublicProfile(synth.Crypto, 1),
		synth.PublicProfile(synth.Server, 3),
	}
	cfg := testSweepConfig()
	cfg.Parallelism = 2
	cfg.Variants = figureVariants(VariantNone, VariantBranch, VariantAll)
	dir := t.TempDir()
	cold := cfg
	cold.Slabs = testSlabStore(t, dir)
	if _, err := RunSweep(profiles, cold); err != nil {
		t.Fatal(err)
	}

	warm := cfg
	warm.Slabs = testSlabStore(t, dir)
	if _, err := RunSweep(profiles, warm); err != nil {
		t.Fatal(err)
	}
	st := warm.Slabs.Stats()
	if n := uint64(len(profiles) * len(cfg.Variants)); st.DiskHits != n || st.Converts != 0 {
		t.Fatalf("warm store stats %+v, want %d disk hits and no conversion", st, n)
	}
	var largest int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".slab") {
			return err
		}
		info, err := d.Info()
		if err == nil {
			largest = max(largest, info.Size())
		}
		return err
	})
	if err != nil || largest == 0 {
		t.Fatalf("no slab files under %s (err %v)", dir, err)
	}
	if st.PeakMappedBytes == 0 || st.PeakMappedBytes > uint64(2*largest) {
		t.Fatalf("peak mapped %d bytes, want (0, %d]: at most two %d-byte slabs at once",
			st.PeakMappedBytes, 2*largest, largest)
	}
	// Where the kernel lists the process's mappings, none may be a slab.
	maps, _ := os.ReadFile("/proc/self/maps")
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, dir) {
			t.Fatalf("slab file still mapped after the sweep returned: %s", line)
		}
	}
}

// TestRunSweepSlabClassSharing: variants with identical converter options
// share one conversion per trace.
func TestRunSweepSlabClassSharing(t *testing.T) {
	profiles := []synth.Profile{synth.PublicProfile(synth.Server, 1)}
	cfg := testSweepConfig()
	// Two variants, same option bits: one class, one conversion.
	cfg.Variants = []Variant{
		{VariantNone, core.OptionsNone()},
		{"No_imp_again", core.OptionsNone()},
	}
	cfg.Slabs = testSlabStore(t, t.TempDir())
	res, err := RunSweep(profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := cfg.Slabs.Stats(); st.Converts != 1 {
		t.Fatalf("class sharing broken: %d conversions for 1 class: %+v", st.Converts, st)
	}
	a := res[0].Results[VariantNone]
	b := res[0].Results["No_imp_again"]
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical-options variants differ")
	}
}

// TestRunSweepSlabParallelDeterminism: slab-fed sweeps stay byte-identical
// across worker counts, sharing one store.
func TestRunSweepSlabParallelDeterminism(t *testing.T) {
	profiles := []synth.Profile{
		synth.PublicProfile(synth.ComputeInt, 2),
		synth.PublicProfile(synth.Server, 3),
	}
	cfg := testSweepConfig()
	cfg.Variants = figureVariants(VariantNone, VariantAll)
	cfg.Slabs = testSlabStore(t, t.TempDir())

	serial := cfg
	serial.Parallelism = 1
	a, err := RunSweep(profiles, serial)
	if err != nil {
		t.Fatal(err)
	}
	parallel := cfg
	parallel.Parallelism = 4
	b, err := RunSweep(profiles, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("slab-fed parallel sweep differs from serial")
	}
}

// TestRunSweepSlabGenerationError: a failing profile still reports its
// generation error once per trace through the slab path, and healthy
// traces deliver complete results.
func TestRunSweepSlabGenerationError(t *testing.T) {
	bad := synth.Profile{Name: "bad"}
	good := synth.PublicProfile(synth.ComputeInt, 2)
	cfg := testSweepConfig()
	cfg.Variants = figureVariants(VariantNone, VariantAll)
	cfg.Slabs = testSlabStore(t, t.TempDir())

	res, err := RunSweep([]synth.Profile{bad, good}, cfg)
	if err == nil {
		t.Fatal("nil error for invalid profile")
	}
	if len(res[0].Results) != 0 {
		t.Error("failed trace should have empty Results")
	}
	if len(res[1].Results) != len(cfg.Variants) {
		t.Fatalf("healthy trace has %d results, want %d", len(res[1].Results), len(cfg.Variants))
	}
}

// TestMultiSweepSlabTransparency: co-scheduled multi-core sweeps are
// identical with and without the slab store, including the shared-slab
// case of one workload pinned to both cores.
func TestMultiSweepSlabTransparency(t *testing.T) {
	p := synth.PublicProfile(synth.Server, 1)
	workloads := []synth.Profile{p, p} // same profile on both cores: one slab, two refs
	cfg := testSweepConfig()
	cfg.Cores = 2
	cfg.Variants = figureVariants(VariantNone, VariantAll)

	want, err := RunMultiSweep("pair", workloads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Slabs = testSlabStore(t, t.TempDir())
	got, err := RunMultiSweep("pair", workloads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("slab-fed multi-core sweep differs from streaming")
	}
	// One conversion per variant (both cores share the slab), not two.
	if st := cfg.Slabs.Stats(); st.Converts != uint64(len(cfg.Variants)) {
		t.Fatalf("multi-core slab sharing broken: %+v", st)
	}
}

// TestTable3WithSlabs / ablation: the IPC-1 paths produce identical output
// through the store.
func TestTable3SlabTransparency(t *testing.T) {
	suite := synth.IPC1Suite()[:2]
	cfg := testSweepConfig()
	want, err := Table3(cfg, suite)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Slabs = testSlabStore(t, t.TempDir())
	got, err := Table3(cfg, suite)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("slab-fed Table 3 differs from streaming")
	}
	// Two sets per trace: 2 traces × 2 classes = 4 conversions.
	if st := cfg.Slabs.Stats(); st.Converts != 4 {
		t.Fatalf("Table 3 conversion hoisting broken: %+v", st)
	}
}

func TestSlabKeyDisjointness(t *testing.T) {
	p1 := synth.PublicProfile(synth.ComputeInt, 2)
	p2 := synth.PublicProfile(synth.ComputeInt, 3)
	keys := map[tracestore.Key]string{}
	add := func(name string, k tracestore.Key) {
		if prev, ok := keys[k]; ok {
			t.Fatalf("slab key collision: %s == %s", name, prev)
		}
		keys[k] = name
	}
	add("p1/none/1000", slabKey(&p1, core.OptionsNone(), 1000))
	add("p2/none/1000", slabKey(&p2, core.OptionsNone(), 1000))
	add("p1/all/1000", slabKey(&p1, core.OptionsAll(), 1000))
	add("p1/none/2000", slabKey(&p1, core.OptionsNone(), 2000))
	// Same inputs must agree (content addressing is deterministic).
	if slabKey(&p1, core.OptionsNone(), 1000) != slabKey(&p1, core.OptionsNone(), 1000) {
		t.Fatal("slab key not deterministic")
	}
}
