package experiments

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"tracerebase/internal/core"
	"tracerebase/internal/cvp"
	"tracerebase/internal/synth"
	"tracerebase/internal/tracestore"
)

// countStreams counts the slab pass's streamed generations until the test
// ends.
func countStreams(t *testing.T) *atomic.Int32 {
	t.Helper()
	var n atomic.Int32
	orig := streamTrace
	streamTrace = func(p synth.Profile, k int) (traceStream, error) {
		n.Add(1)
		return orig(p, k)
	}
	t.Cleanup(func() { streamTrace = orig })
	return &n
}

// tempFiles lists the tmp-* files left under dir.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	var left []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasPrefix(d.Name(), "tmp-") {
			left = append(left, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return left
}

// TestColdSweepStreamsEachTrace: a cold sweep with a slab store converts
// the trace's ten slabs from one streamed generation whose conversion
// pass allocates less than the generated trace would take; with three
// slabs already on disk the pass converts exactly the other seven, and
// the output is the store-off output either way.
func TestColdSweepStreamsEachTrace(t *testing.T) {
	const n = 150000
	profiles := []synth.Profile{synth.PublicProfile(synth.ComputeInt, 2)}
	cfg := SweepConfig{Instructions: n, Warmup: 50000, Parallelism: 2, Variants: Variants()}
	want, err := RunSweep(profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The pass alone: the sweep's simulations allocate too.
	gens, streams := countGenerations(t), countStreams(t)
	cold := cfg
	cold.Slabs = testSlabStore(t, t.TempDir())
	var opts []core.Options
	for _, v := range cfg.Variants {
		opts = append(opts, v.Opts)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = cold.convertTrace(&profiles[0], opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	trace := uint64(n * unsafe.Sizeof(cvp.Instruction{}))
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= trace {
		t.Fatalf("the pass allocated %d bytes, not less than one %d-byte generated trace", grew, trace)
	}
	// The sweep maps the ten slabs the pass wrote; their first loads count
	// with the pass's misses.
	got, err := RunSweep(profiles, cold)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cold slab sweep differs from the store-off sweep")
	}
	if g, s := gens.Load(), streams.Load(); g != 0 || s != 1 {
		t.Fatalf("%d whole-trace generations and %d streamed, want 0 and 1", g, s)
	}
	if st := cold.Slabs.Stats(); st.Converts != 10 || st.Misses != 10 || st.Hits != 0 || st.BytesMapped == 0 {
		t.Fatalf("cold store stats %+v, want 10 misses and conversions, no hit, slabs mapped", st)
	}

	dir := t.TempDir()
	seed := cfg
	seed.Variants = cfg.Variants[:3]
	seed.Slabs = testSlabStore(t, dir)
	if _, err := RunSweep(profiles, seed); err != nil {
		t.Fatal(err)
	}
	streams.Store(0)
	partial := cfg
	partial.Slabs = testSlabStore(t, dir)
	if got, err = RunSweep(profiles, partial); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("partly warm slab sweep differs from the store-off sweep")
	}
	if g, s := gens.Load(), streams.Load(); g != 0 || s != 1 {
		t.Fatalf("%d whole-trace generations and %d streamed, want 0 and 1", g, s)
	}
	if st := partial.Slabs.Stats(); st.Converts != 7 || st.Misses != 7 || st.DiskHits != 3 || st.Hits != 3 {
		t.Fatalf("partly warm store stats %+v, want 7 conversions and 3 disk hits", st)
	}
}

// TestMultiSweepStreamsSlabs: a cold co-schedule into an empty slab store
// takes its slabs from the executor's streamed pass, one generation per
// active workload and none whole; a second run over the same store maps
// every slab and generates nothing. Both match the store-off output.
func TestMultiSweepStreamsSlabs(t *testing.T) {
	workloads := []synth.Profile{
		synth.PublicProfile(synth.Server, 1),
		{}, // idle
		synth.PublicProfile(synth.Crypto, 0),
	}
	cfg := testSweepConfig()
	cfg.Cores = len(workloads)
	cfg.Variants = figureVariants(VariantNone, VariantBranch, VariantAll)
	want, err := RunMultiSweep("mix", workloads, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	gens, streams := countGenerations(t), countStreams(t)
	cold := cfg
	cold.Slabs = testSlabStore(t, dir)
	got, err := RunMultiSweep("mix", workloads, cold)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cold slab co-schedule differs from the store-off run")
	}
	slabs := uint64(2 * len(cfg.Variants))
	if g, s := gens.Load(), streams.Load(); g != 0 || s != 2 {
		t.Fatalf("%d whole-trace generations and %d streamed, want 0 and 2", g, s)
	}
	if st := cold.Slabs.Stats(); st.Converts != slabs || st.Misses != slabs || st.Hits != 0 {
		t.Fatalf("cold store stats %+v, want %d misses and conversions, no hit", st, slabs)
	}

	streams.Store(0)
	warm := cfg
	warm.Slabs = testSlabStore(t, dir)
	if got, err = RunMultiSweep("mix", workloads, warm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("warm slab co-schedule differs from the store-off run")
	}
	if g, s := gens.Load(), streams.Load(); g != 0 || s != 0 {
		t.Fatalf("warm run: %d whole-trace generations and %d streamed, want none", g, s)
	}
	if st := warm.Slabs.Stats(); st.Converts != 0 || st.Misses != 0 || st.DiskHits != slabs {
		t.Fatalf("warm store stats %+v, want %d disk hits and no conversion", st, slabs)
	}
}

// TestSlabPassEviction: a slab evicted between the pass and its class's
// first cell is written again from the trace's generated instructions (or,
// evicted again before it maps, converted into memory), and the output is
// the store-off output. (internal/tracestore's TestSweepSlabWriteFailure
// covers a write that fails during the pass.)
func TestSlabPassEviction(t *testing.T) {
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
	s, err := tracestore.Open(tracestore.Config{Dir: t.TempDir(), MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	gens := countGenerations(t)
	cfg.Slabs = s
	got, err := RunSweep(profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sweep over evicted slabs differs from the store-off sweep")
	}
	// Each write evicts every other slab, so each trace's pass leaves
	// at most one slab for its three classes.
	if st := s.Stats(); st.Evictions == 0 || st.Converts < 2*3+2*2 {
		t.Fatalf("stats %+v, want evictions and at least 10 conversions", st)
	}
	if n := gens.Load(); n != 2 {
		t.Fatalf("%d whole-trace generations, want one per trace for its evicted classes", n)
	}
}

// failingStream generates its profile's trace but fails after a few
// batches.
type failingStream struct {
	traceStream
	batches int
}

var errInjected = errors.New("injected generation failure")

func (f *failingStream) NextBatch(dst []cvp.Instruction) (int, error) {
	if f.batches++; f.batches > 2 {
		return 0, errInjected
	}
	return f.traceStream.NextBatch(dst)
}

// TestSlabPassGenerationError: a generator that fails mid-stream is
// reported once for its trace, no slab of the trace is left behind, and
// the other trace's cells complete.
func TestSlabPassGenerationError(t *testing.T) {
	profiles := []synth.Profile{
		synth.PublicProfile(synth.ComputeInt, 2),
		synth.PublicProfile(synth.Crypto, 1),
	}
	orig := streamTrace
	streamTrace = func(p synth.Profile, n int) (traceStream, error) {
		s, err := orig(p, n)
		if err != nil || p.Name != profiles[0].Name {
			return s, err
		}
		return &failingStream{traceStream: s}, nil
	}
	t.Cleanup(func() { streamTrace = orig })

	cfg := testSweepConfig()
	cfg.Instructions = 5 * core.EmitBatch
	cfg.Variants = figureVariants(VariantNone, VariantBranch, VariantAll)
	dir := t.TempDir()
	cfg.Slabs = testSlabStore(t, dir)
	gens := countGenerations(t)
	res, err := RunSweep(profiles, cfg)
	if !errors.Is(err, errInjected) {
		t.Fatalf("error %v, want the injected generation failure", err)
	}
	if n := strings.Count(err.Error(), errInjected.Error()); n != 1 {
		t.Fatalf("generation failure reported %d times: %v", n, err)
	}
	if len(res[0].Results) != 0 || len(res[1].Results) != len(cfg.Variants) {
		t.Fatalf("%d and %d results, want none for the failed trace and all for the other",
			len(res[0].Results), len(res[1].Results))
	}
	if n := gens.Load(); n != 0 {
		t.Fatalf("%d whole-trace generations after a failed pass", n)
	}
	for _, v := range cfg.Variants {
		if _, err := os.Stat(cfg.Slabs.EntryPath(slabKey(&profiles[0], v.Opts, cfg.Instructions))); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("slab of the failed trace left behind (%v)", err)
		}
	}
	if left := tempFiles(t, dir); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// TestFanOut: every consumer reads the whole stream in order, at its own
// pace, and a consumer that stops early neither stalls the others nor
// the generator.
func TestFanOut(t *testing.T) {
	p := synth.PublicProfile(synth.Server, 1)
	const n = 3*core.EmitBatch + 17
	instrs, err := p.GenerateBatch(n)
	if err != nil {
		t.Fatal(err)
	}
	// Copies, as the consumers take them.
	want := make([]cvp.Instruction, len(instrs))
	for i := range instrs {
		instrs[i].CopyInto(&want[i])
	}
	gen, err := p.Stream(n)
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Close()
	got := make([][]cvp.Instruction, 3)
	err = fanOut(gen, len(got), func(i int, src cvp.Source) {
		for {
			in, err := src.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
			if i == 1 && len(got[i]) == 10 {
				return // stops early
			}
			var cp cvp.Instruction
			in.CopyInto(&cp)
			got[i] = append(got[i], cp)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("consumer %d read %d instructions, not the generated %d", i, len(got[i]), len(want))
		}
	}
	if !reflect.DeepEqual(got[1], want[:10]) {
		t.Fatal("early-stopping consumer read the wrong prefix")
	}
}
