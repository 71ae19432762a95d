package experiments

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"tracerebase/internal/core"
	"tracerebase/internal/cvp"
	"tracerebase/internal/resultcache"
	"tracerebase/internal/synth"
	"tracerebase/internal/tracestore"
)

// countGenerations counts trace generations until the test ends.
func countGenerations(t *testing.T) *atomic.Int32 {
	t.Helper()
	var n atomic.Int32
	orig := generateBatch
	generateBatch = func(p synth.Profile, k int) ([]cvp.Instruction, error) {
		n.Add(1)
		return orig(p, k)
	}
	t.Cleanup(func() { generateBatch = orig })
	return &n
}

func openCacheAt(t *testing.T, dir string) *ResultCache {
	t.Helper()
	c, err := OpenResultCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestWarmRunTouchesNoInputs: once every cell is cached, the sweep, Table 2
// and Table 3 resolve from the result cache alone — no generator call and
// no slab-store operation — and each cell counts
// exactly once in the cache statistics, cold and warm.
func TestWarmRunTouchesNoInputs(t *testing.T) {
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

	type outputs struct {
		sweep []TraceResult
		t2    Table2Result
		t3    Table3Result
	}
	run := func() (SweepConfig, outputs) {
		c := cfg
		c.Cache = openCacheAt(t, filepath.Join(dir, "results"))
		c.Slabs = testSlabStore(t, filepath.Join(dir, "slabs"))
		var out outputs
		var err error
		if out.sweep, err = RunSweep(profiles, c); err != nil {
			t.Fatal(err)
		}
		if out.t2, err = Table2(c, suite); err != nil {
			t.Fatal(err)
		}
		if out.t3, err = Table3(c, suite); err != nil {
			t.Fatal(err)
		}
		return c, out
	}

	cold, want := run()
	if s := cold.Cache.Stats(); s.Misses != cells || s.Computes != cells || s.Hits != 0 {
		t.Fatalf("cold cache stats %+v, want %d misses and computes", s, cells)
	}
	gens := countGenerations(t)
	warm, got := run()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("warm run differs from cold run")
	}
	if n := gens.Load(); n != 0 {
		t.Fatalf("warm run generated %d traces", n)
	}
	if s := warm.Slabs.Stats(); s != (tracestore.Stats{}) {
		t.Fatalf("warm run touched the slab store: %+v", s)
	}
	if s := warm.Cache.Stats(); s.Hits != cells || s.DiskHits != cells || s.Misses != 0 || s.Computes != 0 {
		t.Fatalf("warm cache stats %+v, want %d disk hits and nothing else", s, cells)
	}
}

// TestPartialInvalidation: with some cells' result-cache entries deleted,
// only the traces holding those cells are generated or read from the slab
// store, only the affected classes are acquired, and the output is
// unchanged.
func TestPartialInvalidation(t *testing.T) {
	profiles := []synth.Profile{
		synth.PublicProfile(synth.ComputeInt, 2),
		synth.PublicProfile(synth.Crypto, 1),
		synth.PublicProfile(synth.Server, 3),
	}
	cfg := testSweepConfig()
	cfg.Variants = figureVariants(VariantNone, VariantBranch, VariantAll)
	dir := t.TempDir()
	resultsDir, slabDir := filepath.Join(dir, "results"), filepath.Join(dir, "slabs")

	cold := cfg
	cold.Cache = openCacheAt(t, resultsDir)
	cold.Slabs = testSlabStore(t, slabDir)
	want, err := RunSweep(profiles, cold)
	if err != nil {
		t.Fatal(err)
	}
	// Invalidate every cell of trace 1 and one cell of trace 2: four
	// cells in four classes.
	invalidate := func() {
		type tv struct{ ti, vi int }
		for _, c := range []tv{{1, 0}, {1, 1}, {1, 2}, {2, 2}} {
			key, err := cfg.CellKey(profiles[c.ti], cfg.Variants[c.vi])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(cold.Cache.EntryPath(key)); err != nil {
				t.Fatal(err)
			}
		}
	}
	const missed, total = 4, 9

	invalidate()
	gens := countGenerations(t)
	warm := cfg
	warm.Cache = openCacheAt(t, resultsDir)
	warm.Slabs = testSlabStore(t, slabDir)
	got, err := RunSweep(profiles, warm)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("partially invalidated run differs from cold run")
	}
	if n := gens.Load(); n != 0 {
		t.Fatalf("%d generations over a warm slab store", n)
	}
	// Each invalidated class is mapped from disk exactly once, and no two
	// classes share a slab.
	if s := warm.Slabs.Stats(); s.Hits != missed || s.DiskHits != missed || s.MemHits != 0 ||
		s.Misses != 0 || s.Converts != 0 {
		t.Fatalf("slab stats %+v, want %d classes mapped once each from disk", s, missed)
	}
	if s := warm.Cache.Stats(); s.Misses != missed || s.Computes != missed || s.Hits != total-missed || s.DiskHits != total-missed {
		t.Fatalf("cache stats %+v, want %d misses and %d disk hits", s, missed, total-missed)
	}

	// Without a slab store the two affected traces are generated, once
	// each, and the third is not.
	invalidate()
	streaming := cfg
	streaming.Cache = openCacheAt(t, resultsDir)
	gens.Store(0)
	if got, err = RunSweep(profiles, streaming); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("partially invalidated streaming run differs from cold run")
	}
	if n := gens.Load(); n != 2 {
		t.Fatalf("%d generations, want 2 (the traces with invalidated cells)", n)
	}
}

// TestTable3ParallelDeterminism: Table 3 renders byte-identically on one
// worker and on four, with the in-memory conversions and through the slab
// store.
func TestTable3ParallelDeterminism(t *testing.T) {
	suite := synth.IPC1Suite()[:3]
	for _, slabs := range []bool{false, true} {
		render := func(par int) []byte {
			cfg := testSweepConfig()
			cfg.Parallelism = par
			if slabs {
				cfg.Slabs = testSlabStore(t, t.TempDir())
			}
			res, err := Table3(cfg, suite)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			RenderTable3(&buf, res)
			return buf.Bytes()
		}
		if serial, parallel := render(1), render(4); !bytes.Equal(serial, parallel) {
			t.Fatalf("slabs=%v: Table 3 differs between -parallel 1 and 4:\n%s\n---\n%s", slabs, serial, parallel)
		}
	}
}

// TestResultCodecFixedSize: Result is stored in a fixed binary layout,
// which a variable-size field (a string or slice in sim.Stats or
// core.Stats) would break; binary.Size reports that as -1.
func TestResultCodecFixedSize(t *testing.T) {
	if n := binary.Size(Result{}); n <= 0 {
		t.Fatalf("binary.Size(Result{}) = %d: Result no longer has a fixed layout", n)
	}
}

// randomize fills every number and bool reachable in v with random values
// (finite floats, so results compare with DeepEqual).
func randomize(v reflect.Value, rng *rand.Rand) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			randomize(v.Field(i), rng)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			randomize(v.Index(i), rng)
		}
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(rng.Uint64())
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(rng.Int64())
	case reflect.Float32, reflect.Float64:
		v.SetFloat(rng.NormFloat64() * 1e3)
	case reflect.Bool:
		v.SetBool(rng.IntN(2) == 1)
	}
}

func randomResult(rng *rand.Rand) Result {
	var r Result
	randomize(reflect.ValueOf(&r).Elem(), rng)
	return r
}

func TestResultCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	codec := resultcache.BinaryCodec[Result]{}
	for i := 0; i < 200; i++ {
		want := randomResult(rng)
		payload, err := codec.Encode(want)
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) != binary.Size(want) {
			t.Fatalf("payload is %d bytes, want %d", len(payload), binary.Size(want))
		}
		got, err := codec.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip %d: got %+v, want %+v", i, got, want)
		}
	}
}

// TestResultCodecRejectsBadPayloads: a stored payload one byte short or
// long, or an entry in the old gob encoding, is counted corrupt,
// recomputed, and never served; the recomputed value replaces it.
func TestResultCodecRejectsBadPayloads(t *testing.T) {
	want := randomResult(rand.New(rand.NewPCG(3, 4)))
	good, err := resultcache.BinaryCodec[Result]{}.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	gobbed, err := resultcache.GobCodec[Result]{}.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(gobbed) == len(good) {
		t.Fatal("gob payload has the binary layout's length; the case tests nothing")
	}
	key := resultcache.NewHasher("test/codec").Sum()
	for name, payload := range map[string][]byte{
		"short": good[:len(good)-1],
		"long":  append(append([]byte(nil), good...), 0),
		"gob":   gobbed,
	} {
		dir := t.TempDir()
		seed := openCacheAt(t, dir)
		if err := seed.Backend().Put(key, payload); err != nil {
			t.Fatal(err)
		}
		c := openCacheAt(t, dir)
		if _, ok := c.Lookup(key); ok {
			t.Fatalf("%s payload served", name)
		}
		computes := 0
		got, err := c.GetOrCompute(key, func() (Result, error) { computes++; return want, nil })
		if err != nil || computes != 1 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s payload: recompute gave %v after %d computes", name, err, computes)
		}
		if s := c.Stats(); s.Corrupt != 1 || s.Misses != 1 || s.Hits != 0 {
			t.Fatalf("%s payload: stats %+v, want 1 corrupt and 1 miss", name, s)
		}
		if got, ok := openCacheAt(t, dir).Lookup(key); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s payload: recomputed value not stored", name)
		}
	}
}

// BenchmarkResultDecode compares decoding one stored Result in the fixed
// binary layout with the gob encoding it replaced.
func BenchmarkResultDecode(b *testing.B) {
	res := randomResult(rand.New(rand.NewPCG(5, 6)))
	for _, codec := range []struct {
		name string
		c    resultcache.Codec[Result]
	}{
		{"binary", resultcache.BinaryCodec[Result]{}},
		{"gob", resultcache.GobCodec[Result]{}},
	} {
		payload, err := codec.c.Encode(res)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(codec.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.c.Decode(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTraceInputOutlivesItsClasses: without a slab store one run can hold,
// for one trace, a class converted into memory (two cells) and a class
// that streams (one cell). The in-memory class gives up its claim on the
// trace's instructions once it has its records; the streaming cell, run
// before or after it, must still find them, so every cell matches the same
// cell run alone.
func TestTraceInputOutlivesItsClasses(t *testing.T) {
	profiles := []synth.Profile{synth.PublicProfile(synth.ComputeInt, 2)}
	c := testSweepConfig()
	c.Parallelism = 1
	noSkip := DevelopConfigFor(core.OptionsNone())
	noSkip.NoCycleSkip = true
	shared1 := cell{opts: core.OptionsNone(), simCfg: DevelopConfigFor(core.OptionsNone()), variant: "shared1"}
	shared2 := cell{opts: core.OptionsNone(), simCfg: noSkip, variant: "shared2"}
	lone := cell{opts: core.OptionsAll(), simCfg: DevelopConfigFor(core.OptionsAll()), variant: "lone"}
	alone := func(cl cell) Result {
		ex := c.execute(profiles, []cell{cl})
		if err := ex.err(); err != nil {
			t.Fatal(err)
		}
		return ex.results[0]
	}
	want := map[string]Result{"shared1": alone(shared1), "shared2": alone(shared2), "lone": alone(lone)}
	for _, cells := range [][]cell{{shared1, shared2, lone}, {lone, shared1, shared2}} {
		ex := c.execute(profiles, cells)
		if err := ex.err(); err != nil {
			t.Fatal(err)
		}
		for i, cl := range cells {
			if !reflect.DeepEqual(ex.results[i], want[cl.variant]) {
				t.Fatalf("order %s/%s/%s: cell %s differs from its run alone",
					cells[0].variant, cells[1].variant, cells[2].variant, cl.variant)
			}
		}
	}
}
