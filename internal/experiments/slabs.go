package experiments

import (
	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/cvp"
	"tracerebase/internal/resultcache"
	"tracerebase/internal/synth"
	"tracerebase/internal/tracestore"
)

// SlabStore is the content-addressed store of converted, simulation-ready
// instruction slabs. A nil *SlabStore in SweepConfig disables it (the
// -no-trace-store path), which reproduces the streaming conversion engine
// exactly.
type SlabStore = tracestore.Store

// OpenSlabStore opens the slab store rooted at dir ("" = the
// DefaultCacheDir resolution + "/slabs") with the given size bound (0 = the
// tracestore default of 8 GiB). warn, when non-nil, receives printf-style
// diagnostics for absorbed failures (corrupt slabs, write errors).
func OpenSlabStore(dir string, maxBytes int64, warn func(format string, args ...any)) (*SlabStore, error) {
	if dir == "" {
		base, err := DefaultCacheDir()
		if err != nil {
			return nil, err
		}
		dir = base + "/slabs"
	}
	return tracestore.Open(tracestore.Config{Dir: dir, MaxBytes: maxBytes, Warn: warn})
}

// slabKey derives the content address of one converted slab: the profile's
// canonical encoding (which embeds synth.GeneratorVersion), the converter
// algorithm version, the slab format version, the instruction count, and
// the converter-option bits. Deliberately NOT in the key: the build
// fingerprint (slabs survive rebuilds; stale-output protection is the
// version constants plus the slab-transparency oracle) and the simulator
// configuration (a slab is pure converter output — exact, sampled, and
// multi-core runs all share it).
func slabKey(p *synth.Profile, opts core.Options, instructions int) tracestore.Key {
	return resultcache.NewHasher("tracerebase/slab").
		U64(tracestore.FormatVersion).
		U64(core.ConverterVersion).
		Bytes(p.AppendCanonical(nil)).
		U64(uint64(instructions)).
		U64(uint64(opts.Bits())).
		Sum()
}

// acquireSlab returns a referenced slab for (p, opts, instructions),
// converting — and, through generate, synthesizing — the trace only on a
// store miss. The conversion streams its records into the slab file batch
// by batch. generate may be invoked twice per actual conversion (the store
// reconverts into memory after a failed write), so the caller memoizes it;
// the returned instruction slab is read-only during conversion. The caller
// must Release the slab.
func acquireSlab(store *SlabStore, p *synth.Profile, opts core.Options, instructions int, generate func() ([]cvp.Instruction, error)) (*tracestore.Slab, error) {
	return store.GetOrStream(slabKey(p, opts, instructions),
		func(emit func([]champtrace.Instruction) error) (core.Stats, error) {
			instrs, err := generate()
			if err != nil {
				return core.Stats{}, err
			}
			return core.ConvertEmit(cvp.NewValuesSource(instrs), opts, emit)
		})
}
