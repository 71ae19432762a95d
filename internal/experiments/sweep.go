// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): the geomean and per-trace IPC impact of each conversion
// improvement (Figs. 1–2), the branch-MPKI and base-update correlations
// (Figs. 3–4), the call-stack fix (Fig. 5), the improvement summary
// (Table 1), the IPC-1 trace characterization (Table 2), and the IPC-1
// prefetcher ranking on competition vs fixed traces (Table 3).
//
// The sweep — every trace converted under every improvement set and
// simulated — is shared: Figs. 1–5 all derive from one sweep result.
package experiments

import (
	"errors"
	"fmt"
	"runtime"

	"tracerebase/internal/core"
	"tracerebase/internal/expstore"
	"tracerebase/internal/sim"
	"tracerebase/internal/synth"
)

// Variant is one converter configuration of the evaluation.
type Variant struct {
	// Name is the artifact-style label ("No_imp", "imp_flag-regs", ...).
	Name string
	// Opts is the improvement set applied.
	Opts core.Options
}

// Variant names used throughout the experiments.
const (
	VariantNone         = "No_imp"
	VariantMemRegs      = "mem-regs"
	VariantBaseUpdate   = "base-update"
	VariantMemFootprint = "mem-footprint"
	VariantMemory       = "Memory_imps"
	VariantFlagReg      = "flag-reg"
	VariantBranchRegs   = "branch-regs"
	VariantCallStack    = "call-stack"
	VariantBranch       = "Branch_imps"
	VariantAll          = "All_imps"
)

// Variants returns the ten converter configurations of Figs. 1–2: the
// original converter, each improvement individually, the Memory and Branch
// sets, and all improvements together.
func Variants() []Variant {
	return []Variant{
		{VariantNone, core.OptionsNone()},
		{VariantMemRegs, core.Options{MemRegs: true}},
		{VariantBaseUpdate, core.Options{BaseUpdate: true}},
		{VariantMemFootprint, core.Options{MemFootprint: true}},
		{VariantMemory, core.OptionsMemory()},
		{VariantFlagReg, core.Options{FlagReg: true}},
		{VariantBranchRegs, core.Options{BranchRegs: true}},
		{VariantCallStack, core.Options{CallStack: true}},
		{VariantBranch, core.OptionsBranch()},
		{VariantAll, core.OptionsAll()},
	}
}

// figureVariants selects a subset of Variants by name.
func figureVariants(names ...string) []Variant {
	all := Variants()
	var out []Variant
	for _, n := range names {
		for _, v := range all {
			if v.Name == n {
				out = append(out, v)
			}
		}
	}
	return out
}

// Result is the outcome of simulating one trace under one variant.
type Result struct {
	// IPC is instructions per cycle in the measured region.
	IPC float64
	// Sim carries the full simulator statistics.
	Sim sim.Stats
	// Conv carries the converter statistics.
	Conv core.Stats
}

// TraceResult bundles all variant results for one trace.
type TraceResult struct {
	Profile synth.Profile
	Results map[string]Result
}

// Delta returns the IPC change (ratio-1) of variant v relative to the
// original converter.
func (tr TraceResult) Delta(v string) float64 {
	base := tr.Results[VariantNone].IPC
	if base == 0 {
		return 0
	}
	return tr.Results[v].IPC/base - 1
}

// SweepConfig parameterizes a sweep.
type SweepConfig struct {
	// Instructions is the per-trace dynamic instruction count;
	// Warmup instructions are excluded from statistics.
	Instructions int
	Warmup       uint64
	// Variants lists the converter configurations to run; nil means all
	// ten.
	Variants []Variant
	// Parallelism bounds concurrent (trace, variant) simulations;
	// 0 = NumCPU.
	Parallelism int
	// Progress, when non-nil, is called after each trace completes all of
	// its variants. It is invoked outside the sweep's internal locks, so a
	// slow callback (rendering, logging) never stalls the workers; calls
	// for different traces may therefore arrive out of order, but each
	// carries its own done count.
	Progress func(done, total int)
	// NoSkip disables the simulator's event-horizon cycle skipping
	// (sim.Config.NoCycleSkip) for every simulation the sweep dispatches.
	// Results are identical either way; the flag exists for verifying that
	// claim and for benchmarking the skipper itself. It participates in
	// result-cache keys through the config identity, so skip-on and
	// skip-off runs never share cache entries.
	NoSkip bool
	// Cache, when non-nil, serves (trace, variant, config) Results by
	// content address instead of recomputing them: every cell is looked up
	// before any input work — in Exp first, when there is one, then here —
	// fully-cached traces are never generated, converted or read from the
	// slab store, and every freshly computed Result is stored.
	// Concurrent requests for the same key share one computation
	// (single-flight). nil reproduces the uncached engine exactly.
	Cache *ResultCache
	// SamplePeriod > 0 switches every simulation the sweep dispatches to
	// SMARTS-style interval sampling (sim.Config.SamplePeriod): one
	// SampleDetail-instruction detailed interval per SamplePeriod retired
	// instructions, with SampleWarm instructions of functional warming
	// ahead of each interval (0 = warm whole gaps). The parameters flow
	// into the simulator configuration and therefore into result-cache
	// keys, so sampled and exact results can never collide.
	SamplePeriod, SampleDetail, SampleWarm uint64
	// Cores > 1 switches RunMultiSweep cells to N-core lockstep simulation
	// over a shared LLC (single-core entry points ignore it). LLCPolicy
	// optionally overrides the shared LLC replacement policy ("srrip",
	// "drrip", or the multi-core-only "shared-srrip"); MemBandwidth sets
	// the shared LLC↔DRAM port issue interval in cycles (0 = unmodeled).
	// All three flow into the simulator configuration identity, so
	// multi-core cells key disjointly in the result cache.
	Cores        int
	LLCPolicy    string
	MemBandwidth uint64
	// MultiCache, when non-nil, serves co-scheduled multi-core cell
	// results by content address (a separate store from Cache — the value
	// type differs). nil recomputes every multi-core cell.
	MultiCache *MultiCache
	// Slabs, when non-nil, serves converted instruction slabs by content
	// address, to single-core cells and co-schedule cores alike:
	// conversion is hoisted out of the per-variant loop into
	// converter-option equivalence classes (convert once per trace and
	// class, feed every cell in the class from one shared read-only slab).
	// A trace's missing slabs are written in one streamed pass over its
	// generation, and warm slabs load zero-copy from disk instead of
	// reconverting. A class's slab stays mapped only while its cells run;
	// a class whose slab cannot be written converts into memory. nil
	// reproduces the streaming-conversion engine exactly.
	Slabs *SlabStore
	// Exp, when non-nil, is the append-only experiment store:
	// every cell the sweep computes (or serves from the result cache) is
	// appended as one row keyed by the cell's content address, and once
	// the sweep assembles its results they are replaced by their
	// store-read copies — the figure pipeline downstream consumes what the
	// store serves, making the engine the query layer's first consumer.
	// With Cache set too, the store is also the first lookup: cells it
	// already holds are served from it before the result cache is asked.
	// Appends and read-back degrade gracefully (a failed write or a
	// dropped corrupt block falls back to the in-memory result), so nil
	// and a broken store alike reproduce the plain engine exactly.
	Exp *expstore.Store
	// ExpMisses, when non-nil, is called once per sweep with the number of
	// cells the store read-back could not serve. Zero in a healthy store;
	// the store-transparency conformance oracle pins it there.
	ExpMisses func(misses int)
}

// The request defaults every front end shares: a run of 150k instructions
// per trace with a 50k warm-up, and a sampled run's geometry. The paper runs
// the original traces (tens of millions of instructions) to completion
// without warm-up; the warm-up here stands in for the steady state a
// full-length trace reaches on its own.
const (
	DefaultInstructions = 150000
	DefaultWarmup       = 50000
	DefaultSamplePeriod = 12500
	DefaultSampleDetail = 2500
	DefaultSampleWarm   = 2500
)

// fill defaults the zero fields and rejects configurations that would
// silently produce meaningless sweeps: a negative instruction count or
// parallelism, and a warm-up consuming the whole run (the measurement
// region would be empty, so every IPC would be 0/0).
func (c *SweepConfig) fill() error {
	if c.Instructions < 0 {
		return fmt.Errorf("experiments: negative instruction count %d", c.Instructions)
	}
	if c.Instructions == 0 {
		c.Instructions = DefaultInstructions
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("experiments: negative parallelism %d", c.Parallelism)
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.NumCPU()
	}
	if c.Warmup >= uint64(c.Instructions) {
		return fmt.Errorf("experiments: warmup %d >= instructions %d leaves an empty measurement region",
			c.Warmup, c.Instructions)
	}
	if c.Variants == nil {
		c.Variants = Variants()
	}
	return nil
}

// applySampling copies the sweep's sampling parameters into a simulator
// configuration. Every dispatch path (sweep, ablation, Table 3) routes
// through it, so sampled runs are keyed apart from exact ones everywhere.
func (c *SweepConfig) applySampling(sc *sim.Config) {
	sc.SamplePeriod = c.SamplePeriod
	sc.SampleDetail = c.SampleDetail
	sc.SampleWarm = c.SampleWarm
}

// simConfigFor returns the develop-branch model configuration for opts with
// the sweep's cycle-skipping and sampling settings applied. Dispatch and
// cache keys share it, so NoSkip and sampled results are keyed apart from
// default ones.
func (c *SweepConfig) simConfigFor(opts core.Options) sim.Config {
	sc := DevelopConfigFor(opts)
	sc.NoCycleSkip = c.NoSkip
	c.applySampling(&sc)
	return sc
}

// RunTrace generates one trace and simulates it under every variant on the
// develop-branch model: a one-trace RunSweep.
func RunTrace(p synth.Profile, cfg SweepConfig) (TraceResult, error) {
	out, err := RunSweep([]synth.Profile{p}, cfg)
	if out == nil {
		return TraceResult{}, err
	}
	return out[0], err
}

// RunSweep simulates every profile under every variant through the cell
// executor (see execute): every (trace, variant) cell is looked up in the
// experiment store and the result cache first, and only traces with a
// missed cell are generated —
// once, by whichever worker gets there first — and converted, once per
// converter-option class, with the class's records shared read-only across
// its variant simulations. Sweep parallelism is trace×variant-wide rather
// than trace-wide, and concurrent misses on one key (e.g. overlapping
// sweeps from concurrent callers) share a single computation.
//
// Results are assembled deterministically: out[i] always corresponds to
// profiles[i] regardless of completion order. On failure the returned
// error is the errors.Join of every per-(trace, variant) failure, and out
// still carries every result that did succeed — a trace whose generation
// failed has an empty Results map (cached cells, which need no generation,
// are still delivered), a trace with a failed variant is missing only that
// variant's entry.
func RunSweep(profiles []synth.Profile, cfg SweepConfig) ([]TraceResult, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	cells := make([]cell, 0, len(profiles)*len(cfg.Variants))
	for ti := range profiles {
		for _, v := range cfg.Variants {
			cells = append(cells, cell{trace: ti, opts: v.Opts, simCfg: cfg.simConfigFor(v.Opts),
				variant: v.Name})
		}
	}
	ex := cfg.execute(profiles, cells)

	out := make([]TraceResult, len(profiles))
	for ti := range profiles {
		out[ti] = TraceResult{Profile: profiles[ti], Results: make(map[string]Result, len(cfg.Variants))}
	}
	for i, cl := range cells {
		if ex.errs[i] == nil {
			out[cl.trace].Results[cl.variant] = ex.results[i]
		}
	}
	errs := ex.failures()
	// With an experiment store, the assembled results are exchanged for
	// their store-read copies before anything downstream sees them.
	if cfg.Exp != nil {
		misses, rbErr := storeReadBack(cfg.Exp, out, ex)
		if rbErr != nil {
			errs = append(errs, rbErr)
		}
		if cfg.ExpMisses != nil {
			cfg.ExpMisses(misses)
		}
	}
	return out, errors.Join(errs...)
}
