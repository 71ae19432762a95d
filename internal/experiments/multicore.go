package experiments

// Multi-core co-scheduled sweeps: one scenario (an ordered workload→core
// assignment) simulated under every converter variant on an N-core lockstep
// system with a shared LLC.
//
// Core IDs are labels, not architecture: the engine canonicalizes every
// assignment by sorting its workloads by name, simulates the canonical
// order, and maps per-core results back through the permutation. Two
// assignments that are permutations of each other therefore produce
// permuted per-core statistics, bit-identical aggregates, and one shared
// result-cache entry — the core-permutation-symmetry conformance oracle
// holds by construction, and guards against index-dependent behavior
// creeping into the engine.

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/resultcache"
	"tracerebase/internal/sim"
	"tracerebase/internal/synth"
)

// CoSchedResult is the outcome of one co-scheduled cell: per-core
// statistics in assignment order (Cores[i] ran the i-th assigned workload)
// plus the system-throughput aggregate.
type CoSchedResult struct {
	Cores     []sim.Stats `json:"cores"`
	Aggregate sim.Stats   `json:"aggregate"`
	// Conv holds per-core converter statistics (zero for idle slots).
	Conv []core.Stats `json:"conv"`
}

// MultiCache is the content-addressed store for co-scheduled cell results.
// It shares the cache root with ResultCache but lives under a "multi"
// subdirectory: the value types differ, so the stores must not mix.
type MultiCache = resultcache.Cache[CoSchedResult]

// OpenMultiCache opens the multi-core result cache under dir ("" = the
// DefaultCacheDir resolution) with the given size bound.
func OpenMultiCache(dir string, maxBytes int64) (*MultiCache, error) {
	if dir == "" {
		var err error
		dir, err = DefaultCacheDir()
		if err != nil {
			return nil, err
		}
	}
	return resultcache.Open[CoSchedResult](
		resultcache.Config{Dir: dir + "/multi", MaxBytes: maxBytes},
		resultcache.GobCodec[CoSchedResult]{},
	)
}

// MultiTraceResult bundles every variant's result for one co-schedule.
type MultiTraceResult struct {
	Scenario  string                   `json:"scenario"`
	Workloads []synth.Profile          `json:"workloads"` // assignment order; empty Name = idle slot
	Results   map[string]CoSchedResult `json:"results"`
}

// RenderCoSchedule prints one co-schedule's per-core and aggregate IPC for
// every variant, in the canonical variant order.
func RenderCoSchedule(w io.Writer, res MultiTraceResult) {
	fmt.Fprintf(w, "Co-schedule %s on %d cores:\n", res.Scenario, len(res.Workloads))
	for i, p := range res.Workloads {
		name := p.Name
		if name == "" {
			name = "(idle)"
		}
		fmt.Fprintf(w, "  core %d: %s\n", i, name)
	}
	fmt.Fprintf(w, "  %-14s", "variant")
	for i := range res.Workloads {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("c%d IPC", i))
	}
	fmt.Fprintf(w, " %10s\n", "aggregate")
	for _, v := range Variants() {
		r, ok := res.Results[v.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-14s", v.Name)
		for _, cs := range r.Cores {
			fmt.Fprintf(w, " %8.3f", cs.IPC())
		}
		fmt.Fprintf(w, " %10.3f\n", r.Aggregate.IPC())
	}
}

// multiSimConfigFor is simConfigFor plus the sweep's multi-core knobs: core
// count, shared-LLC policy override, and DRAM-port bandwidth.
func (c *SweepConfig) multiSimConfigFor(opts core.Options) sim.Config {
	sc := c.simConfigFor(opts)
	sc.Cores = c.Cores
	if c.LLCPolicy != "" {
		sc.Hierarchy.LLC.Policy = c.LLCPolicy
	}
	sc.MemBandwidth = c.MemBandwidth
	return sc
}

// multiCacheKey derives the content address of one co-scheduled cell. The
// per-slot profile hashes are mixed in canonical (sorted) order — the only
// order the engine ever simulates — so permuted assignments share entries.
// The simulator configuration identity covers core count, shared-LLC
// policy, and port bandwidth.
func multiCacheKey(profiles []synth.Profile, opts core.Options, cfg sim.Config, instructions int, warmup uint64) resultcache.Key {
	h := resultcache.NewHasher("tracerebase/multiresult").
		U64(resultcache.SchemaVersion).
		Str(resultcache.Fingerprint())
	for i := range profiles {
		var ph resultcache.Key
		if profiles[i].Name != "" {
			ph = profileHash(&profiles[i])
		}
		h.Bytes(ph[:])
	}
	oh := optionsHash(opts)
	ch := configHash(cfg)
	return h.Bytes(oh[:]).Bytes(ch[:]).
		U64(uint64(instructions)).U64(warmup).Sum()
}

// canonicalize returns the workloads sorted by name plus the mapping from
// assignment slots to canonical slots (canonOf[assigned] = canonical).
// Idle slots (empty Name) sort first; ties (identical re-seeded instances
// never tie, but identical profiles may) are broken stably, which is sound
// because equal profiles generate equal instruction streams.
func canonicalize(workloads []synth.Profile) (canon []synth.Profile, canonOf []int) {
	order := make([]int, len(workloads))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return workloads[order[a]].Name < workloads[order[b]].Name
	})
	canon = make([]synth.Profile, len(workloads))
	canonOf = make([]int, len(workloads))
	for ci, ai := range order {
		canon[ci] = workloads[ai]
		canonOf[ai] = ci
	}
	return canon, canonOf
}

// runMultiVariant simulates one variant of the co-schedule in lockstep,
// with classes[i] the class of the canonical workload on core i (nil for
// an idle core): each core reads its records through the executor's input,
// from a slab or from a converter streaming over the workload's
// instructions. Two cores running the same workload read one slab through
// two sources.
func (c *SweepConfig) runMultiVariant(canon []synth.Profile, classes []*classInput, simCfg sim.Config) (CoSchedResult, error) {
	n := len(canon)
	srcs := make([]champtrace.Source, n)
	convStats := make([]func() core.Stats, n)
	var cleanups []func()
	defer func() {
		for _, c := range cleanups {
			c()
		}
	}()
	for i, in := range classes {
		if in == nil {
			continue // idle slot
		}
		src, conv, cleanup, err := c.input(&canon[i], in)
		if err != nil {
			if in.tr.genErr() != nil {
				err = fmt.Errorf("experiments: generate %s: %w", canon[i].Name, err)
			}
			return CoSchedResult{}, err
		}
		srcs[i], convStats[i] = src, conv
		cleanups = append(cleanups, cleanup)
	}
	stats, err := sim.RunMulti(srcs, simCfg, c.Warmup, 0)
	if err != nil {
		return CoSchedResult{}, err
	}
	res := CoSchedResult{
		Cores: append([]sim.Stats(nil), stats...),
		Conv:  make([]core.Stats, n),
	}
	res.Aggregate = sim.AggregateStats(res.Cores)
	for i := range convStats {
		if convStats[i] != nil {
			res.Conv[i] = convStats[i]()
		}
	}
	return res, nil
}

// RunMultiSweep simulates one co-schedule under every variant of cfg on
// cfg.Cores lockstep cores. workloads assigns one profile per core slot
// (empty Name = idle core) and must have exactly cfg.Cores entries.
// Variants run on a bounded worker pool; results are assembled
// deterministically, so the output is byte-identical at any parallelism.
//
// Like the cell executor, it is result-first: every variant is looked up
// in MultiCache before any input work. Each active canonical workload of
// a missed variant is then a trace to the executor's input, and each
// (workload, missed variant) pair a single-cell class of it, so a
// workload's missing slabs come from one streamed pass and, without a
// slab store, its instructions are generated once and dropped after its
// last variant.
func RunMultiSweep(scenario string, workloads []synth.Profile, cfg SweepConfig) (MultiTraceResult, error) {
	if err := cfg.fill(); err != nil {
		return MultiTraceResult{}, err
	}
	if cfg.Cores < 1 {
		return MultiTraceResult{}, fmt.Errorf("experiments: multi-core sweep needs Cores >= 1, got %d", cfg.Cores)
	}
	if len(workloads) != cfg.Cores {
		return MultiTraceResult{}, fmt.Errorf("experiments: %d workloads for %d cores", len(workloads), cfg.Cores)
	}
	if cfg.SamplePeriod > 0 {
		return MultiTraceResult{}, fmt.Errorf("experiments: multi-core sweeps are exact-mode only (sampling is single-core)")
	}
	canon, canonOf := canonicalize(workloads)

	nv := len(cfg.Variants)
	simCfgs := make([]sim.Config, nv)
	keys := make([]resultcache.Key, nv)
	canonRes := make([]CoSchedResult, nv)
	traces := make([]traceInput, len(canon))
	classes := make([][]*classInput, nv)
	var misses []int
	for vi, v := range cfg.Variants {
		simCfgs[vi] = cfg.multiSimConfigFor(v.Opts)
		if cfg.MultiCache != nil {
			keys[vi] = multiCacheKey(canon, v.Opts, simCfgs[vi], cfg.Instructions, cfg.Warmup)
			var ok bool
			if canonRes[vi], ok = cfg.MultiCache.Lookup(keys[vi]); ok {
				continue
			}
		}
		misses = append(misses, vi)
		classes[vi] = make([]*classInput, len(canon))
		for i := range canon {
			if canon[i].Name == "" {
				continue
			}
			tr := &traces[i]
			in := &classInput{trace: i, tr: tr, opts: v.Opts, cells: 1}
			in.left.Store(1)
			tr.users.Add(1)
			tr.opts = append(tr.opts, v.Opts)
			classes[vi][i] = in
		}
	}
	cellErrs := make([]error, nv)
	forEach(len(misses), cfg.Parallelism, func(k int) {
		vi := misses[k]
		compute := func() (CoSchedResult, error) {
			return cfg.runMultiVariant(canon, classes[vi], simCfgs[vi])
		}
		var res CoSchedResult
		var err error
		if cfg.MultiCache != nil {
			res, err = cfg.MultiCache.GetOrCompute(keys[vi], compute)
		} else {
			res, err = compute()
		}
		for _, in := range classes[vi] {
			if in != nil {
				in.release()
			}
		}
		if err != nil {
			cellErrs[vi] = fmt.Errorf("experiments: %s/%s: %w", scenario, cfg.Variants[vi].Name, err)
			return
		}
		canonRes[vi] = res
	})

	out := MultiTraceResult{
		Scenario:  scenario,
		Workloads: workloads,
		Results:   make(map[string]CoSchedResult, nv),
	}
	var errs []error
	for vi, v := range cfg.Variants {
		if err := cellErrs[vi]; err != nil {
			errs = append(errs, err)
			continue
		}
		// Map canonical per-core results back to assignment order. The
		// aggregate is order-free and carried over as computed.
		res := canonRes[vi]
		mapped := CoSchedResult{
			Cores:     make([]sim.Stats, cfg.Cores),
			Aggregate: res.Aggregate,
			Conv:      make([]core.Stats, cfg.Cores),
		}
		for ai, ci := range canonOf {
			mapped.Cores[ai] = res.Cores[ci]
			mapped.Conv[ai] = res.Conv[ci]
		}
		out.Results[v.Name] = mapped
	}
	return out, errors.Join(errs...)
}
