// Package tracerebase benchmarks regenerate each table and figure of the
// paper at a reduced scale (subsampled suites, shorter traces) so the whole
// harness runs in minutes. Each benchmark reports the experiment's headline
// numbers as custom metrics; `cmd/rebase` produces the full-scale versions.
package tracerebase

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/cvp"
	"tracerebase/internal/cvpsim"
	"tracerebase/internal/experiments"
	"tracerebase/internal/resultcache"
	"tracerebase/internal/sim"
	"tracerebase/internal/sim/bpred"
	"tracerebase/internal/sim/cpu"
	"tracerebase/internal/sim/dprefetch"
	"tracerebase/internal/sim/mem"
	"tracerebase/internal/synth"
	"tracerebase/internal/tracestore"
	"tracerebase/internal/vp"
)

// benchSweepConfig is the reduced-scale configuration shared by the figure
// benchmarks.
func benchSweepConfig() experiments.SweepConfig {
	return experiments.SweepConfig{Instructions: 40000, Warmup: 15000, Parallelism: 2}
}

// benchProfiles subsamples the public suite (every 9th trace = 15 traces).
func benchProfiles() []synth.Profile {
	suite := synth.PublicSuite()
	var out []synth.Profile
	for i := 0; i < len(suite); i += 9 {
		out = append(out, suite[i])
	}
	return out
}

// benchIPC1 subsamples the IPC-1 suite (every 10th trace = 5 traces).
func benchIPC1() []synth.IPC1Trace {
	suite := synth.IPC1Suite()
	var out []synth.IPC1Trace
	for i := 0; i < len(suite); i += 10 {
		out = append(out, suite[i])
	}
	return out
}

// BenchmarkTable1Improvements renders the improvement summary (Table 1).
func BenchmarkTable1Improvements(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		experiments.RenderTable1(&buf)
		if buf.Len() == 0 {
			b.Fatal("empty render")
		}
	}
}

// figureSweep runs the shared Figs. 1–5 sweep once per benchmark iteration.
func figureSweep(b *testing.B, variants []string) []experiments.TraceResult {
	b.Helper()
	cfg := benchSweepConfig()
	if variants != nil {
		all := experiments.Variants()
		var vs []experiments.Variant
		for _, v := range all {
			for _, want := range variants {
				if v.Name == want {
					vs = append(vs, v)
				}
			}
		}
		cfg.Variants = vs
	}
	results, err := experiments.RunSweep(benchProfiles(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return results
}

// BenchmarkFig1GeomeanIPCVariation regenerates Figure 1 and reports the
// geomean IPC deltas of the three headline improvement sets.
func BenchmarkFig1GeomeanIPCVariation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig1(figureSweep(b, nil))
		for _, r := range rows {
			switch r.Variant {
			case experiments.VariantMemory:
				b.ReportMetric(r.GeomeanDeltaPct, "memory_dIPC_%")
			case experiments.VariantBranch:
				b.ReportMetric(r.GeomeanDeltaPct, "branch_dIPC_%")
			case experiments.VariantAll:
				b.ReportMetric(r.GeomeanDeltaPct, "all_dIPC_%")
			}
		}
	}
}

// BenchmarkFig2PerTraceVariation regenerates Figure 2 and reports how many
// traces shift beyond +/-5% under All_imps.
func BenchmarkFig2PerTraceVariation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Fig2(figureSweep(b, []string{
			experiments.VariantNone, experiments.VariantAll,
		}))
		for _, s := range series {
			if s.Variant == experiments.VariantAll {
				b.ReportMetric(float64(s.Above5+s.Below5), "traces_beyond_5pct")
			}
		}
	}
}

// BenchmarkFig3SlowdownVsBranchMPKI regenerates Figure 3 and reports the
// mean flag-reg slowdown of the high-MPKI half vs the low-MPKI half — the
// correlation the figure demonstrates.
func BenchmarkFig3SlowdownVsBranchMPKI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig3(figureSweep(b, []string{
			experiments.VariantNone, experiments.VariantFlagReg, experiments.VariantBranchRegs,
		}))
		half := len(rows) / 2
		var lo, hi float64
		for j, r := range rows {
			if j < half {
				lo += r.FlagRegSlowdownPct / float64(half)
			} else {
				hi += r.FlagRegSlowdownPct / float64(len(rows)-half)
			}
		}
		b.ReportMetric(lo, "lowMPKI_slowdown_%")
		b.ReportMetric(hi, "highMPKI_slowdown_%")
	}
}

// BenchmarkFig4BaseUpdateSpeedup regenerates Figure 4 and reports the
// speedup of the top vs bottom half by base-update load fraction.
func BenchmarkFig4BaseUpdateSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig4(figureSweep(b, []string{
			experiments.VariantNone, experiments.VariantBaseUpdate,
		}))
		half := len(rows) / 2
		var lo, hi float64
		for j, r := range rows {
			if j < half {
				lo += r.SpeedupPct / float64(half)
			} else {
				hi += r.SpeedupPct / float64(len(rows)-half)
			}
		}
		b.ReportMetric(lo, "fewupdates_speedup_%")
		b.ReportMetric(hi, "manyupdates_speedup_%")
	}
}

// BenchmarkFig5CallStack regenerates Figure 5 on the affected server subset
// and reports the return-MPKI reduction factor.
func BenchmarkFig5CallStack(b *testing.B) {
	// Use the BlrX30 subset directly so every simulated trace matters.
	var profiles []synth.Profile
	for _, p := range synth.PublicSuite() {
		if p.BlrX30Frac > 0 {
			profiles = append(profiles, p)
		}
	}
	profiles = profiles[:4]
	cfg := benchSweepConfig()
	cfg.Variants = []experiments.Variant{
		{Name: experiments.VariantNone, Opts: core.OptionsNone()},
		{Name: experiments.VariantCallStack, Opts: core.Options{CallStack: true}},
	}
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunSweep(profiles, cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows := experiments.Fig5(results)
		if len(rows) == 0 {
			b.Fatal("no affected traces found")
		}
		var orig, fixed float64
		for _, r := range rows {
			orig += r.RetMPKIOrig
			fixed += r.RetMPKIFixed
		}
		b.ReportMetric(orig/float64(len(rows)), "retMPKI_orig")
		b.ReportMetric(fixed/float64(len(rows)), "retMPKI_fixed")
	}
}

// BenchmarkTable2IPC1Characterization regenerates the Table 2
// characterization on the subsampled IPC-1 suite.
func BenchmarkTable2IPC1Characterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(benchSweepConfig(), benchIPC1())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanIPCDeltaPct, "mean_dIPC_%")
		b.ReportMetric(res.MeanTargetDeltaPct, "mean_dTargetMPKI_%")
	}
}

// BenchmarkTable3IPC1Ranking regenerates the IPC-1 championship ranking on
// the subsampled suite and reports the winner's speedup on both trace sets.
func BenchmarkTable3IPC1Ranking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(benchSweepConfig(), benchIPC1())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Competition[0].Speedup, "winner_speedup_competition")
		b.ReportMetric(res.Fixed[0].Speedup, "winner_speedup_fixed")
	}
}

// ---- Component throughput benchmarks ----

// BenchmarkTraceGeneration measures synthetic CVP-1 generation throughput.
func BenchmarkTraceGeneration(b *testing.B) {
	p := synth.PublicProfile(synth.ComputeInt, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Generate(20000); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(20000)
}

// BenchmarkConverterThroughput measures cvp2champsim conversion speed with
// all improvements enabled.
func BenchmarkConverterThroughput(b *testing.B) {
	p := synth.PublicProfile(synth.ComputeInt, 7)
	instrs, err := p.Generate(20000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.ConvertAll(cvp.NewSliceSource(instrs), core.OptionsAll()); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(20000)
}

// BenchmarkSimulatorThroughput measures the develop-model simulation speed
// in instructions per second (reported via bytes/s).
func BenchmarkSimulatorThroughput(b *testing.B) {
	p := synth.PublicProfile(synth.ComputeInt, 7)
	instrs, err := p.Generate(30000)
	if err != nil {
		b.Fatal(err)
	}
	recs, _, err := core.ConvertAll(cvp.NewSliceSource(instrs), core.OptionsAll())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(champtrace.NewSliceSource(recs), sim.ConfigDevelop(champtrace.RulesPatched), 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(recs)))
}

// BenchmarkTraceGenerationStreaming measures the pull-based generator
// emitting into one recycled slab — the allocation-free counterpart of
// BenchmarkTraceGeneration.
func BenchmarkTraceGenerationStreaming(b *testing.B) {
	p := synth.PublicProfile(synth.ComputeInt, 7)
	slab := cvp.MakeBatch(cvp.DefaultBatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := p.Stream(20000)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := s.NextBatch(slab); err != nil {
				break
			}
		}
		s.Close()
	}
	b.SetBytes(20000)
}

// BenchmarkConvertSimulateMaterialized is the pre-streaming convert+simulate
// path: generate to []*Instruction, convert all of it to boxed records, then
// simulate from the materialized slice. Pair with
// BenchmarkConvertSimulateStreaming to see the allocation difference.
func BenchmarkConvertSimulateMaterialized(b *testing.B) {
	p := synth.PublicProfile(synth.ComputeInt, 7)
	instrs, err := p.Generate(30000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, _, err := core.ConvertAll(cvp.NewSliceSource(instrs), core.OptionsAll())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(champtrace.NewSliceSource(recs), sim.ConfigDevelop(champtrace.RulesPatched), 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(30000)
}

// BenchmarkConvertSimulateStreaming is the same work on the streaming path:
// the simulator pulls pool-recycled conversion batches straight from the
// shared CVP value slab, materializing nothing.
func BenchmarkConvertSimulateStreaming(b *testing.B) {
	p := synth.PublicProfile(synth.ComputeInt, 7)
	instrs, err := p.GenerateBatch(30000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := core.NewConverterSource(cvp.NewValuesSource(instrs), core.OptionsAll())
		if _, err := sim.Run(cs, sim.ConfigDevelop(champtrace.RulesPatched), 0, 0); err != nil {
			b.Fatal(err)
		}
		cs.Close()
	}
	b.SetBytes(30000)
}

// BenchmarkSweepStreaming measures the full streaming sweep engine — the
// (trace, variant) work queue with shared generation — on a small
// trace-set/variant grid, reporting allocations.
func BenchmarkSweepStreaming(b *testing.B) {
	profiles := benchProfiles()[:4]
	cfg := benchSweepConfig()
	cfg.Variants = nil // all ten variants
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweep(profiles, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Compiled-trace store benchmarks ----

// benchSlabKey derives a distinct slab key per iteration for the store
// benchmarks (the production keying lives in the experiments layer).
func benchSlabKey(i int) tracestore.Key {
	return resultcache.NewHasher("tracerebase/bench-slab").U64(uint64(i)).Sum()
}

// BenchmarkSlabConvert measures a cold slab-store miss end to end: convert
// into the store's recycled scratch, persist the slab file, and remap it for
// serving. Steady-state allocations stay near zero because the conversion
// scratch cycles through the store's pool.
func BenchmarkSlabConvert(b *testing.B) {
	p := synth.PublicProfile(synth.ComputeInt, 7)
	instrs, err := p.GenerateBatch(20000)
	if err != nil {
		b.Fatal(err)
	}
	store, err := tracestore.Open(tracestore.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sl, err := store.GetOrConvert(benchSlabKey(i), func(scratch []champtrace.Instruction) ([]champtrace.Instruction, core.Stats, error) {
			return core.ConvertAllInto(scratch, cvp.NewValuesSource(instrs), core.OptionsAll())
		})
		if err != nil {
			b.Fatal(err)
		}
		sl.Release()
	}
	b.SetBytes(20000)
}

// BenchmarkSlabLoad measures the path every cell after a class's first
// sees: taking a reference on a slab another holder keeps mapped, walking
// its zero-copy record view, and releasing it. The contract is 0 B/op — a
// shared-mapping hit must allocate nothing.
func BenchmarkSlabLoad(b *testing.B) {
	store, key, recCount := benchSlabStore(b)
	held, ok := store.Get(key)
	if !ok {
		b.Fatal("persisted slab missed")
	}
	defer held.Release()
	b.ReportAllocs()
	b.ResetTimer()
	var ips uint64
	for i := 0; i < b.N; i++ {
		sl, ok := store.Get(key)
		if !ok {
			b.Fatal("held slab missed")
		}
		recs := sl.Records()
		for j := range recs {
			ips += recs[j].IP
		}
		sl.Release()
	}
	b.SetBytes(int64(recCount * champtrace.RecordSize))
	if ips == 0 {
		b.Fatal("empty records")
	}
	if s := store.Stats(); s.MemHits != uint64(b.N) {
		b.Fatalf("%d mem hits over %d lookups: the held mapping was not shared", s.MemHits, b.N)
	}
}

// BenchmarkSlabMap measures the path each class's first cell pays now
// that no unreferenced slab stays mapped: mapping the slab file,
// validating its checksum, and unmapping it at the Release.
func BenchmarkSlabMap(b *testing.B) {
	store, key, recCount := benchSlabStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sl, ok := store.Get(key)
		if !ok {
			b.Fatal("persisted slab missed")
		}
		sl.Release()
	}
	b.SetBytes(int64(recCount * champtrace.RecordSize))
	if s := store.Stats(); s.DiskHits != uint64(b.N) {
		b.Fatalf("%d disk hits over %d lookups: a released slab stayed mapped", s.DiskHits, b.N)
	}
}

// benchSlabStore persists one 20000-instruction slab into a fresh store and
// returns the store, the slab's key and its record count, with no
// reference held.
func benchSlabStore(b *testing.B) (*tracestore.Store, tracestore.Key, int) {
	b.Helper()
	p := synth.PublicProfile(synth.ComputeInt, 7)
	instrs, err := p.GenerateBatch(20000)
	if err != nil {
		b.Fatal(err)
	}
	store, err := tracestore.Open(tracestore.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(store.Close)
	key := benchSlabKey(0)
	sl, err := store.GetOrConvert(key, func(scratch []champtrace.Instruction) ([]champtrace.Instruction, core.Stats, error) {
		return core.ConvertAllInto(scratch, cvp.NewValuesSource(instrs), core.OptionsAll())
	})
	if err != nil {
		b.Fatal(err)
	}
	n := sl.Len()
	sl.Release()
	return store, key, n
}

// BenchmarkTAGESCLPredict measures direction-predictor throughput.
func BenchmarkTAGESCLPredict(b *testing.B) {
	pred, err := bpred.New("tage-sc-l")
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	pcs := make([]uint64, 1024)
	outcomes := make([]bool, 1024)
	for i := range pcs {
		pcs[i] = 0x400000 + uint64(r.Intn(256))*4
		outcomes[i] = r.Intn(3) > 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(pcs)
		pred.Predict(pcs[j])
		pred.Update(pcs[j], outcomes[j])
	}
}

// BenchmarkPipeline measures the steady-state cycle loop of the simulated
// core on a reusable Pipeline: the first Run warms every high-water-mark
// buffer, after which each full simulated interval (pipeline + hierarchy +
// predictors + prefetchers) must run with 0 allocs/op — the arena/ring
// refactor's contract.
func BenchmarkPipeline(b *testing.B) {
	p := synth.PublicProfile(synth.ComputeInt, 7)
	instrs, err := p.Generate(30000)
	if err != nil {
		b.Fatal(err)
	}
	recs, _, err := core.ConvertAll(cvp.NewSliceSource(instrs), core.OptionsAll())
	if err != nil {
		b.Fatal(err)
	}
	src := champtrace.NewSliceSource(recs)
	pipe, err := cpu.New(sim.ConfigDevelop(champtrace.RulesPatched))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := pipe.Run(src, 0, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var st sim.Stats
	for i := 0; i < b.N; i++ {
		src.Reset()
		if st, err = pipe.Run(src, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(recs)))
	reportKIPS(b, st)
}

// reportKIPS reports simulated speed in thousands of retired instructions
// per host second, ChampSim's speed metric, for b.N runs that each
// retired st.Instructions.
func reportKIPS(b *testing.B, st sim.Stats) {
	b.ReportMetric(float64(st.Instructions)*float64(b.N)/b.Elapsed().Seconds()/1e3, "kips")
}

// BenchmarkPipelineIdleHeavy is BenchmarkPipeline on the stress profile the
// event-horizon skipper was built for: a serialized pointer chase where the
// core idles on DRAM for hundreds of cycles per instruction. The same
// 0 allocs/op contract applies — the skipper's next-event register is plain
// pipeline state — and the benchmark reports what fraction of simulated
// cycles were jumped rather than ticked (the skipfrac metric).
func BenchmarkPipelineIdleHeavy(b *testing.B) {
	p := synth.StressIdle()
	instrs, err := p.Generate(30000)
	if err != nil {
		b.Fatal(err)
	}
	recs, _, err := core.ConvertAll(cvp.NewSliceSource(instrs), core.OptionsAll())
	if err != nil {
		b.Fatal(err)
	}
	src := champtrace.NewSliceSource(recs)
	pipe, err := cpu.New(sim.ConfigDevelop(champtrace.RulesPatched))
	if err != nil {
		b.Fatal(err)
	}
	var st sim.Stats
	if st, err = pipe.Run(src, 0, 0); err != nil {
		b.Fatal(err)
	}
	if st.SkippedCycles == 0 {
		b.Fatal("idle-heavy trace skipped no cycles; the stress profile has lost its purpose")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset()
		if st, err = pipe.Run(src, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(recs)))
	reportKIPS(b, st)
	b.ReportMetric(float64(st.SkippedCycles)/float64(st.Cycles), "skipfrac")
}

// BenchmarkMultiCorePipeline is BenchmarkPipeline at N=4: the thrash
// co-schedule on four lockstep cores over a per-core-aware shared LLC and a
// bandwidth-limited DRAM port. The per-core arenas keep the whole system at
// 0 allocs/op in steady state; throughput counts the records of all cores.
// skipfrac reports the cross-core event-horizon jumps of the cold first run
// (legal only when no core can progress, so the fraction is structurally
// below the single-core benchmarks'); the timed reuse runs see warm caches —
// each 15k-instruction trace's working set fits in the LLC — so their joint
// stalls, and hence their skips, collapse toward zero.
func BenchmarkMultiCorePipeline(b *testing.B) {
	const cores = 4
	cfg := sim.ConfigDevelop(champtrace.RulesPatched)
	cfg.Cores = cores
	cfg.Hierarchy.LLC.Policy = "shared-srrip"
	cfg.MemBandwidth = 4
	workloads, err := synth.CoSchedule("thrash", cores)
	if err != nil {
		b.Fatal(err)
	}
	srcs := make([]champtrace.Source, cores)
	slices := make([]*champtrace.SliceSource, cores)
	total := 0
	for i, p := range workloads {
		instrs, err := p.Generate(15000)
		if err != nil {
			b.Fatal(err)
		}
		recs, _, err := core.ConvertAll(cvp.NewSliceSource(instrs), core.OptionsAll())
		if err != nil {
			b.Fatal(err)
		}
		s := champtrace.NewSliceSource(recs)
		slices[i] = s
		srcs[i] = s
		total += len(recs)
	}
	m, err := cpu.NewMulti(cfg)
	if err != nil {
		b.Fatal(err)
	}
	out, err := m.Run(srcs, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	var skipped, cycles uint64
	for _, st := range out {
		skipped += st.SkippedCycles
		cycles += st.Cycles
	}
	if skipped == 0 {
		b.Fatal("cold co-scheduled run skipped no cycles; the thrash scenario has lost its purpose")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range slices {
			s.Reset()
		}
		if _, err = m.Run(srcs, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(total))
	b.ReportMetric(float64(skipped)/float64(cycles), "skipfrac")
}

// BenchmarkHierarchy is BenchmarkPipeline's memory-side pair: a mixed
// read/write stream against the full four-level hierarchy with the develop
// configuration's data prefetchers attached, asserting the flat cache tables
// and reusable prefetch buffers hold at 0 allocs/op in steady state.
func BenchmarkHierarchy(b *testing.B) {
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	if pf, err := dprefetch.New("ip-stride"); err == nil && pf != nil {
		h.L1D.SetPrefetcher(pf)
	}
	if pf, err := dprefetch.New("next-line"); err == nil && pf != nil {
		h.L2.SetPrefetcher(pf)
	}
	r := rand.New(rand.NewSource(3))
	addrs := make([]uint64, 4096)
	ips := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = 0x10000000 + uint64(r.Intn(1<<16))*64
		ips[i] = 0x400000 + uint64(r.Intn(512))*4
	}
	// Warm the MSHR lists and prefetch buffers to their high-water marks.
	for i := 0; i < len(addrs); i++ {
		h.L1D.AccessIP(addrs[i], ips[i], uint64(i), mem.Read)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(addrs)
		kind := mem.Read
		if j%7 == 0 {
			kind = mem.Write
		}
		h.L1D.AccessIP(addrs[j], ips[j], uint64(i), kind)
	}
}

// BenchmarkCacheHierarchyAccess measures the latency-propagation cache
// model's access throughput.
func BenchmarkCacheHierarchyAccess(b *testing.B) {
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	r := rand.New(rand.NewSource(2))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = 0x10000000 + uint64(r.Intn(1<<16))*64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.L1D.Access(addrs[i%len(addrs)], uint64(i), mem.Read)
	}
}

// ---- Ablation benchmarks (design choices called out in DESIGN.md) ----

// ablationIPC runs one trace through a config and returns its IPC.
func ablationIPC(b *testing.B, cfg sim.Config) float64 {
	b.Helper()
	p := synth.PublicProfile(synth.Server, 30)
	instrs, err := p.Generate(60000)
	if err != nil {
		b.Fatal(err)
	}
	recs, _, err := core.ConvertAll(cvp.NewSliceSource(instrs), core.OptionsAll())
	if err != nil {
		b.Fatal(err)
	}
	st, err := sim.Run(champtrace.NewSliceSource(recs), cfg, 20000, 0)
	if err != nil {
		b.Fatal(err)
	}
	return st.IPC()
}

// BenchmarkAblationDecoupledFrontEnd quantifies the decoupled front-end
// (FTQ + fetch-directed prefetch) against a coupled fetch on a server
// trace — the modeling choice §4.4 flags as decisive for instruction
// prefetching studies.
func BenchmarkAblationDecoupledFrontEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dec := sim.ConfigDevelop(champtrace.RulesPatched)
		cup := dec
		cup.Decoupled = false
		b.ReportMetric(ablationIPC(b, dec), "ipc_decoupled")
		b.ReportMetric(ablationIPC(b, cup), "ipc_coupled")
	}
}

// BenchmarkAblationITTAGE quantifies the indirect target predictor against
// BTB-only target prediction.
func BenchmarkAblationITTAGE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := sim.ConfigDevelop(champtrace.RulesPatched)
		without := with
		without.UseITTAGE = false
		b.ReportMetric(ablationIPC(b, with), "ipc_ittage")
		b.ReportMetric(ablationIPC(b, without), "ipc_btb_only")
	}
}

// BenchmarkAblationDataPrefetchers quantifies the Icelake-like L1D
// ip-stride + L2 next-line data prefetchers of the §4 configuration.
func BenchmarkAblationDataPrefetchers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := sim.ConfigDevelop(champtrace.RulesPatched)
		without := with
		without.L1DPrefetcher = "none"
		without.L2Prefetcher = "none"
		b.ReportMetric(ablationIPC(b, with), "ipc_prefetch")
		b.ReportMetric(ablationIPC(b, without), "ipc_noprefetch")
	}
}

// BenchmarkAblationLLCReplacement compares LLC replacement policies on a
// thrash-prone server workload.
func BenchmarkAblationLLCReplacement(b *testing.B) {
	for _, policy := range []string{"lru", "srrip", "drrip"} {
		b.Run(policy, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sim.ConfigDevelop(champtrace.RulesPatched)
				cfg.Hierarchy.LLC.Policy = policy
				b.ReportMetric(ablationIPC(b, cfg), "ipc")
			}
		})
	}
}

// BenchmarkAblationBranchPredictors compares the direction predictors
// available to the core on one branchy workload.
func BenchmarkAblationBranchPredictors(b *testing.B) {
	for _, name := range []string{"bimodal", "gshare", "tage", "tage-sc-l"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sim.ConfigDevelop(champtrace.RulesPatched)
				cfg.Predictor = name
				b.ReportMetric(ablationIPC(b, cfg), "ipc")
			}
		})
	}
}

// BenchmarkInstructionPrefetchers times each contest prefetcher on one
// icache-heavy IPC-1 trace and reports its speedup over no prefetching.
func BenchmarkInstructionPrefetchers(b *testing.B) {
	tr, ok := synth.FindIPC1("server_030")
	if !ok {
		b.Fatal("server_030 missing")
	}
	instrs, err := tr.Profile.Generate(60000)
	if err != nil {
		b.Fatal(err)
	}
	recs, _, err := core.ConvertAll(cvp.NewSliceSource(instrs), core.OptionsNone())
	if err != nil {
		b.Fatal(err)
	}
	baseSt, err := sim.Run(champtrace.NewSliceSource(recs), sim.ConfigIPC1("none", champtrace.RulesOriginal), 20000, 0)
	if err != nil {
		b.Fatal(err)
	}
	base := baseSt.IPC()
	for _, pf := range []string{"next-line", "epi", "djolt", "fnl-mma", "barca", "pips", "jip", "mana", "tap"} {
		b.Run(pf, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := sim.Run(champtrace.NewSliceSource(recs), sim.ConfigIPC1(pf, champtrace.RulesOriginal), 20000, 0)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(st.IPC()/base, "speedup")
			}
		})
	}
}

// TestBenchmarkHelpers keeps the subsampling helpers honest.
func TestBenchmarkHelpers(t *testing.T) {
	if n := len(benchProfiles()); n != 15 {
		t.Errorf("benchProfiles: %d traces, want 15", n)
	}
	if n := len(benchIPC1()); n != 5 {
		t.Errorf("benchIPC1: %d traces, want 5", n)
	}
	names := map[string]bool{}
	for _, p := range benchProfiles() {
		if names[p.Name] {
			t.Errorf("duplicate %s", p.Name)
		}
		names[p.Name] = true
	}
	_ = fmt.Sprintf // keep fmt imported for future debug output
}

// BenchmarkValuePredictors runs the CVP-1 mini championship per predictor,
// reporting coverage and accuracy on a public trace.
func BenchmarkValuePredictors(b *testing.B) {
	p := synth.PublicProfile(synth.ComputeInt, 7)
	instrs, err := p.Generate(40000)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range vp.Names() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pred, err := vp.New(name)
				if err != nil {
					b.Fatal(err)
				}
				res, err := vp.Evaluate(cvp.NewSliceSource(instrs), pred)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*res.Coverage(), "coverage_%")
				b.ReportMetric(100*res.Accuracy(), "accuracy_%")
			}
		})
	}
}

// BenchmarkCVP1ReferenceModel quantifies the §1 reference-simulator flaws:
// IPC with and without the CVP-2-era fixes on a writeback-heavy trace.
func BenchmarkCVP1ReferenceModel(b *testing.B) {
	p := synth.PublicProfile(synth.Crypto, 0) // high base-update fraction
	instrs, err := p.Generate(60000)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		flawed := cvpsim.DefaultConfig()
		fixed := cvpsim.DefaultConfig()
		fixed.CVP2Fixes = true
		fs, err := cvpsim.Run(cvp.NewSliceSource(instrs), flawed)
		if err != nil {
			b.Fatal(err)
		}
		xs, err := cvpsim.Run(cvp.NewSliceSource(instrs), fixed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fs.IPC(), "ipc_flawed")
		b.ReportMetric(xs.IPC(), "ipc_cvp2fixed")
	}
}
