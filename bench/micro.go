package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"time"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/cvp"
	"tracerebase/internal/experiments"
	"tracerebase/internal/expstore"
	"tracerebase/internal/report"
	"tracerebase/internal/resultcache"
	"tracerebase/internal/sim"
	"tracerebase/internal/synth"
)

// The microbenchmarks call one public function of one layer at a time, on
// cells the seed picks from the reference suites, so each layer's speed is
// measured apart from the others. Each repeats its call for a quarter of a
// second and reports the median.

// repeat calls f until a quarter second has passed and at least three
// calls were made, and returns each call's duration in seconds.
func (h *harness) repeat(f func() error) ([]float64, error) {
	budget := 250 * time.Millisecond
	if h.maxOps > 0 {
		budget = 0
	}
	var ds []float64
	for start := time.Now(); len(ds) < 3 || time.Since(start) < budget; {
		t0 := time.Now()
		if err := f(); err != nil {
			return ds, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return ds, nil
}

// micro runs the layer microbenchmarks over dir, a store filled by a pass.
func (h *harness) micro(t *tally, dir string, tr *tracer, m map[string]metric) {
	rng := rand.New(rand.NewPCG(h.seed, 0xbe7c))
	profiles := report.Subsample(synth.PublicSuite(), h.cfg.Step)
	p := profiles[rng.IntN(len(profiles))]
	v := experiments.Variants()[rng.IntN(len(experiments.Variants()))]
	ipc1s := report.SubsampleIPC1(synth.IPC1Suite(), h.cfg.Step)
	ipc1 := ipc1s[rng.IntN(len(ipc1s))]
	pf := experiments.Table3Prefetchers[rng.IntN(len(experiments.Table3Prefetchers))]
	fmt.Fprintf(os.Stderr, "bench: microbenchmark cells: %s/%s (develop), %s/%s (ipc1)\n", p.Name, v.Name, ipc1.Name, pf)
	n := float64(h.cfg.Instructions)

	var instrs []cvp.Instruction
	var recs []champtrace.Instruction
	var conv core.Stats
	var st sim.Stats
	run := func(name string, f func() error) []float64 {
		var ds []float64
		var err error
		tr.region("micro."+name, func() { ds, err = h.repeat(f) })
		t.record(err)
		return ds
	}

	ds := run("generate", func() (err error) {
		instrs, err = p.GenerateBatch(h.cfg.Instructions)
		return err
	})
	set(m, perLayerMetrics, "synth.generate_minstr_s", n/median(ds)/1e6)

	ds = run("convert", func() (err error) {
		recs, conv, err = core.ConvertAllInto(recs[:0], cvp.NewValuesSource(instrs), v.Opts)
		return err
	})
	set(m, perLayerMetrics, "core.convert_minstr_s", n/median(ds)/1e6)

	var persistMBs, mapGBs float64
	tr.region("micro.slabs", func() {
		var err error
		persistMBs, mapGBs, err = h.slabBench(recs, conv)
		t.record(err)
	})
	set(m, perLayerMetrics, "tracestore.persist_mb_s", persistMBs)
	set(m, perLayerMetrics, "tracestore.map_gb_s", mapGBs)

	developCfg := experiments.DevelopConfigFor(v.Opts)
	ds = run("sim.develop", func() (err error) {
		st, err = sim.Run(champtrace.NewValuesSource(recs), developCfg, h.cfg.Warmup, 0)
		return err
	})
	set(m, perLayerMetrics, "sim.develop_kips", n/median(ds)/1e3)

	ipc1Instrs, err := ipc1.Profile.GenerateBatch(h.cfg.Instructions)
	t.record(err)
	ipc1Recs, _, err := core.ConvertAllBatch(cvp.NewValuesSource(ipc1Instrs), core.OptionsNone())
	t.record(err)
	ipc1Cfg := sim.ConfigIPC1(pf, champtrace.RulesOriginal)
	ds = run("sim.ipc1", func() error {
		_, err := sim.Run(champtrace.NewValuesSource(ipc1Recs), ipc1Cfg, h.cfg.Warmup, 0)
		return err
	})
	set(m, perLayerMetrics, "sim.ipc1_kips", n/median(ds)/1e3)

	tr.region("micro.resultcache", func() {
		res := experiments.Result{IPC: st.IPC(), Sim: st, Conv: conv}
		get, put, err := h.cacheBench(res)
		t.record(err)
		set(m, perLayerMetrics, "resultcache.get_us", get)
		set(m, perLayerMetrics, "resultcache.put_us", put)
	})
	tr.region("micro.render", func() {
		ms, err := h.renderBench(dir)
		t.record(err)
		set(m, perLayerMetrics, "report.render_ms", ms)
	})
	tr.region("micro.expstore", func() { t.record(h.expstoreBench(dir, m)) })
}

// slabBench persists recs as new slabs (timing GetOrConvert minus its
// convert callback) and maps each back from disk in a freshly opened store
// (timing Get), returning MB/s written and GB/s mapped.
func (h *harness) slabBench(recs []champtrace.Instruction, conv core.Stats) (persistMBs, mapGBs float64, err error) {
	dir := h.tempDir("micro-slabs")
	defer os.RemoveAll(dir)
	store, err := experiments.OpenSlabStore(dir, 0, nil)
	if err != nil {
		return 0, 0, err
	}
	var keys []resultcache.Key
	var persistSec float64
	_, err = h.repeat(func() error {
		key := resultcache.NewHasher("bench/micro-slab").U64(uint64(len(keys))).Sum()
		keys = append(keys, key)
		var inConvert time.Duration
		start := time.Now()
		sl, err := store.GetOrConvert(key, func(scratch []champtrace.Instruction) ([]champtrace.Instruction, core.Stats, error) {
			t0 := time.Now()
			out := append(scratch[:0], recs...)
			inConvert = time.Since(t0)
			return out, conv, nil
		})
		persistSec += (time.Since(start) - inConvert).Seconds()
		if err != nil {
			return err
		}
		sl.Release()
		return nil
	})
	written := store.Stats().BytesWritten
	store.Close()
	if err != nil {
		return 0, 0, err
	}

	var mapSec float64
	var mapped uint64
	for _, key := range keys {
		s, err := experiments.OpenSlabStore(dir, 0, nil)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		sl, ok := s.Get(key)
		mapSec += time.Since(start).Seconds()
		if !ok {
			s.Close()
			return 0, 0, fmt.Errorf("slab %s not found after persisting it", key)
		}
		sl.Release()
		mapped += s.Stats().BytesMapped
		s.Close()
	}
	return float64(written) / persistSec / 1e6, float64(mapped) / mapSec / 1e9, nil
}

// cacheBench stores the encoded result under fresh keys in a disk backend
// and reads each back, returning the median Get and Put in microseconds.
func (h *harness) cacheBench(res experiments.Result) (getUS, putUS float64, err error) {
	dir := h.tempDir("micro-cache")
	defer os.RemoveAll(dir)
	disk, err := resultcache.NewDisk(resultcache.DiskConfig{Dir: dir})
	if err != nil {
		return 0, 0, err
	}
	defer disk.Close()
	payload, err := resultcache.GobCodec[experiments.Result]{}.Encode(res)
	if err != nil {
		return 0, 0, err
	}
	var keys []resultcache.Key
	puts, err := h.repeat(func() error {
		key := resultcache.NewHasher("bench/micro-cache").U64(uint64(len(keys))).Sum()
		keys = append(keys, key)
		return disk.Put(key, payload)
	})
	if err != nil {
		return 0, 0, err
	}
	var gets []float64
	for _, key := range keys {
		start := time.Now()
		if _, err := disk.Get(key); err != nil {
			return 0, 0, err
		}
		gets = append(gets, time.Since(start).Seconds())
	}
	return median(gets) * 1e6, median(puts) * 1e6, nil
}

// renderBench renders every configured table and figure from results
// already in memory (served from dir's result cache), returning the
// median milliseconds of one full rendering.
func (h *harness) renderBench(dir string) (float64, error) {
	cache, err := experiments.OpenResultCache(dir, 0)
	if err != nil {
		return 0, err
	}
	defer cache.Close()
	cfg := experiments.SweepConfig{Instructions: h.cfg.Instructions, Warmup: h.cfg.Warmup, Parallelism: h.nproc, Cache: cache}
	var renders []func(io.Writer)
	for _, g := range h.cfg.groups() {
		switch g.name {
		case "table1":
			renders = append(renders, experiments.RenderTable1)
		case "sweep":
			results, err := experiments.RunSweep(report.Subsample(synth.PublicSuite(), h.cfg.Step), cfg)
			if err != nil {
				return 0, err
			}
			renders = append(renders, func(w io.Writer) {
				experiments.RenderFig1(w, experiments.Fig1(results))
				experiments.RenderFig2(w, experiments.Fig2(results))
				experiments.RenderFig3(w, experiments.Fig3(results))
				experiments.RenderFig4(w, experiments.Fig4(results))
				experiments.RenderFig5(w, experiments.Fig5(results))
			})
		case "table2":
			res, err := experiments.Table2(cfg, report.SubsampleIPC1(synth.IPC1Suite(), h.cfg.Step))
			if err != nil {
				return 0, err
			}
			renders = append(renders, func(w io.Writer) { experiments.RenderTable2(w, res) })
		case "table3":
			res, err := experiments.Table3(cfg, report.SubsampleIPC1(synth.IPC1Suite(), h.cfg.Step))
			if err != nil {
				return 0, err
			}
			renders = append(renders, func(w io.Writer) { experiments.RenderTable3(w, res) })
		}
	}
	ds, err := h.repeat(func() error {
		for _, r := range renders {
			r(io.Discard)
		}
		return nil
	})
	return median(ds) * 1e3, err
}

// expstoreBench times the experiment store's read-back of the sweep's
// cells (Cells over the keys SweepConfig.CellKey derives) and the seeded
// query pool, and counts the bytes the queries read and the blocks they
// pruned.
func (h *harness) expstoreBench(dir string, m map[string]metric) error {
	store, err := expstore.Open(expstore.Config{Dir: dir + "/exp"})
	if err != nil {
		return err
	}
	defer store.Close()
	cfg := experiments.SweepConfig{Instructions: h.cfg.Instructions, Warmup: h.cfg.Warmup}
	var keys []expstore.Key
	for _, p := range report.Subsample(synth.PublicSuite(), h.cfg.Step) {
		for _, v := range experiments.Variants() {
			key, err := cfg.CellKey(p, v)
			if err != nil {
				return err
			}
			keys = append(keys, key)
		}
	}
	ds, err := h.repeat(func() error {
		cells, err := store.Cells(keys)
		if err == nil && len(cells) != len(keys) {
			err = fmt.Errorf("read-back found %d of %d sweep cells", len(cells), len(keys))
		}
		return err
	})
	if err != nil {
		return err
	}
	set(m, perLayerMetrics, "expstore.readback_ms", median(ds)*1e3)

	pool := queryPool(h.seed, h.cfg)
	var bytesRead, pruned int64
	var qs []float64
	for round := 0; round == 0 || (round < 50 && h.maxOps == 0); round++ {
		for _, q := range pool {
			start := time.Now()
			res, err := report.Query(store, q, false)
			if err != nil {
				return err
			}
			qs = append(qs, time.Since(start).Seconds())
			if round == 0 {
				bytesRead += res.Stats.BytesRead
				pruned += int64(res.Stats.BlocksPruned)
			}
		}
	}
	set(m, perLayerMetrics, "expstore.query_us", percentile(qs, 50)*1e6)
	set(m, perLayerMetrics, "expstore.query_bytes_read", float64(bytesRead))
	set(m, perLayerMetrics, "expstore.blocks_pruned", float64(pruned))
	return nil
}
