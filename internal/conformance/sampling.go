package conformance

// Sampling oracles: SMARTS-style sampled simulation (sim.Config.SamplePeriod)
// trades a pinned, bounded IPC error for speed, and everything else about it
// must stay exact — deterministic replay, cache keys disjoint from exact
// mode's, scheduling independence. These checks make those contracts part of
// `rebase -selftest`, alongside the golden corpus's pinned sampled counters.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"tracerebase/internal/core"
	"tracerebase/internal/experiments"
	"tracerebase/internal/sim"
	"tracerebase/internal/synth"
)

// selftestSampling sizes the selftest's sampled runs: SimInstructions-length
// traces are far shorter than production runs, so the period scales down with
// them (the golden corpus pins its own, manifest-recorded parameters).
func selftestSampling(n int) (period, detail, warm uint64) {
	period = uint64(n) / 8
	if period < 16 {
		period = 16
	}
	return period, period / 2, period / 4
}

func sampledCfg(opts core.Options, period, detail, warm uint64) sim.Config {
	cfg := develCfg(opts)
	cfg.SamplePeriod, cfg.SampleDetail, cfg.SampleWarm = period, detail, warm
	return cfg
}

// sampledCfgFor is sampledCfg at the selftest's n-scaled parameters.
func sampledCfgFor(opts core.Options, n int) sim.Config {
	period, detail, warm := selftestSampling(n)
	return sampledCfg(opts, period, detail, warm)
}

// CheckSampledDeterminism generates the profile's trace once and runs the
// sampled simulation twice, requiring bit-identical statistics: interval
// placement is a pure function of the trace (content-salted LCG), so sampled
// runs must replay exactly.
func CheckSampledDeterminism(p synth.Profile, n int, warmup uint64) error {
	instrs, err := p.GenerateBatch(n)
	if err != nil {
		return err
	}
	opts := core.OptionsAll()
	cfg := sampledCfgFor(opts, n)
	first, err := simulate(instrs, opts, cfg, warmup)
	if err != nil {
		return err
	}
	second, err := simulate(instrs, opts, cfg, warmup)
	if err != nil {
		return err
	}
	if first != second {
		return fmt.Errorf("%s: two sampled runs of the same trace diverge:\n first  %+v\n second %+v", p.Name, first, second)
	}
	if first.SampleIntervals == 0 {
		return fmt.Errorf("%s: sampled run measured no intervals (period too long for %d instructions?)", p.Name, n)
	}
	return nil
}

// CheckSampledKeyDisjoint proves that sampled and exact simulations can
// never share a result-cache entry, and that different sampling parameters
// key apart from each other: the sampling knobs participate in
// cpu.Config.Identity, so every (period, detail, warm) triple is its own
// cache universe.
func CheckSampledKeyDisjoint(p synth.Profile, n int, warmup uint64) error {
	opts := core.OptionsAll()
	period, detail, warm := selftestSampling(n)
	cfgs := []struct {
		name string
		cfg  sim.Config
	}{
		{"exact", develCfg(opts)},
		{"sampled", sampledCfg(opts, period, detail, warm)},
		{"sampled-period/2", sampledCfg(opts, period/2, detail/2, warm/2)},
		{"sampled-warm/2", sampledCfg(opts, period, detail, warm/2)},
	}
	seen := make(map[string]string, len(cfgs))
	for _, c := range cfgs {
		key := experiments.CacheKey(p, opts, c.cfg, n, warmup).Key
		if prev, dup := seen[key]; dup {
			return fmt.Errorf("%s: cache key collision between %s and %s configurations (key %s)",
				p.Name, prev, c.name, key)
		}
		seen[key] = c.name
	}
	return nil
}

// CheckSampledParallelism runs the same sampled sweep single-threaded and
// with parallelism workers and requires byte-identical results: interval
// schedules are per-trace deterministic, so worker scheduling must not leak
// into sampled statistics any more than into exact ones.
func CheckSampledParallelism(profiles []synth.Profile, instructions int, warmup uint64, parallelism int) error {
	if parallelism < 2 {
		parallelism = 4
	}
	period, detail, warm := selftestSampling(instructions)
	run := func(par int) ([]byte, error) {
		res, err := experiments.RunSweep(profiles, experiments.SweepConfig{
			Instructions: instructions,
			Warmup:       warmup,
			Parallelism:  par,
			SamplePeriod: period,
			SampleDetail: detail,
			SampleWarm:   warm,
		})
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	}
	serial, err := run(1)
	if err != nil {
		return fmt.Errorf("-parallel 1: %w", err)
	}
	concurrent, err := run(parallelism)
	if err != nil {
		return fmt.Errorf("-parallel %d: %w", parallelism, err)
	}
	if !bytes.Equal(serial, concurrent) {
		return fmt.Errorf("sampled sweep results differ between -parallel 1 and -parallel %d (%d vs %d JSON bytes)",
			parallelism, len(serial), len(concurrent))
	}
	return nil
}
