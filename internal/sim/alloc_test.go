package sim

import (
	"testing"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/cvp"
	"tracerebase/internal/sim/cpu"
	"tracerebase/internal/synth"
)

// TestSteadyStateZeroAllocs pins the zero-allocation contract of the
// simulator core: after one warmup interval has grown every buffer to its
// high-water mark, a full simulated interval — pipeline, four-level cache
// hierarchy, TLBs, direction/target predictors, and data prefetchers — must
// not allocate at all. Future PRs that reintroduce per-instruction
// allocation fail here rather than silently regressing throughput.
func TestSteadyStateZeroAllocs(t *testing.T) {
	p := synth.PublicProfile(synth.ComputeInt, 7)
	instrs, err := p.Generate(30000)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := core.ConvertAll(cvp.NewSliceSource(instrs), core.OptionsAll())
	if err != nil {
		t.Fatal(err)
	}
	src := champtrace.NewSliceSource(recs)

	for _, cfg := range []Config{
		ConfigDevelop(champtrace.RulesPatched),
		ConfigIPC1("next-line", champtrace.RulesPatched),
	} {
		pipe, err := cpu.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Warmup run: grows the MSHR lists and prefetch buffers to their
		// high-water marks.
		if _, err := pipe.Run(src, 0, 0); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			src.Reset()
			if _, err := pipe.Run(src, 0, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state interval allocated %.0f times, want 0", cfg.Name, allocs)
		}
	}
}

// TestMultiCoreSteadyStateZeroAllocs extends the contract to the N-core
// lockstep engine: four cores over a shared-srrip LLC and a bandwidth-
// limited DRAM port, with each core owning its own arena — a warmed
// MultiPipeline interval must not allocate at all.
func TestMultiCoreSteadyStateZeroAllocs(t *testing.T) {
	const cores = 4
	cfg := ConfigDevelop(champtrace.RulesPatched)
	cfg.Cores = cores
	cfg.Hierarchy.LLC.Policy = "shared-srrip"
	cfg.MemBandwidth = 4
	srcs := make([]champtrace.Source, cores)
	slices := make([]*champtrace.SliceSource, cores)
	for i := 0; i < cores; i++ {
		p := synth.PublicProfile(synth.ComputeInt, i)
		instrs, err := p.Generate(15000)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := core.ConvertAll(cvp.NewSliceSource(instrs), core.OptionsAll())
		if err != nil {
			t.Fatal(err)
		}
		s := champtrace.NewSliceSource(recs)
		slices[i] = s
		srcs[i] = s
	}
	m, err := cpu.NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(srcs, 0, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		for _, s := range slices {
			s.Reset()
		}
		if _, err := m.Run(srcs, 0, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("multi-core steady-state interval allocated %.0f times, want 0", allocs)
	}
}

// TestIdleHeavyZeroAllocs is TestSteadyStateZeroAllocs on the idle-heavy
// stress profile: long event-horizon jumps must not change the contract.
// The skipper's state is two scalar fields on the pipeline, so a violation
// here means a heap structure crept into the skip path.
func TestIdleHeavyZeroAllocs(t *testing.T) {
	p := synth.StressIdle()
	instrs, err := p.Generate(20000)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := core.ConvertAll(cvp.NewSliceSource(instrs), core.OptionsAll())
	if err != nil {
		t.Fatal(err)
	}
	src := champtrace.NewSliceSource(recs)
	pipe, err := cpu.New(ConfigDevelop(champtrace.RulesPatched))
	if err != nil {
		t.Fatal(err)
	}
	st, err := pipe.Run(src, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.SkippedCycles == 0 {
		t.Fatal("idle-heavy run skipped no cycles; the test no longer covers the skip path")
	}
	allocs := testing.AllocsPerRun(3, func() {
		src.Reset()
		if _, err := pipe.Run(src, 0, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("idle-heavy steady-state interval allocated %.0f times, want 0", allocs)
	}
}
