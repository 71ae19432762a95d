package experiments

import (
	"reflect"
	"strings"
	"testing"

	"tracerebase/internal/synth"
)

// TestRunMultiSweepParallelismDeterministic exercises the multi-core sweep's
// worker pool under the race detector and pins scheduling independence at
// unit-test scale (the conformance oracle proves it at full scale): a
// serial and a 4-worker run of the same co-schedule must produce deeply
// equal results.
func TestRunMultiSweepParallelismDeterministic(t *testing.T) {
	workloads, err := synth.CoSchedule("srvcrypto", 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(par int) MultiTraceResult {
		cfg := SweepConfig{
			Instructions: 3000,
			Warmup:       500,
			Cores:        2,
			LLCPolicy:    "shared-srrip",
			MemBandwidth: 4,
			Parallelism:  par,
		}
		res, err := RunMultiSweep("srvcrypto", workloads, cfg)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		return res
	}
	a, b := run(1), run(4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("multi-core sweep results differ between -parallel 1 and 4")
	}
	for name, r := range a.Results {
		if len(r.Cores) != 2 {
			t.Fatalf("%s: %d per-core stats, want 2", name, len(r.Cores))
		}
		for i, cs := range r.Cores {
			if cs.Instructions == 0 || cs.Cycles == 0 {
				t.Fatalf("%s: core %d retired nothing: %+v", name, i, cs)
			}
		}
	}
}

// TestMultiSweepGenerationError: a co-schedule whose workload cannot be
// generated fails every variant with an error naming that workload, with
// and without a slab store.
func TestMultiSweepGenerationError(t *testing.T) {
	workloads := []synth.Profile{{Name: "bad"}, synth.PublicProfile(synth.Crypto, 0)}
	cfg := testSweepConfig()
	cfg.Cores = len(workloads)
	cfg.Variants = figureVariants(VariantNone, VariantAll)
	for _, slabs := range []bool{false, true} {
		c := cfg
		if slabs {
			c.Slabs = testSlabStore(t, t.TempDir())
		}
		res, err := RunMultiSweep("bad", workloads, c)
		if err == nil || strings.Count(err.Error(), "generate bad") != len(cfg.Variants) {
			t.Fatalf("slab store %v: error %v, want one naming the workload per variant", slabs, err)
		}
		if len(res.Results) != 0 {
			t.Fatalf("slab store %v: %d results from a failed co-schedule", slabs, len(res.Results))
		}
	}
}
