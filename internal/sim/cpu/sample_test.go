package cpu

import (
	"reflect"
	"testing"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/cvp"
	"tracerebase/internal/sim/mem"
	"tracerebase/internal/synth"
)

// developConfig mirrors sim.ConfigDevelop (the sim package sits above cpu,
// so the values are restated here) — the configuration whose warmed state
// the equivalence tests compare.
func developConfig() Config {
	return Config{
		Name:            "develop",
		FetchWidth:      6,
		DispatchWidth:   6,
		IssueWidth:      6,
		RetireWidth:     6,
		ROBSize:         352,
		SQSize:          72,
		FTQSize:         64,
		DecodeQueue:     48,
		DecodeLatency:   5,
		RedirectPenalty: 8,
		Decoupled:       true,
		Rules:           champtrace.RulesPatched,
		Predictor:       "tage-sc-l",
		BTBEntries:      16384,
		BTBWays:         8,
		RASSize:         64,
		UseITTAGE:       true,
		Hierarchy:       mem.DefaultHierarchyConfig(),
		L1DPrefetcher:   "ip-stride",
		L2Prefetcher:    "next-line",
		UseTLBs:         true,
	}
}

// synthTrace generates and converts n instructions of a synth profile.
func synthTrace(t *testing.T, p synth.Profile, n int) []*champtrace.Instruction {
	t.Helper()
	instrs, err := p.Generate(n)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := core.ConvertAll(cvp.NewSliceSource(instrs), core.OptionsAll())
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// tagOverlap returns the fraction of a's valid tags also valid in b.
func tagOverlap(a, b []uint64) float64 {
	if len(a) == 0 {
		return 1
	}
	set := make(map[uint64]bool, len(b))
	for _, v := range b {
		set[v] = true
	}
	hit := 0
	for _, v := range a {
		if set[v] {
			hit++
		}
	}
	return float64(hit) / float64(len(a))
}

// TestFunctionalWarmingEquivalence fast-forwards a whole trace through the
// functional warmer and compares the warmed structures against a detailed
// run over the same trace. Program-order structures — direction predictor,
// BTB, RAS, ITTAGE, target stats, ITLB — must match field for field,
// counters and per-branch scratch included (their update sequences are
// identical by construction); the data side and L1I are timing-dependent
// (out-of-order issue, store-to-load forwarding, MSHR occupancy), so their
// resident tag sets must agree to a high fraction.
func TestFunctionalWarmingEquivalence(t *testing.T) {
	profiles := []synth.Profile{
		synth.StressIdle(),                   // serialized pointer chase
		synth.PublicProfile(synth.Server, 3), // branchy, indirect-heavy
	}
	for _, prof := range profiles {
		t.Run(prof.Name, func(t *testing.T) {
			recs := synthTrace(t, prof, 12000)

			det, err := New(developConfig())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := det.Run(champtrace.NewSliceSource(recs), 0, 0); err != nil {
				t.Fatal(err)
			}

			warm, err := New(developConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := warm.la.init(champtrace.NewSliceSource(recs)); err != nil {
				t.Fatal(err)
			}
			if _, err := warm.warm(^uint64(0)); err != nil {
				t.Fatal(err)
			}
			if warm.retired != det.retired {
				t.Fatalf("instruction counts diverge: warm %d, detailed %d", warm.retired, det.retired)
			}

			strict := []struct {
				name string
				a, b any
			}{
				{"direction predictor", det.pred, warm.pred},
				{"target predictor", det.tp, warm.tp},
				{"ITLB", det.tlbs.ITLB, warm.tlbs.ITLB},
			}
			for _, c := range strict {
				if !reflect.DeepEqual(c.a, c.b) {
					t.Errorf("%s state diverges between detailed run and functional warming", c.name)
				}
			}

			loose := []struct {
				name string
				a, b []uint64
				min  float64
			}{
				{"L1I", det.hier.L1I.ValidTags(), warm.hier.L1I.ValidTags(), 0.95},
				{"L1D", det.hier.L1D.ValidTags(), warm.hier.L1D.ValidTags(), 0.75},
				{"L2", det.hier.L2.ValidTags(), warm.hier.L2.ValidTags(), 0.75},
				{"LLC", det.hier.LLC.ValidTags(), warm.hier.LLC.ValidTags(), 0.75},
				{"DTLB", det.tlbs.DTLB.ValidVPNs(), warm.tlbs.DTLB.ValidVPNs(), 0.75},
				{"STLB", det.tlbs.STLB.ValidVPNs(), warm.tlbs.STLB.ValidVPNs(), 0.75},
			}
			for _, c := range loose {
				if ov := tagOverlap(c.a, c.b); ov < c.min {
					t.Errorf("%s warmed-tag overlap %.3f below %.2f (%d detailed tags)", c.name, ov, c.min, len(c.a))
				}
			}
		})
	}
}

// TestSampledIdentityDisjoint: sampling parameters key the cache identity,
// so sampled and exact results can never collide.
func TestSampledIdentityDisjoint(t *testing.T) {
	exact := developConfig()
	sampled := exact
	sampled.SamplePeriod = 25000
	sampled.SampleDetail = 2000
	sampled.SampleWarm = 6000
	if exact.Identity() == sampled.Identity() {
		t.Error("sampled and exact configurations share an Identity")
	}
	other := sampled
	other.SampleWarm = 0
	if other.Identity() == sampled.Identity() {
		t.Error("different SampleWarm values share an Identity")
	}
}

// TestSampledDeterminism: two identical sampled runs agree exactly.
func TestSampledDeterminism(t *testing.T) {
	recs := synthTrace(t, synth.PublicProfile(synth.Server, 7), 30000)
	cfg := developConfig()
	cfg.SamplePeriod = 4000
	cfg.SampleDetail = 800
	cfg.SampleWarm = 1000
	run := func() Stats {
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := p.Run(champtrace.NewSliceSource(recs), 3000, 30000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("sampled runs diverge:\n a %+v\n b %+v", a, b)
	}
}
