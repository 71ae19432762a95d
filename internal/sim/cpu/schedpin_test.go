package cpu

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/synth"
)

// schedPin is the recorded outcome of one pinned run: a digest of the full
// Stats and the cycle-skip counters verbatim, so a mismatch says at once
// whether timing or only some other counter moved.
type schedPin struct {
	name                   string
	digest                 string
	cycles, skipped, skips uint64
}

// schedPins were recorded with the rescanning scheduler that preceded
// producer-driven wakeup. The scheduler must reproduce every one exactly:
// each cycle issues the oldest IssueWidth uops whose producers completed by
// that cycle, and the issue stage's event horizon is the same minimum
// ready cycle, so the skip counters match too.
var schedPins = []schedPin{
	{"seed1", "200fa10418bd6aa0", 6962, 5072, 200},
	{"seed2", "122e6f2df8c0c561", 4530, 3108, 127},
	{"seed3", "d60c580fa8ab14f4", 6174, 4896, 133},
	{"seed4", "5674803922c2f276", 23869, 21697, 226},
	{"seed5", "a9829f0878c31962", 3535, 2870, 86},
	{"seed6", "4a24c619c4d80b4e", 2562, 1934, 98},
	{"seed7", "934e1ec3dd5b86c5", 10943, 9542, 189},
	{"seed8", "85a031145b45ff77", 9338, 7626, 319},
	{"seed9", "fc228337396f5b7f", 10754, 9307, 298},
	{"seed10", "57e7ef04ca8d9ef2", 25807, 23035, 255},
	{"seed11", "68934da964b8d668", 5577, 4264, 130},
	{"seed12", "1330e3bcd5abcbc3", 13012, 11515, 177},
	{"seed13", "7b1efbf43bac0ba0", 5726, 4323, 174},
	{"seed14", "daa327ddc292e730", 4646, 3670, 156},
	{"seed15", "b81cdf88e750d93a", 19942, 17332, 757},
	{"seed16", "18ac708ae1305d41", 9966, 7960, 142},
	{"seed17", "c193b5f3f78ed398", 9643, 7622, 370},
	{"seed18", "0fd98f0dd86618c5", 11459, 9442, 342},
	{"seed19", "3b29490c27bbc2b1", 15391, 12947, 475},
	{"seed20", "f0ee8b5755c60143", 4786, 3929, 137},
	{"rob16-arena32", "195393b30764a721", 24220, 21870, 416},
	{"rob16-issue1", "00ec339d4d186a01", 22849, 20665, 405},
	{"issue1-coupled", "e22d00e3224d28d5", 16923, 14097, 571},
	{"issue1-decoupled", "a171f53f7f2d840d", 26933, 22721, 645},
	{"coupled", "d3f31b8c8ca09a2d", 26697, 23690, 613},
	{"decoupled", "be96084ed6adddf1", 9822, 7743, 229},
	{"l1d-lat0", "c5bc6a8a657614f7", 3105, 1981, 76},
	{"l1d-lat0-wide", "446a59f5d94530bb", 3703, 2892, 133},
	{"develop-l1d-lat0", "3b83a0e80e63f118", 42628, 36341, 493},
	{"sampled", "e0e833cb68e1059e", 6718, 5803, 159},
	{"sampled-develop", "04550d35be19db8b", 6859, 5767, 83},
	{"develop-int", "b44b255a7d014db8", 50658, 43747, 652},
	{"develop-server", "3b1b3b81c152a291", 16682, 10864, 319},
	{"2core/core0", "2e83350213209459", 12131, 8998, 471},
	{"2core/core1", "f582126a53a32539", 14512, 11120, 524},
}

// schedCase is one pinned run; it returns one Stats per core.
type schedCase struct {
	name string
	run  func(t *testing.T) []Stats
}

// geometryCase runs TestQuickSkipTransparency's generator at a fixed seed,
// with edit applied to the drawn configuration.
func geometryCase(name string, seed int64, edit func(*Config)) schedCase {
	return schedCase{name, func(t *testing.T) []Stats {
		stream, cfg, warmup := randomGeometry(rand.New(rand.NewSource(seed)))
		if edit != nil {
			edit(&cfg)
		}
		return []Stats{runPinned(t, cfg, stream, warmup, 0)}
	}}
}

func runPinned(t *testing.T, cfg Config, stream []*champtrace.Instruction, warmup, limit uint64) Stats {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(champtrace.NewSliceSource(stream), warmup, limit)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func schedCases() []schedCase {
	var cases []schedCase
	for seed := int64(1); seed <= 20; seed++ {
		cases = append(cases, geometryCase(fmt.Sprintf("seed%d", seed), seed, nil))
	}
	cases = append(cases,
		// An arena of 32 slots: the grounded bitmap is a single word.
		geometryCase("rob16-arena32", 21, func(c *Config) {
			c.ROBSize, c.FTQSize, c.DecodeQueue = 16, 8, 4
		}),
		geometryCase("rob16-issue1", 22, func(c *Config) {
			c.ROBSize, c.FTQSize, c.DecodeQueue, c.IssueWidth = 16, 4, 4, 1
		}),
		// Width-limited cycles while the window wraps the arena.
		geometryCase("issue1-coupled", 23, func(c *Config) { c.IssueWidth, c.Decoupled = 1, false }),
		geometryCase("issue1-decoupled", 24, func(c *Config) { c.IssueWidth, c.Decoupled = 1, true }),
		geometryCase("coupled", 25, func(c *Config) { c.Decoupled = false }),
		geometryCase("decoupled", 26, func(c *Config) { c.Decoupled = true }),
		// A zero-latency L1D hit with no DTLB completes in its own issue
		// cycle, so a younger consumer issues in that same cycle.
		geometryCase("l1d-lat0", 27, func(c *Config) { c.Hierarchy.L1D.Latency, c.UseTLBs = 0, false }),
		geometryCase("l1d-lat0-wide", 28, func(c *Config) {
			c.Hierarchy.L1D.Latency, c.UseTLBs, c.IssueWidth, c.ROBSize = 0, false, 6, 128
		}),
		schedCase{"develop-l1d-lat0", func(t *testing.T) []Stats {
			cfg := developConfig()
			cfg.Hierarchy.L1D.Latency, cfg.UseTLBs = 0, false
			recs := synthTrace(t, synth.PublicProfile(synth.ComputeInt, 5), 20000)
			return []Stats{runPinned(t, cfg, recs, 5000, 0)}
		}},
		schedCase{"sampled", func(t *testing.T) []Stats {
			r := rand.New(rand.NewSource(29))
			cfg := testConfig()
			cfg.SamplePeriod, cfg.SampleDetail, cfg.SampleWarm = 400, 150, 100
			return []Stats{runPinned(t, cfg, randomStream(r, 3000), 100, 0)}
		}},
		schedCase{"sampled-develop", func(t *testing.T) []Stats {
			cfg := developConfig()
			cfg.SamplePeriod, cfg.SampleDetail, cfg.SampleWarm = 4000, 800, 1000
			recs := synthTrace(t, synth.PublicProfile(synth.Server, 7), 20000)
			return []Stats{runPinned(t, cfg, recs, 3000, 20000)}
		}},
		schedCase{"develop-int", func(t *testing.T) []Stats {
			recs := synthTrace(t, synth.PublicProfile(synth.ComputeInt, 5), 20000)
			return []Stats{runPinned(t, developConfig(), recs, 5000, 0)}
		}},
		schedCase{"develop-server", func(t *testing.T) []Stats {
			recs := synthTrace(t, synth.PublicProfile(synth.Server, 3), 20000)
			return []Stats{runPinned(t, developConfig(), recs, 5000, 0)}
		}},
		schedCase{"2core", func(t *testing.T) []Stats {
			r := rand.New(rand.NewSource(30))
			cfg := testConfig()
			cfg.Cores = 2
			m, err := NewMulti(cfg)
			if err != nil {
				t.Fatal(err)
			}
			out, err := m.Run([]champtrace.Source{
				champtrace.NewSliceSource(randomStream(r, 1500)),
				champtrace.NewSliceSource(randomStream(r, 1500)),
			}, 200, 0)
			if err != nil {
				t.Fatal(err)
			}
			return append([]Stats(nil), out...)
		}},
	)
	return cases
}

// TestSchedulerPins reruns every pinned case and compares it with the
// recorded outcome. A failure prints the row the current code produces.
func TestSchedulerPins(t *testing.T) {
	want := make(map[string]schedPin, len(schedPins))
	for _, p := range schedPins {
		want[p.name] = p
	}
	seen := 0
	for _, c := range schedCases() {
		stats := c.run(t)
		for i, st := range stats {
			name := c.name
			if len(stats) > 1 {
				name = fmt.Sprintf("%s/core%d", c.name, i)
			}
			sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", st)))
			got := schedPin{name, hex.EncodeToString(sum[:8]), st.Cycles, st.SkippedCycles, st.CycleSkips}
			if got != want[name] {
				t.Errorf("%s: pinned %v, got row\n\t{%q, %q, %d, %d, %d},",
					name, want[name], got.name, got.digest, got.cycles, got.skipped, got.skips)
			}
			seen++
		}
	}
	if seen != len(schedPins) {
		t.Errorf("ran %d pinned outcomes, table has %d", seen, len(schedPins))
	}
}
