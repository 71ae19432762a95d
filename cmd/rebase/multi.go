// Multi-core co-scheduled runs: rebase -cores N -coschedule <spec>[,<spec>...]
// simulates each named scenario on N lockstep cores over a shared LLC and
// reports per-core and aggregate IPC for every converter variant.
package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"tracerebase/internal/experiments"
	"tracerebase/internal/report"
	"tracerebase/internal/synth"
)

// runCoSchedules drives one RunMultiSweep per scenario and renders the
// results (text or JSON), plus the same telemetry trailer as single-core
// runs: per-core skip fractions, cache activity, wall clock, -bench-json.
func runCoSchedules(specs []string, cfg experiments.SweepConfig, req report.Spec, quiet bool, benchPath string) int {
	start := time.Now()
	var all []experiments.MultiTraceResult
	for _, spec := range specs {
		spec = strings.TrimSpace(spec)
		workloads, err := synth.CoSchedule(spec, cfg.Cores)
		if err != nil {
			return fail("coschedule: %v", err)
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "coschedule %s: %d cores x %d variants, %d instructions/core\n",
				spec, cfg.Cores, len(experiments.Variants()), cfg.Instructions)
		}
		res, err := experiments.RunMultiSweep(spec, workloads, cfg)
		if err != nil {
			return fail("coschedule %s: %v", spec, err)
		}
		all = append(all, res)
	}

	if req.JSON {
		doc := experiments.NewJSONReport(cfg)
		doc.Multi = all
		if err := doc.Write(os.Stdout); err != nil {
			return fail("json: %v", err)
		}
	} else {
		for _, res := range all {
			experiments.RenderCoSchedule(os.Stdout, res)
			fmt.Println()
		}
	}

	elapsed := time.Since(start)
	multi := multiSkipBlock(cfg.Cores, all)
	multi.LLCPolicy = cfg.LLCPolicy
	multi.MemBW = cfg.MemBandwidth
	if !quiet {
		for _, sc := range multi.Scenarios {
			parts := make([]string, 0, len(sc.CoreSkip))
			for _, s := range sc.CoreSkip {
				parts = append(parts, fmt.Sprintf("c%d %.1f%%", s.Core, 100*s.Fraction))
			}
			fmt.Fprintf(os.Stderr, "skip %s: cycles jumped per core: %s\n", sc.Scenario, strings.Join(parts, ", "))
		}
		printStoreStats(cfg, 0)
		fmt.Fprintf(os.Stderr, "total: %.1fs\n", elapsed.Seconds())
	}
	if benchPath != "" {
		if err := writeBenchJSON(benchPath, req, cfg, elapsed, nil, nil, multi); err != nil {
			return fail("bench-json: %v", err)
		}
	}
	return 0
}

// benchMultiBlock groups the multi-core shape of a -coschedule run with its
// per-scenario, per-core cycle-skipping telemetry.
type benchMultiBlock struct {
	Cores     int                  `json:"cores"`
	LLCPolicy string               `json:"llc_policy,omitempty"`
	MemBW     uint64               `json:"mem_bandwidth,omitempty"`
	Scenarios []benchMultiScenario `json:"scenarios"`
}

type benchMultiScenario struct {
	Scenario string          `json:"scenario"`
	CoreSkip []benchCoreSkip `json:"core_skip"`
}

// benchCoreSkip is benchSkip per core instead of per category: cycle-skip
// counters summed over every variant of one scenario, for one core.
type benchCoreSkip struct {
	Core          int     `json:"core"`
	Workload      string  `json:"workload"`
	Cycles        uint64  `json:"cycles"`
	SkippedCycles uint64  `json:"skipped_cycles"`
	Skips         uint64  `json:"skips"`
	Fraction      float64 `json:"fraction"`
}

// multiSkipBlock aggregates per-core skip counters across variants for each
// scenario, iterating variants in canonical order for determinism.
func multiSkipBlock(cores int, results []experiments.MultiTraceResult) *benchMultiBlock {
	b := &benchMultiBlock{Cores: cores}
	for _, res := range results {
		sc := benchMultiScenario{Scenario: res.Scenario, CoreSkip: make([]benchCoreSkip, cores)}
		for i := range sc.CoreSkip {
			sc.CoreSkip[i] = benchCoreSkip{Core: i, Workload: res.Workloads[i].Name}
		}
		for _, v := range experiments.Variants() {
			r, ok := res.Results[v.Name]
			if !ok {
				continue
			}
			for i, cs := range r.Cores {
				sc.CoreSkip[i].Cycles += cs.Cycles
				sc.CoreSkip[i].SkippedCycles += cs.SkippedCycles
				sc.CoreSkip[i].Skips += cs.CycleSkips
			}
		}
		for i := range sc.CoreSkip {
			if sc.CoreSkip[i].Cycles > 0 {
				sc.CoreSkip[i].Fraction = float64(sc.CoreSkip[i].SkippedCycles) / float64(sc.CoreSkip[i].Cycles)
			}
		}
		b.Scenarios = append(b.Scenarios, sc)
	}
	return b
}
