// Package report composes experiment output. It is the single place the
// table/figure orchestration lives: the batch CLI (cmd/rebase) and the
// sweep daemon (internal/server) both call Run with the same SweepConfig
// and Spec, so a daemon-served result is byte-identical to a batch run of
// the same request — the byte-identity guarantee the tiered cache and the
// conformance tier-transparency oracle rest on.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"tracerebase/internal/experiments"
	"tracerebase/internal/synth"
)

// Output directs where the composition goes.
type Output struct {
	// Text receives the rendered output (tables/figures, or the JSON
	// document when the Spec asks for JSON). nil discards it.
	Text io.Writer
	// Log receives progress notes (suite sizes); nil means quiet. Per-cell
	// progress goes through SweepConfig.Progress as before.
	Log io.Writer
}

// Telemetry carries the per-category sweep statistics Run collected, for
// the caller's trailer lines and bench records.
type Telemetry struct {
	// Skip holds per-category cycle-skipping fractions when the run
	// included the figure sweep.
	Skip []SkipStat
	// Sample holds per-category sampled-interval statistics when the run
	// used sampled mode.
	Sample []SampleStat
}

// Run renders the experiments named by spec into out, using cfg's engine
// configuration (cache, slab store, parallelism, sampling) unchanged:
// spec's budgets reach the engine through Spec.SweepConfig, not here.
// Every byte written to out.Text is a pure function of (cfg, spec), which
// is what makes cached replays byte-identical. An unknown experiment name
// is an error, and nothing is rendered.
func Run(cfg experiments.SweepConfig, spec Spec, out Output) (Telemetry, error) {
	var tel Telemetry
	if err := validateExp(spec.Exp); err != nil {
		return tel, err
	}
	text := out.Text
	if text == nil {
		text = io.Discard
	}
	jsonReport := experiments.NewJSONReport(cfg)

	wants := map[string]bool{}
	for _, e := range strings.Split(spec.Exp, ",") {
		wants[strings.TrimSpace(e)] = true
	}
	all := wants["all"]
	needSweep := all || wants["fig1"] || wants["fig2"] || wants["fig3"] || wants["fig4"] || wants["fig5"]

	if (all || wants["table1"]) && !spec.JSON {
		experiments.RenderTable1(text)
		fmt.Fprintln(text)
	}

	if needSweep {
		profiles := Subsample(synth.PublicSuite(), spec.Step)
		if out.Log != nil {
			fmt.Fprintf(out.Log, "sweep: %d public traces x %d variants, %d instructions each\n",
				len(profiles), len(experiments.Variants()), cfg.Instructions)
		}
		results, err := experiments.RunSweep(profiles, cfg)
		if err != nil {
			return tel, fmt.Errorf("sweep: %w", err)
		}
		tel.Skip = SkipFractions(results)
		if cfg.SamplePeriod > 0 {
			tel.Sample = SampleSummary(results)
		}
		if spec.JSON {
			jsonReport.FillFigures(results)
		}
		if (all || wants["fig1"]) && !spec.JSON {
			experiments.RenderFig1(text, experiments.Fig1(results))
			fmt.Fprintln(text)
		}
		if (all || wants["fig2"]) && !spec.JSON {
			experiments.RenderFig2(text, experiments.Fig2(results))
			fmt.Fprintln(text)
		}
		if (all || wants["fig3"]) && !spec.JSON {
			experiments.RenderFig3(text, experiments.Fig3(results))
			fmt.Fprintln(text)
		}
		if (all || wants["fig4"]) && !spec.JSON {
			experiments.RenderFig4(text, experiments.Fig4(results))
			fmt.Fprintln(text)
		}
		if (all || wants["fig5"]) && !spec.JSON {
			experiments.RenderFig5(text, experiments.Fig5(results))
			fmt.Fprintln(text)
		}
	}

	if all || wants["table2"] {
		suite := SubsampleIPC1(synth.IPC1Suite(), spec.Step)
		if out.Log != nil {
			fmt.Fprintf(out.Log, "table 2: %d IPC-1 traces\n", len(suite))
		}
		res, err := experiments.Table2(cfg, suite)
		if err != nil {
			return tel, fmt.Errorf("table2: %w", err)
		}
		if spec.JSON {
			jsonReport.Table2 = &res
		} else {
			experiments.RenderTable2(text, res)
			fmt.Fprintln(text)
		}
	}

	if wants["ablation"] {
		res, err := experiments.FrontEndAblation(cfg, nil)
		if err != nil {
			return tel, fmt.Errorf("ablation: %w", err)
		}
		if spec.JSON {
			jsonReport.Ablation = res
		} else {
			experiments.RenderFrontEndAblation(text, res)
			fmt.Fprintln(text)
		}
	}

	if all || wants["table3"] {
		suite := SubsampleIPC1(synth.IPC1Suite(), spec.Step)
		if out.Log != nil {
			fmt.Fprintf(out.Log, "table 3: %d IPC-1 traces x 2 trace sets x %d prefetchers\n",
				len(suite), len(experiments.Table3Prefetchers))
		}
		res, err := experiments.Table3(cfg, suite)
		if err != nil {
			return tel, fmt.Errorf("table3: %w", err)
		}
		if spec.JSON {
			jsonReport.Table3 = &res
		} else {
			experiments.RenderTable3(text, res)
			fmt.Fprintln(text)
		}
	}

	if wants["char"] {
		profiles := Subsample(synth.PublicSuite(), spec.Step)
		rows, err := experiments.Characterize(profiles, cfg)
		if err != nil {
			return tel, fmt.Errorf("characterize: %w", err)
		}
		if spec.JSON {
			jsonReport.Char = rows
		} else {
			experiments.RenderCharacterization(text, rows)
			fmt.Fprintln(text)
		}
	}

	if spec.JSON {
		if err := jsonReport.Write(text); err != nil {
			return tel, fmt.Errorf("json: %w", err)
		}
	}
	return tel, nil
}

// Subsample keeps every step-th profile of a suite (step <= 1 keeps all).
func Subsample(ps []synth.Profile, step int) []synth.Profile {
	if step <= 1 {
		return ps
	}
	var out []synth.Profile
	for i := 0; i < len(ps); i += step {
		out = append(out, ps[i])
	}
	return out
}

// SubsampleIPC1 keeps every step-th IPC-1 trace (step <= 1 keeps all).
func SubsampleIPC1(ts []synth.IPC1Trace, step int) []synth.IPC1Trace {
	if step <= 1 {
		return ts
	}
	var out []synth.IPC1Trace
	for i := 0; i < len(ts); i += step {
		out = append(out, ts[i])
	}
	return out
}

// SampleStat summarizes sampled-mode statistics for one trace category
// across every (trace, variant) cell of the sweep: the average interval-mean
// IPC, the average 95% confidence half-width around it, and how the
// instruction budget split between detailed, warmed, and skipped phases.
type SampleStat struct {
	Category     string  `json:"category"`
	Runs         int     `json:"runs"`
	Intervals    uint64  `json:"intervals"`
	MeanIPC      float64 `json:"mean_ipc"`
	MeanCI95     float64 `json:"mean_ci95"`
	Instructions uint64  `json:"detailed_instructions"`
	Warmed       uint64  `json:"warmed_instructions"`
	Skipped      uint64  `json:"skipped_instructions"`
}

// SampleSummary aggregates per-run sampling statistics by trace category,
// ordered by category name.
func SampleSummary(results []experiments.TraceResult) []SampleStat {
	byCat := map[string]*SampleStat{}
	for _, tr := range results {
		cat := string(tr.Profile.Category)
		agg := byCat[cat]
		if agg == nil {
			agg = &SampleStat{Category: cat}
			byCat[cat] = agg
		}
		for _, res := range tr.Results {
			agg.Runs++
			agg.Intervals += res.Sim.SampleIntervals
			agg.MeanIPC += res.Sim.SampleIPCMean
			agg.MeanCI95 += res.Sim.SampleCI95
			agg.Instructions += res.Sim.Instructions
			agg.Warmed += res.Sim.WarmedInstructions
			agg.Skipped += res.Sim.SkippedInstructions
		}
	}
	cats := make([]string, 0, len(byCat))
	for cat := range byCat {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	out := make([]SampleStat, 0, len(cats))
	for _, cat := range cats {
		s := *byCat[cat]
		if s.Runs > 0 {
			s.MeanIPC /= float64(s.Runs)
			s.MeanCI95 /= float64(s.Runs)
		}
		out = append(out, s)
	}
	return out
}

// SkipStat reports event-horizon cycle skipping for one trace category:
// what fraction of the measured cycles the simulator jumped over instead of
// ticking through. All zeros under -no-skip.
type SkipStat struct {
	Category      string  `json:"category"`
	Cycles        uint64  `json:"cycles"`
	SkippedCycles uint64  `json:"skipped_cycles"`
	Skips         uint64  `json:"skips"`
	Fraction      float64 `json:"fraction"`
}

// SkipFractions aggregates cycle-skipping counters per trace category over
// every (trace, variant) cell of a sweep, ordered by category name.
func SkipFractions(results []experiments.TraceResult) []SkipStat {
	byCat := map[string]*SkipStat{}
	for _, tr := range results {
		cat := string(tr.Profile.Category)
		agg := byCat[cat]
		if agg == nil {
			agg = &SkipStat{Category: cat}
			byCat[cat] = agg
		}
		for _, res := range tr.Results {
			agg.Cycles += res.Sim.Cycles
			agg.SkippedCycles += res.Sim.SkippedCycles
			agg.Skips += res.Sim.CycleSkips
		}
	}
	cats := make([]string, 0, len(byCat))
	for cat := range byCat {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	out := make([]SkipStat, 0, len(cats))
	for _, cat := range cats {
		s := *byCat[cat]
		if s.Cycles > 0 {
			s.Fraction = float64(s.SkippedCycles) / float64(s.Cycles)
		}
		out = append(out, s)
	}
	return out
}
