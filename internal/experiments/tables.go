package experiments

import (
	"fmt"
	"io"
	"sort"

	"tracerebase/internal/core"
	"tracerebase/internal/sim"
	"tracerebase/internal/stats"
	"tracerebase/internal/synth"
)

// RenderTable1 prints Table 1: the summary of the proposed trace conversion
// improvements.
func RenderTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: summary of the proposed trace conversion improvements")
	fmt.Fprintf(w, "  %-8s %-14s %s\n", "type", "improvement", "modification to the converter")
	for _, imp := range core.Improvements {
		fmt.Fprintf(w, "  %-8s %-14s %s\n", imp.Kind, imp.Name, imp.Summary)
	}
}

// Table2Row characterizes one IPC-1 trace with all fixes applied (§4.3).
type Table2Row struct {
	Name, CVPName string
	IPC           float64
	// Overall, Direction, Target are the branch MPKIs.
	Overall, Direction, Target float64
	// L1I, L1D, L2, LLC are the memory-hierarchy MPKIs.
	L1I, L1D, L2, LLC float64
	// IPCDeltaPct compares against the original-converter trace.
	IPCDeltaPct float64
	// TargetDeltaPct compares the target MPKI against the original.
	TargetDeltaPct float64
}

// Table2Result is the full characterization plus the summary statistics
// §4.3 quotes.
type Table2Result struct {
	Rows []Table2Row
	// MeanIPCDeltaPct is the average IPC change vs original traces
	// (paper: −2.4%).
	MeanIPCDeltaPct float64
	// TracesBeyond5Pct counts traces whose IPC differs by more than 5%
	// (paper: 19 of 50).
	TracesBeyond5Pct int
	// MeanTargetDeltaPct is the average target-MPKI change (paper: −13%).
	MeanTargetDeltaPct float64
}

// Table2 characterizes the IPC-1 traces on the develop model with all
// fixes, comparing against the original conversion. A nil suite means all
// 50 IPC-1 traces.
func Table2(cfg SweepConfig, suite []synth.IPC1Trace) (Table2Result, error) {
	cfg.Variants = figureVariants(VariantNone, VariantAll)
	if suite == nil {
		suite = synth.IPC1Suite()
	}
	profiles := make([]synth.Profile, len(suite))
	for i, tr := range suite {
		profiles[i] = tr.Profile
	}
	results, err := RunSweep(profiles, cfg)
	if err != nil {
		return Table2Result{}, err
	}
	var out Table2Result
	var ipcDeltas, tgtDeltas []float64
	for i, tr := range results {
		all := tr.Results[VariantAll]
		base := tr.Results[VariantNone]
		st := all.Sim
		row := Table2Row{
			Name:        suite[i].Name,
			CVPName:     suite[i].CVPName,
			IPC:         st.IPC(),
			Overall:     st.BranchMPKI(),
			Direction:   st.DirMPKI(),
			Target:      st.TargetMPKI(),
			L1I:         st.L1I.MPKI(st.Instructions),
			L1D:         st.L1D.MPKI(st.Instructions),
			L2:          st.L2.MPKI(st.Instructions),
			LLC:         st.LLC.MPKI(st.Instructions),
			IPCDeltaPct: 100 * tr.Delta(VariantAll),
		}
		if bt := base.Sim.TargetMPKI(); bt > 0 {
			row.TargetDeltaPct = 100 * (st.TargetMPKI() - bt) / bt
			tgtDeltas = append(tgtDeltas, row.TargetDeltaPct)
		}
		ipcDeltas = append(ipcDeltas, row.IPCDeltaPct)
		if row.IPCDeltaPct > 5 || row.IPCDeltaPct < -5 {
			out.TracesBeyond5Pct++
		}
		out.Rows = append(out.Rows, row)
	}
	out.MeanIPCDeltaPct = stats.Mean(ipcDeltas)
	out.MeanTargetDeltaPct = stats.Mean(tgtDeltas)
	return out, nil
}

// RenderTable2 prints the Table 2 characterization.
func RenderTable2(w io.Writer, t Table2Result) {
	fmt.Fprintln(w, "Table 2: CVP-1 to IPC-1 trace mapping and characterization with the improved converter")
	fmt.Fprintf(w, "  %-19s %-16s %5s | %7s %9s %6s | %6s %6s %6s %6s | %7s\n",
		"IPC-1 trace", "CVP-1 trace", "IPC", "overall", "direction", "target", "L1I", "L1D", "L2", "LLC", "dIPC%")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "  %-19s %-16s %5.2f | %7.2f %9.2f %6.2f | %6.1f %6.1f %6.1f %6.1f | %+6.1f%%\n",
			r.Name, r.CVPName, r.IPC, r.Overall, r.Direction, r.Target, r.L1I, r.L1D, r.L2, r.LLC, r.IPCDeltaPct)
	}
	fmt.Fprintf(w, "  mean IPC change vs original traces: %+.1f%%; traces beyond +/-5%%: %d of %d\n",
		t.MeanIPCDeltaPct, t.TracesBeyond5Pct, len(t.Rows))
	fmt.Fprintf(w, "  mean target-MPKI change: %+.1f%%\n", t.MeanTargetDeltaPct)
}

// Table3Prefetchers lists the eight IPC-1 finalists evaluated in Table 3,
// using this repository's prefetcher names.
var Table3Prefetchers = []string{"epi", "djolt", "fnl-mma", "barca", "pips", "jip", "mana", "tap"}

// prefetcherDisplay maps implementation names to the paper's spellings.
var prefetcherDisplay = map[string]string{
	"epi": "EPI", "djolt": "D-JOLT", "fnl-mma": "FNL+MMA", "barca": "Barça",
	"pips": "PIPS", "jip": "JIP", "mana": "MANA", "tap": "TAP",
}

// Table3Entry is one ranking row.
type Table3Entry struct {
	Rank       int
	Prefetcher string
	// Speedup is the geomean IPC ratio vs the no-prefetcher baseline.
	Speedup float64
}

// Table3Result carries the two rankings of Table 3.
type Table3Result struct {
	// Competition is the ranking on traces converted with the original
	// converter; Fixed on traces with the improvements applied (minus
	// mem-footprint, per the paper's footnote 4: the IPC-1 ChampSim
	// cannot execute multi-address instructions).
	Competition, Fixed []Table3Entry
}

// Table3 re-runs the IPC-1 championship on both trace sets using the IPC-1
// processor model. A nil suite means all 50 IPC-1 traces.
//
// Every (trace, set, prefetcher) simulation is one cell of the executor
// (see execute), so cached cells cost no simulation work, and each trace
// is generated at most once and converted at most once per set no matter
// how many of its 18 simulations miss. Without a slab store a set with
// several misses is converted once into memory and shared by its models.
func Table3(cfg SweepConfig, suite []synth.IPC1Trace) (Table3Result, error) {
	if err := cfg.fill(); err != nil {
		return Table3Result{}, err
	}
	fixedOpts := core.OptionsAll()
	fixedOpts.MemFootprint = false // footnote 4
	sets := []struct {
		name string
		opts core.Options
	}{
		{"competition", core.OptionsNone()},
		{"fixed", fixedOpts},
	}

	if suite == nil {
		suite = synth.IPC1Suite()
	}
	profiles := make([]synth.Profile, len(suite))
	models := append([]string{"none"}, Table3Prefetchers...)
	var cells []cell
	for ti, trc := range suite {
		profiles[ti] = trc.Profile
		for _, s := range sets {
			for _, pf := range models {
				simCfg := sim.ConfigIPC1(pf, rulesFor(s.opts))
				simCfg.NoCycleSkip = cfg.NoSkip
				cfg.applySampling(&simCfg)
				// The set name ("competition"/"fixed") is the cell's
				// variant; the prefetcher identity column separates the
				// nine models within a set.
				cells = append(cells, cell{trace: ti, opts: s.opts, simCfg: simCfg,
					variant: s.name})
			}
		}
	}
	ex := cfg.execute(profiles, cells)
	if err := ex.err(); err != nil {
		return Table3Result{}, err
	}

	// speedups[set][prefetcher] = per-trace IPC ratios
	speedups := map[string]map[string][]float64{}
	for _, s := range sets {
		speedups[s.name] = map[string][]float64{}
	}
	for i := 0; i < len(cells); i += len(models) {
		base := ex.results[i].IPC
		for j, pf := range Table3Prefetchers {
			speedups[cells[i].variant][pf] = append(speedups[cells[i].variant][pf], ex.results[i+1+j].IPC/base)
		}
	}

	rank := func(setName string) []Table3Entry {
		entries := make([]Table3Entry, 0, len(Table3Prefetchers))
		for _, pf := range Table3Prefetchers {
			entries = append(entries, Table3Entry{
				Prefetcher: prefetcherDisplay[pf],
				Speedup:    stats.Geomean(speedups[setName][pf]),
			})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].Speedup > entries[j].Speedup })
		for i := range entries {
			entries[i].Rank = i + 1
		}
		return entries
	}
	return Table3Result{Competition: rank("competition"), Fixed: rank("fixed")}, nil
}

// RenderTable3 prints the IPC-1 ranking comparison.
func RenderTable3(w io.Writer, t Table3Result) {
	fmt.Fprintln(w, "Table 3: IPC-1 ranking (geomean speedup over no instruction prefetching)")
	fmt.Fprintf(w, "  %-28s | %s\n", "competition traces", "fixed traces")
	for i := range t.Competition {
		c, f := t.Competition[i], t.Fixed[i]
		fmt.Fprintf(w, "  %2d  %-10s %7.4f       | %2d  %-10s %7.4f\n",
			c.Rank, c.Prefetcher, c.Speedup, f.Rank, f.Prefetcher, f.Speedup)
	}
	fmt.Fprintln(w, "  rank moves (competition -> fixed):")
	pos := map[string]int{}
	for _, c := range t.Competition {
		pos[c.Prefetcher] = c.Rank
	}
	for _, f := range t.Fixed {
		if d := pos[f.Prefetcher] - f.Rank; d != 0 {
			fmt.Fprintf(w, "    %-10s %+d (from %d to %d)\n", f.Prefetcher, d, pos[f.Prefetcher], f.Rank)
		}
	}
}
