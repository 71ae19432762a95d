package experiments

import (
	"fmt"
	"io"

	"tracerebase/internal/core"
	"tracerebase/internal/sim"
	"tracerebase/internal/stats"
	"tracerebase/internal/synth"
)

// FrontEndAblationResult quantifies §4.4's closing argument (after Ishii et
// al.): a decoupled, fetch-directed front-end changes the conclusions of
// instruction-prefetching studies. We measure the geomean speedup of a
// representative IPC-1 prefetcher under the contest's coupled front-end and
// under a decoupled front-end, on the same traces.
type FrontEndAblationResult struct {
	Prefetcher string
	// CoupledSpeedup and DecoupledSpeedup are geomean IPC ratios of
	// prefetcher-on over prefetcher-off under each front-end.
	CoupledSpeedup, DecoupledSpeedup float64
}

// FrontEndAblation runs the ablation over the given IPC-1 traces (nil =
// an icache-heavy server subset) for each prefetcher in Table3Prefetchers.
func FrontEndAblation(cfg SweepConfig, suite []synth.IPC1Trace) ([]FrontEndAblationResult, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if suite == nil {
		for _, name := range []string{"server_023", "server_030", "server_033", "server_037"} {
			tr, ok := synth.FindIPC1(name)
			if !ok {
				return nil, fmt.Errorf("experiments: trace %s missing", name)
			}
			suite = append(suite, tr)
		}
	}

	// Per trace: the coupled front-end's none baseline and prefetchers,
	// then the decoupled front-end's. The front-end style is the cell's
	// variant; the Decoupled bit is already part of the config identity.
	opts := core.OptionsAll()
	models := append([]string{"none"}, Table3Prefetchers...)
	profiles := make([]synth.Profile, len(suite))
	var cells []cell
	for ti, trc := range suite {
		profiles[ti] = trc.Profile
		for _, decoupled := range []bool{false, true} {
			variant := "coupled"
			if decoupled {
				variant = "decoupled"
			}
			for _, pf := range models {
				c := sim.ConfigIPC1(pf, rulesFor(opts))
				c.NoCycleSkip = cfg.NoSkip
				cfg.applySampling(&c)
				c.Decoupled = decoupled
				if decoupled {
					c.FTQSize = 64
				}
				cells = append(cells, cell{trace: ti, opts: opts, simCfg: c,
					variant: variant})
			}
		}
	}
	ex := cfg.execute(profiles, cells)
	if err := ex.err(); err != nil {
		return nil, err
	}

	type key struct {
		pf        string
		decoupled bool
	}
	ratios := map[key][]float64{}
	for i := 0; i < len(cells); i += len(models) {
		base := ex.results[i].IPC
		for j, pf := range Table3Prefetchers {
			k := key{pf, cells[i].simCfg.Decoupled}
			ratios[k] = append(ratios[k], ex.results[i+1+j].IPC/base)
		}
	}

	out := make([]FrontEndAblationResult, 0, len(Table3Prefetchers))
	for _, pf := range Table3Prefetchers {
		out = append(out, FrontEndAblationResult{
			Prefetcher:       prefetcherDisplay[pf],
			CoupledSpeedup:   stats.Geomean(ratios[key{pf, false}]),
			DecoupledSpeedup: stats.Geomean(ratios[key{pf, true}]),
		})
	}
	return out, nil
}

// RenderFrontEndAblation prints the ablation table.
func RenderFrontEndAblation(w io.Writer, rows []FrontEndAblationResult) {
	fmt.Fprintln(w, "Front-end ablation (§4.4, after Ishii et al.): instruction-prefetcher")
	fmt.Fprintln(w, "speedups under the IPC-1 coupled front-end vs a decoupled (FDIP) front-end")
	fmt.Fprintf(w, "  %-10s %14s %16s\n", "prefetcher", "coupled", "decoupled(FDIP)")
	var coupledGain, decoupledGain []float64
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %14.4f %16.4f\n", r.Prefetcher, r.CoupledSpeedup, r.DecoupledSpeedup)
		coupledGain = append(coupledGain, r.CoupledSpeedup)
		decoupledGain = append(decoupledGain, r.DecoupledSpeedup)
	}
	if len(rows) > 0 {
		fmt.Fprintf(w, "  geomean speedup: coupled %.4f, decoupled %.4f — the decoupled\n",
			stats.Geomean(coupledGain), stats.Geomean(decoupledGain))
		fmt.Fprintln(w, "  front-end's own prefetching absorbs much of the dedicated prefetchers' gain.")
	}
}
