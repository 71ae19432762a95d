package main

import (
	"flag"

	"tracerebase/internal/report"
)

// requestFlags registers the run request's flags on fs, the same ten for
// `rebase` and `rebase submit`, and returns the Spec they parse into. Each
// flag is named after its POST /jobs field and defaults to
// report.Defaults.
func requestFlags(fs *flag.FlagSet) *report.Spec {
	d := report.Defaults()
	s := new(report.Spec)
	fs.StringVar(&s.Exp, "exp", d.Exp, "comma-separated experiments: table1, fig1..fig5, table2, table3, ablation, char, or all")
	fs.IntVar(&s.Step, "step", d.Step, "use every step-th trace of each suite (1 = all)")
	fs.IntVar(&s.Instructions, "instructions", d.Instructions, "instructions per trace")
	fs.Uint64Var(&s.Warmup, "warmup", d.Warmup, "warm-up instructions per trace")
	fs.BoolVar(&s.NoSkip, "no-skip", false, "disable event-horizon cycle skipping (results are identical; for verification and benchmarking)")
	fs.BoolVar(&s.JSON, "json", false, "emit results as JSON instead of text")
	fs.BoolVar(&s.Sample, "sample", false, "SMARTS-style interval sampling: short detailed intervals separated by functionally-warmed fast-forward gaps (several times faster; IPC carries a small sampling error, reported with a 95% CI)")
	fs.Uint64Var(&s.SamplePeriod, "sample-period", d.SamplePeriod, "sampled mode: instructions per sampling period (one detailed interval each)")
	fs.Uint64Var(&s.SampleDetail, "sample-detail", d.SampleDetail, "sampled mode: detailed instructions per interval (first half is unmeasured pipeline ramp)")
	fs.Uint64Var(&s.SampleWarm, "sample-warm", d.SampleWarm, "sampled mode: fully-warmed instructions ahead of each interval (0 = warm whole gaps)")
	return s
}
