// Command traceinfo characterizes a trace file: the instruction mix, branch
// composition, register usage and memory behaviour that drive the paper's
// conversion analysis. It understands both CVP-1 traces (-format cvp) and
// ChampSim traces (-format champsim).
//
//	traceinfo -t srv_0.cvp.gz
//	traceinfo -t srv_0.champsim -format champsim -rules patched
//
// With -cachekey it instead prints the result-cache key derivation for a
// synthetic trace and variant — every component hash (profile, options,
// simulator config, code fingerprint) plus the final content address — so
// an unexpected cache miss can be debugged by diffing components against
// an earlier run:
//
//	traceinfo -cachekey -profile srv_0 -variant All_imps
//	traceinfo -cachekey -profile server_023 -variant No_imp -model ipc1 -prefetcher epi
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/cvp"
	"tracerebase/internal/experiments"
	"tracerebase/internal/sim"
	"tracerebase/internal/synth"
)

func main() {
	var (
		tracePath = flag.String("t", "", "input trace; '-' for stdin")
		format    = flag.String("format", "cvp", "trace format: cvp or champsim")
		rules     = flag.String("rules", "original", "branch deduction rules for champsim traces")

		cachekey   = flag.Bool("cachekey", false, "print the result-cache key components for a synthetic trace/variant")
		profile    = flag.String("profile", "", "synthetic trace name (public suite or IPC-1 suite) for -cachekey")
		variant    = flag.String("variant", "All_imps", "converter variant or improvement name for -cachekey")
		model      = flag.String("model", "develop", "simulator model for -cachekey: develop or ipc1")
		prefetcher = flag.String("prefetcher", "none", "L1I prefetcher of the ipc1 model for -cachekey")
		instrs     = flag.Int("instructions", experiments.DefaultInstructions, "instructions per trace for -cachekey")
		warmup     = flag.Uint64("warmup", experiments.DefaultWarmup, "warm-up instructions for -cachekey")
	)
	flag.Parse()
	if *cachekey {
		if err := printCacheKey(*profile, *variant, *model, *prefetcher, *instrs, *warmup); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *tracePath == "" {
		fatalf("need -t trace (or -cachekey -profile NAME)")
	}
	in := os.Stdin
	if *tracePath != "-" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		in = f
	}

	switch *format {
	case "cvp":
		reader, closer, err := cvp.OpenReader(*tracePath, in)
		if err != nil {
			fatalf("%v", err)
		}
		defer closer.Close()
		if err := cvpInfo(reader); err != nil {
			fatalf("%v", err)
		}
	case "champsim":
		reader, closer, err := champtrace.OpenReader(*tracePath, in)
		if err != nil {
			fatalf("%v", err)
		}
		defer closer.Close()
		rs := champtrace.RulesOriginal
		if *rules == "patched" {
			rs = champtrace.RulesPatched
		}
		if err := champInfo(reader, rs); err != nil {
			fatalf("%v", err)
		}
	default:
		fatalf("unknown format %q", *format)
	}
}

func cvpInfo(r *cvp.Reader) error {
	var (
		total                        uint64
		byClass                      [cvp.NumClasses]uint64
		memNoDst, multiDst, withVals uint64
		readsLR, writesLR, rwLR      uint64
		condWithSrc                  uint64
		pcMin, pcMax                 uint64 = ^uint64(0), 0
	)
	for {
		in, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		total++
		byClass[in.Class]++
		if in.PC < pcMin {
			pcMin = in.PC
		}
		if in.PC > pcMax {
			pcMax = in.PC
		}
		if in.Class.IsMem() && len(in.DstRegs) == 0 {
			memNoDst++
		}
		if in.IsLoad() && len(in.DstRegs) >= 2 {
			multiDst++
		}
		if len(in.DstValues) > 0 {
			withVals++
		}
		if in.Class.IsBranch() && in.Class != cvp.ClassCondBranch {
			rd, wr := in.ReadsReg(cvp.RegLR), in.WritesReg(cvp.RegLR)
			if rd {
				readsLR++
			}
			if wr {
				writesLR++
			}
			if rd && wr {
				rwLR++
			}
		}
		if in.Class == cvp.ClassCondBranch && len(in.SrcRegs) > 0 {
			condWithSrc++
		}
	}
	if total == 0 {
		return fmt.Errorf("empty trace")
	}
	pct := func(c uint64) float64 { return 100 * float64(c) / float64(total) }
	fmt.Printf("format:            CVP-1\n")
	fmt.Printf("instructions:      %d\n", total)
	fmt.Printf("code span:         %#x..%#x (%d KB)\n", pcMin, pcMax, (pcMax-pcMin)/1024)
	for c := cvp.InstClass(0); int(c) < cvp.NumClasses; c++ {
		if byClass[c] > 0 {
			fmt.Printf("  %-22s %9d  (%5.2f%%)\n", c, byClass[c], pct(byClass[c]))
		}
	}
	fmt.Printf("mem without dst:   %d (%.2f%%)   multi-dst loads: %d (%.2f%%)\n",
		memNoDst, pct(memNoDst), multiDst, pct(multiDst))
	fmt.Printf("cond with src reg: %d (%.2f%%)\n", condWithSrc, pct(condWithSrc))
	fmt.Printf("uncond branches:   read-LR %d, write-LR %d, read+write-LR %d\n", readsLR, writesLR, rwLR)
	fmt.Printf("with output vals:  %d (%.2f%%)\n", withVals, pct(withVals))
	return nil
}

func champInfo(r *champtrace.Reader, rules champtrace.RuleSet) error {
	var (
		total, branches, taken uint64
		loads, stores          uint64
		multiAddr              uint64
		byType                 [champtrace.BranchOther + 1]uint64
	)
	for {
		in, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		total++
		if in.IsBranch {
			branches++
			if in.Taken {
				taken++
			}
			byType[champtrace.Classify(in, rules)]++
		}
		nl, ns := 0, 0
		for _, a := range in.SrcMem {
			if a != 0 {
				nl++
			}
		}
		for _, a := range in.DestMem {
			if a != 0 {
				ns++
			}
		}
		if nl > 0 {
			loads++
		}
		if ns > 0 {
			stores++
		}
		if nl > 1 || ns > 1 {
			multiAddr++
		}
	}
	if total == 0 {
		return fmt.Errorf("empty trace")
	}
	pct := func(c uint64) float64 { return 100 * float64(c) / float64(total) }
	fmt.Printf("format:        ChampSim (%s rules)\n", rules)
	fmt.Printf("instructions:  %d\n", total)
	fmt.Printf("branches:      %d (%.2f%%), %d taken\n", branches, pct(branches), taken)
	for bt := champtrace.BranchDirectJump; bt <= champtrace.BranchOther; bt++ {
		if byType[bt] > 0 {
			fmt.Printf("  %-14s %9d\n", bt, byType[bt])
		}
	}
	fmt.Printf("loads:         %d (%.2f%%)\n", loads, pct(loads))
	fmt.Printf("stores:        %d (%.2f%%)\n", stores, pct(stores))
	fmt.Printf("multi-address: %d (%.2f%%) — mem-footprint cacheline splits\n", multiAddr, pct(multiAddr))
	return nil
}

// printCacheKey resolves the named synthetic trace and variant, derives
// the result-cache key exactly as the sweep engine would, and prints every
// component. Two runs disagreeing on the final key can be diagnosed by the
// first component line that differs.
func printCacheKey(profileName, variantName, model, prefetcher string, instructions int, warmup uint64) error {
	if profileName == "" {
		return fmt.Errorf("-cachekey needs -profile NAME (e.g. srv_0 or server_023)")
	}
	p, err := findProfile(profileName)
	if err != nil {
		return err
	}
	opts, err := findOptions(variantName)
	if err != nil {
		return err
	}
	var cfg sim.Config
	switch model {
	case "develop":
		// Rules pair with the variant the same way the sweep pairs them.
		cfg = experiments.DevelopConfigFor(opts)
	case "ipc1":
		rules := champtrace.RulesOriginal
		if opts.BranchRegs {
			rules = champtrace.RulesPatched
		}
		cfg = sim.ConfigIPC1(prefetcher, rules)
	default:
		return fmt.Errorf("unknown -model %q (develop or ipc1)", model)
	}

	info := experiments.CacheKey(p, opts, cfg, instructions, warmup)
	fmt.Printf("trace:           %s (%s)\n", p.Name, p.Category)
	fmt.Printf("variant:         %s (bits %#02x)\n", opts, opts.Bits())
	fmt.Printf("model:           %s\n", cfg.Name)
	fmt.Printf("instructions:    %d (warmup %d)\n", info.Instructions, info.Warmup)
	fmt.Printf("schema version:  %d\n", info.SchemaVersion)
	fmt.Printf("profile hash:    %s\n", info.ProfileHash)
	fmt.Printf("options hash:    %s\n", info.OptionsHash)
	fmt.Printf("config hash:     %s\n", info.ConfigHash)
	fmt.Printf("fingerprint:     %s\n", info.Fingerprint)
	fmt.Printf("cache key:       %s\n", info.Key)
	fmt.Printf("config identity: %s\n", info.ConfigIdentity)
	return nil
}

// findProfile resolves a trace name against the public suite, then the
// IPC-1 suite (both its IPC-1 names and the underlying CVP names).
func findProfile(name string) (synth.Profile, error) {
	for _, p := range synth.PublicSuite() {
		if p.Name == name {
			return p, nil
		}
	}
	if tr, ok := synth.FindIPC1(name); ok {
		return tr.Profile, nil
	}
	for _, tr := range synth.IPC1Suite() {
		if tr.CVPName == name || tr.Profile.Name == name {
			return tr.Profile, nil
		}
	}
	return synth.Profile{}, fmt.Errorf("unknown trace %q (not in the public or IPC-1 suites)", name)
}

// findOptions resolves a variant label (sweep variant names like All_imps,
// or any spelling core.ParseImprovement accepts).
func findOptions(name string) (core.Options, error) {
	for _, v := range experiments.Variants() {
		if v.Name == name {
			return v.Opts, nil
		}
	}
	return core.ParseImprovement(name)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "traceinfo: "+format+"\n", args...)
	os.Exit(1)
}
