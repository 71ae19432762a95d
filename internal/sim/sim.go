// Package sim is the facade over the ChampSim-class simulator: it bundles
// the two processor configurations the paper evaluates on and a one-call
// Run API consuming ChampSim trace sources.
//
//   - ConfigDevelop models the main/develop ChampSim used in §4.1–§4.3:
//     a decoupled front-end, 16K-entry BTB, 64 KB TAGE-SC-L and ITTAGE,
//     an ip-stride prefetcher at the L1D and a next-line prefetcher at the
//     L2 (the Icelake-like setup).
//   - ConfigIPC1 models the ChampSim version used for the first Instruction
//     Prefetching Championship in §4.4: a coupled front-end, an ideal
//     branch-target predictor, and a pluggable L1I instruction prefetcher.
package sim

import (
	"tracerebase/internal/champtrace"
	"tracerebase/internal/sim/cpu"
	"tracerebase/internal/sim/mem"
)

// Config is re-exported so callers configure the simulator through this
// package.
type Config = cpu.Config

// Stats is the simulation result.
type Stats = cpu.Stats

// ConfigDevelop returns the paper's main-branch ChampSim model (§4).
// The branch rule set must match the converter: traces produced with the
// branch-regs improvement need champtrace.RulesPatched.
func ConfigDevelop(rules champtrace.RuleSet) Config {
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
		Rules:           rules,
		Predictor:       "tage-sc-l",
		BTBEntries:      16384,
		BTBWays:         8,
		RASSize:         64,
		UseITTAGE:       true,
		Hierarchy:       mem.DefaultHierarchyConfig(),
		L1DPrefetcher:   "ip-stride",
		L2Prefetcher:    "next-line",
		L1IPrefetcher:   "none",
		UseTLBs:         true,
	}
}

// ConfigIPC1 returns the IPC-1 contest model (§4.4): coupled front-end,
// ideal target predictor, and the named instruction prefetcher at the L1I.
// The championship ChampSim predates the decoupled front-end, which is why
// the paper warns its prefetcher speedups shrink under ConfigDevelop.
func ConfigIPC1(iprefetcher string, rules champtrace.RuleSet) Config {
	return Config{
		Name:            "ipc1",
		FetchWidth:      4,
		DispatchWidth:   4,
		IssueWidth:      4,
		RetireWidth:     4,
		ROBSize:         256,
		SQSize:          48,
		FTQSize:         8,
		DecodeQueue:     32,
		DecodeLatency:   4,
		RedirectPenalty: 1,
		Decoupled:       false,
		Rules:           rules,
		Predictor:       "tage",
		BTBEntries:      8192,
		BTBWays:         8,
		RASSize:         64,
		UseITTAGE:       false,
		IdealTargets:    true,
		Hierarchy:       mem.DefaultHierarchyConfig(),
		L1DPrefetcher:   "none",
		L2Prefetcher:    "none",
		L1IPrefetcher:   iprefetcher,
		UseTLBs:         true,
	}
}

// Run simulates src under cfg, measuring after warmup instructions and
// stopping after maxInstructions retire (0 = run the trace to the end).
func Run(src champtrace.Source, cfg Config, warmup, maxInstructions uint64) (Stats, error) {
	p, err := cpu.New(cfg)
	if err != nil {
		return Stats{}, err
	}
	return p.Run(src, warmup, maxInstructions)
}
