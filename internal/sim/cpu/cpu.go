// Package cpu implements the ChampSim-class trace-driven out-of-order core:
// a decoupled (or coupled) front-end with FTQ and fetch-directed instruction
// prefetch, branch direction/target prediction, L1I fetch, and a back-end
// with ROB, register dependency scheduling, load/store queues with
// store-to-load forwarding, and in-order retire.
//
// Like ChampSim, the model is trace-driven: wrong-path instructions are not
// available, so a mispredicted branch stalls instruction supply until the
// branch resolves in the back-end, after which fetch resumes with a redirect
// penalty. This is exactly the mechanism through which the paper's converter
// improvements change IPC: restoring register dependencies delays branch
// resolution (flag-reg, branch-regs), while splitting base updates
// accelerates address generation (base-update).
package cpu

import (
	"fmt"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/sim/bpred"
	"tracerebase/internal/sim/btb"
	"tracerebase/internal/sim/dprefetch"
	"tracerebase/internal/sim/iprefetch"
	"tracerebase/internal/sim/mem"
)

// Config parameterizes the core.
type Config struct {
	// Name labels the configuration ("develop", "ipc1").
	Name string

	// Pipeline widths (instructions per cycle).
	FetchWidth, DispatchWidth, IssueWidth, RetireWidth int
	// ROBSize bounds in-flight instructions; SQSize bounds the store
	// queue used for store-to-load forwarding.
	ROBSize, SQSize int
	// FTQSize is the decoupled front-end's fetch target queue depth;
	// DecodeQueue bounds instructions fetched but not yet dispatched.
	FTQSize, DecodeQueue int

	// DecodeLatency is the fetch-to-dispatch pipe depth in cycles;
	// RedirectPenalty is the extra front-end bubble after a branch
	// resolves a misprediction.
	DecodeLatency, RedirectPenalty uint64

	// Decoupled enables the runahead branch-prediction unit that fills
	// the FTQ ahead of fetch and prefetches fetch targets into the L1I
	// (fetch-directed instruction prefetch).
	Decoupled bool

	// Rules selects the branch-type deduction (original or §3.2.2
	// patched ChampSim).
	Rules champtrace.RuleSet
	// Predictor names the direction predictor (see bpred.New).
	Predictor string
	// BTBEntries/BTBWays/RASSize size the target structures; UseITTAGE
	// adds the indirect target predictor; IdealTargets makes every
	// branch target prediction perfect (the IPC-1 configuration).
	BTBEntries, BTBWays, RASSize int
	UseITTAGE                    bool
	IdealTargets                 bool

	// Memory hierarchy and prefetchers.
	Hierarchy                   mem.HierarchyConfig
	L1DPrefetcher, L2Prefetcher string
	L1IPrefetcher               string

	// UseTLBs enables the ITLB/DTLB/STLB translation hierarchy; TLBs
	// sizes it (zero value = mem.DefaultTLBConfig).
	UseTLBs bool
	TLBs    mem.TLBHierarchyConfig

	// StoreForwardLatency is the load latency when forwarded from the
	// store queue.
	StoreForwardLatency uint64

	// NoCycleSkip disables event-horizon cycle skipping, forcing the
	// classic one-tick-per-pass loop. Skipping is transparent — every
	// reported counter is identical either way (the conformance suite's
	// CheckCycleSkipTransparency proves it) — so this exists only for
	// verification and benchmarking. The field participates in Identity(),
	// keying cached results separately from skipping runs.
	NoCycleSkip bool

	// Cores > 1 makes this an N-core lockstep configuration simulated via
	// NewMulti/MultiPipeline: per-core private L1I/L1D/L2/TLBs and
	// predictors in front of one shared LLC. The single-core Run rejects
	// such configurations. Participates in Identity(), so multi-core cells
	// key disjointly from single-core ones.
	Cores int
	// MemBandwidth is the LLC↔DRAM port issue interval in cycles (one
	// request per MemBandwidth cycles; queueing when exceeded). Zero
	// leaves the link unmodeled. Only meaningful at Cores > 1, where DRAM
	// pressure is a cross-core effect; single-core configurations reject a
	// nonzero value to keep the exact path byte-identical to prior
	// releases.
	MemBandwidth uint64

	// SamplePeriod > 0 enables SMARTS-style interval sampling: every
	// period instructions, SampleDetail instructions run through the full
	// detailed pipeline and the rest of the period is fast-forwarded by
	// the functional warmer (see sample.go). All three fields participate
	// in Identity(), so sampled and exact results can never share a cache
	// entry. Zero (the default) is exact mode, whose simulation path is
	// untouched by sampling.
	SamplePeriod uint64
	// SampleDetail is the detailed-interval length in instructions; the
	// first half of each interval is pipeline ramp-up excluded from
	// measurement (see sampleRampDiv).
	SampleDetail uint64
	// SampleWarm bounds full functional warming inside each fast-forward
	// gap: only the last SampleWarm instructions before the next detailed
	// interval update every structure (branch predictors, BTB, RAS,
	// prefetch hooks); the rest of the gap runs the light phase, which
	// warms caches, TLBs, and data prefetchers only. Zero fully warms
	// entire gaps (the classic SMARTS configuration).
	SampleWarm uint64
}

// Validate fills defaults and rejects nonsensical configurations.
func (c *Config) Validate() error {
	if c.FetchWidth <= 0 || c.DispatchWidth <= 0 || c.IssueWidth <= 0 || c.RetireWidth <= 0 {
		return fmt.Errorf("cpu: widths must be positive: %+v", c)
	}
	if c.ROBSize <= 0 {
		return fmt.Errorf("cpu: ROB size must be positive")
	}
	if c.SQSize <= 0 {
		c.SQSize = 32
	}
	if c.FTQSize <= 0 {
		c.FTQSize = c.FetchWidth
	}
	if c.DecodeQueue <= 0 {
		c.DecodeQueue = 4 * c.DispatchWidth
	}
	if c.StoreForwardLatency == 0 {
		c.StoreForwardLatency = 2
	}
	if c.BTBEntries <= 0 {
		c.BTBEntries = 16384
	}
	if c.BTBWays <= 0 {
		c.BTBWays = 8
	}
	if c.RASSize <= 0 {
		c.RASSize = 64
	}
	if c.SamplePeriod > 0 {
		if c.SampleDetail == 0 {
			c.SampleDetail = c.SamplePeriod / 10
		}
		if c.SampleDetail >= c.SamplePeriod {
			return fmt.Errorf("cpu: sample detail %d must be smaller than sample period %d",
				c.SampleDetail, c.SamplePeriod)
		}
	}
	return nil
}

// Identity returns a canonical string covering every architectural
// parameter of the configuration — the processor-model component of a
// result-cache key. Two configurations with equal Identity simulate any
// trace identically (the code fingerprint, hashed alongside it, covers
// behavioural changes to the simulator itself). It renders the full field
// set rather than just Name so that ad-hoc variations of a named config
// (the front-end ablation's FTQ/decoupling edits, prefetcher swaps) key
// separately.
func (c Config) Identity() string {
	return fmt.Sprintf("cpu.Config%+v", c)
}

// CacheStat is the per-level statistics surfaced in results.
type CacheStat struct {
	Accesses, Misses uint64
	UsefulPrefetches uint64
}

// MPKI returns misses per kilo instruction given the instruction count.
func (c CacheStat) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return 1000 * float64(c.Misses) / float64(instructions)
}

// Stats is the result of one simulation.
type Stats struct {
	// Instructions and Cycles cover the measured region (after warm-up).
	Instructions, Cycles uint64

	Branches, CondBranches, TakenBranches uint64
	// Mispredicts is the union of direction and target mispredictions;
	// the components are reported separately like the paper's Table 2.
	Mispredicts, DirMispredicts, TargetMispredicts uint64
	Returns, ReturnMispredicts                     uint64
	BTBMisses                                      uint64

	Loads, Stores uint64

	L1I, L1D, L2, LLC CacheStat

	// ITLBMisses, DTLBMisses and STLBMisses count translation misses
	// (zero when the configuration runs without TLBs).
	ITLBMisses, DTLBMisses, STLBMisses uint64

	// SkippedCycles counts measured-region cycles the event-horizon
	// skipper jumped over instead of ticking through (a subset of Cycles,
	// which is unchanged by skipping); CycleSkips counts the jumps. Both
	// are zero under Config.NoCycleSkip. Host-performance telemetry only:
	// no figure or table renders them.
	SkippedCycles, CycleSkips uint64

	// Sampling summary, populated only when Config.SamplePeriod > 0 (all
	// zero in exact mode; omitted from JSON so exact output is unchanged).
	// In sampled mode Instructions/Cycles and every counter above cover
	// the union of the detailed measurement windows, so IPC() is the
	// ratio-of-sums sampled estimate; SampleIPCMean/SampleCI95 give the
	// mean of per-interval IPCs and its 95% confidence half-width.
	// WarmedInstructions were fully functionally warmed; Skipped ones went
	// through the light phase (cache and TLB warming only).
	SampleIntervals     uint64  `json:",omitempty"`
	WarmedInstructions  uint64  `json:",omitempty"`
	SkippedInstructions uint64  `json:",omitempty"`
	SampleIPCMean       float64 `json:",omitempty"`
	SampleCI95          float64 `json:",omitempty"`
}

// IPC returns instructions per cycle for the measured region.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// BranchMPKI returns the overall branch MPKI (direction + target union).
func (s Stats) BranchMPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return 1000 * float64(s.Mispredicts) / float64(s.Instructions)
}

// DirMPKI returns the direction misprediction MPKI.
func (s Stats) DirMPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return 1000 * float64(s.DirMispredicts) / float64(s.Instructions)
}

// TargetMPKI returns the target misprediction MPKI for taken branches.
func (s Stats) TargetMPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return 1000 * float64(s.TargetMispredicts) / float64(s.Instructions)
}

// ReturnMPKI returns the return-target misprediction MPKI (Fig. 5).
func (s Stats) ReturnMPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return 1000 * float64(s.ReturnMispredicts) / float64(s.Instructions)
}

// New builds a single-core Pipeline for the given configuration. Multi-core
// configurations (Cores > 1) are built through NewMulti instead.
func New(cfg Config) (*Pipeline, error) {
	return newPipeline(cfg, nil, 0)
}

// newPipeline builds one core. hier == nil constructs a private hierarchy
// from cfg.Hierarchy (the single-core path); the multi-core engine passes
// each core's view of the shared hierarchy, plus the core's index for
// per-core LLC attribution.
func newPipeline(cfg Config, hier *mem.Hierarchy, coreID int) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if hier == nil {
		if cfg.MemBandwidth > 0 {
			return nil, fmt.Errorf("cpu: MemBandwidth models the shared LLC↔DRAM port and requires Cores > 1 (use NewMulti)")
		}
		if cfg.Hierarchy.LLC.Policy == "shared-srrip" {
			return nil, fmt.Errorf("cpu: LLC policy %q is core-aware and requires Cores > 1 (use NewMulti)", cfg.Hierarchy.LLC.Policy)
		}
	}
	pred, err := bpred.New(cfg.Predictor)
	if err != nil {
		return nil, err
	}
	tp := btb.NewTargetPredictor(cfg.BTBEntries, cfg.BTBWays, cfg.RASSize, cfg.UseITTAGE)
	tp.Ideal = cfg.IdealTargets

	if hier == nil {
		hier = mem.NewHierarchy(cfg.Hierarchy)
	}
	l1dpf, err := dprefetch.New(cfg.L1DPrefetcher)
	if err != nil {
		return nil, err
	}
	if l1dpf != nil {
		hier.L1D.SetPrefetcher(l1dpf)
	}
	l2pf, err := dprefetch.New(cfg.L2Prefetcher)
	if err != nil {
		return nil, err
	}
	if l2pf != nil {
		hier.L2.SetPrefetcher(l2pf)
	}
	ipf, err := iprefetch.New(cfg.L1IPrefetcher)
	if err != nil {
		return nil, err
	}

	// The arena must cover every in-flight uop: each live uop sits in
	// exactly one of FTQ, decode queue, or ROB, so their capacity sum
	// (rounded to a power of two for masked indexing) guarantees no live
	// slot is ever reused.
	arenaCap := nextPow2(cfg.FTQSize + cfg.DecodeQueue + cfg.ROBSize)
	ftqCap := nextPow2(cfg.FTQSize)
	decqCap := nextPow2(cfg.DecodeQueue)
	sqCap := nextPow2(cfg.SQSize)
	p := &Pipeline{
		cfg:       cfg,
		pred:      pred,
		tp:        tp,
		hier:      hier,
		coreID:    coreID,
		ipf:       ipf,
		arena:     make([]uop, arenaCap),
		arenaMask: uint32(arenaCap - 1),
		ftq:       make([]uref, ftqCap),
		ftqMask:   uint32(ftqCap - 1),
		decq:      make([]uref, decqCap),
		decqMask:  uint32(decqCap - 1),
		readyAt:   make([]uint64, arenaCap),
		grounded:  make([]uint64, (arenaCap+63)/64),
		sq:        make([]sqEntry, sqCap),
		sqMask:    uint32(sqCap - 1),
	}
	if cfg.UseTLBs {
		tcfg := cfg.TLBs
		if tcfg == (mem.TLBHierarchyConfig{}) {
			tcfg = mem.DefaultTLBConfig()
		}
		p.tlbs = mem.NewTLBHierarchy(tcfg)
	}
	return p, nil
}
