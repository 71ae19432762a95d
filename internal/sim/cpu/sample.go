package cpu

// SMARTS-style interval sampling (Wunderlich et al.): the measured region
// alternates short detailed intervals with long fast-forward gaps. During a
// gap the functional warmer retires instructions with no pipeline modeling
// but drives every history-bearing structure — caches, TLBs, BTB, RAS,
// ITTAGE, direction predictor, prefetchers — through exactly the call
// sequence the detailed front-end would issue in program order, so each
// detailed interval starts from realistically warm state. Per-interval IPC
// feeds a running mean and 95% confidence interval; aggregate counters sum
// the measurement windows.
//
// Gaps have up to three phases: a light prefix warming only the cache and
// TLB tag arrays — the structures whose contents reach back far enough that
// a short warm window cannot rebuild them — then a full warm window of
// Config.SampleWarm instructions immediately before the next interval, and
// the interval itself. SampleWarm = 0 fully warms whole gaps, the classic
// SMARTS configuration.
//
// The exact simulation path is untouched: Run dispatches here only when
// Config.SamplePeriod > 0, and nothing in this file runs otherwise.

import (
	"io"
	"math"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/sim/mem"
)

// sampleRampDiv: the leading 1/sampleRampDiv of each detailed interval
// refills the pipeline after the gap and is excluded from measurement. The
// ramp must cover filling a ~350-entry ROB and re-establishing memory-level
// parallelism, so it takes half the interval.
const sampleRampDiv = 2

// sampleRNG is the fixed-increment LCG (Knuth's MMIX constants) placing
// each detailed interval at a pseudo-random offset within its period window
// — stratified sampling, which breaks the aliasing a fixed period suffers
// against phase-periodic traces. The stream is seeded with a constant XOR a
// content hash of the warm-up prefix (sampleSalt), so each trace draws its
// own interval schedule: with a shared schedule, traces of one category —
// which share phase structure — would land their intervals on correlated
// phase points and their sampling errors would not cancel in category
// means. Both terms are deterministic functions of the trace, so sampled
// runs stay bit-deterministic and every replay walks an identical schedule.
func sampleRNG(x uint64) uint64 {
	return x*6364136223846793005 + 1442695040888963407
}

const sampleSeed = 0x9e3779b97f4a7c15

func (p *Pipeline) runSampled(src champtrace.Source, warmup, maxInstructions uint64) (Stats, error) {
	if err := p.la.init(src); err != nil {
		return Stats{}, err
	}
	if err := p.warmPrefix(warmup); err != nil {
		return Stats{}, err
	}
	return p.sampleLoop(maxInstructions)
}

// warmPrefix fast-forwards the n-instruction warm-up region under the
// sampling warm policy: with SampleWarm set, only the trailing SampleWarm
// instructions warm every structure and the earlier ones warm caches and
// TLBs only — the same structure every gap uses, so the first detailed
// interval is conditioned like all later ones. SampleWarm = 0 fully warms
// the whole region.
func (p *Pipeline) warmPrefix(n uint64) error {
	w := n
	if p.cfg.SampleWarm > 0 && p.cfg.SampleWarm < n {
		w = p.cfg.SampleWarm
	}
	if _, err := p.light(n - w); err != nil {
		return err
	}
	_, err := p.warm(w)
	return err
}

// sampleLoop alternates detailed intervals and fast-forward gaps from the
// pipeline's current position until limit instructions have retired (0 = no
// limit) or the trace ends. The measured region is tiled into SamplePeriod
// windows; each window holds one SampleDetail interval at a stratified
// pseudo-random offset, reached by skipping the gap and functionally
// warming its last SampleWarm instructions.
func (p *Pipeline) sampleLoop(limit uint64) (Stats, error) {
	if limit == 0 {
		limit = ^uint64(0)
	}
	var (
		acc             Stats
		warmed, skipped uint64
		// Welford accumulator over interval IPCs.
		n        uint64
		mean, m2 float64
	)
	base := p.retired
	rng := uint64(sampleSeed) ^ p.sampleSalt
	span := p.cfg.SamplePeriod - p.cfg.SampleDetail + 1
	for k := uint64(0); !p.la.done; k++ {
		windowStart := base + k*p.cfg.SamplePeriod
		if windowStart >= limit {
			break
		}
		rng = sampleRNG(rng)
		start := windowStart + (rng>>33)%span
		if start > p.retired {
			gap := start - p.retired
			warmWin := p.cfg.SampleWarm
			if warmWin == 0 || warmWin > gap {
				warmWin = gap
			}
			nlight, err := p.light(gap - warmWin)
			if err != nil {
				return Stats{}, err
			}
			skipped += nlight
			nwarm, err := p.warm(warmWin)
			if err != nil {
				return Stats{}, err
			}
			warmed += nwarm
		}
		if p.la.done || p.retired >= limit {
			break
		}
		target := p.retired + p.cfg.SampleDetail
		if target > limit {
			target = limit
		}
		win, err := p.runDetailedInterval(target, p.retired+p.cfg.SampleDetail/sampleRampDiv)
		if err != nil {
			return Stats{}, err
		}
		if win.Cycles > 0 && win.Instructions > 0 {
			acc.add(win)
			ipc := win.IPC()
			n++
			d := ipc - mean
			mean += d / float64(n)
			m2 += d * (ipc - mean)
		}
		p.flushInflight()
	}
	p.st = acc
	p.st.SampleIntervals = n
	p.st.WarmedInstructions = warmed
	p.st.SkippedInstructions = skipped
	p.st.SampleIPCMean = mean
	if n > 1 {
		p.st.SampleCI95 = 1.96 * math.Sqrt(m2/float64(n-1)/float64(n))
	}
	return p.st, nil
}

// runDetailedInterval runs detailed cycles, as runExactBody does, until target
// instructions have retired, opening the measurement window once rampAt
// retire (pipeline refilled after the gap). It returns the window's stats;
// the pipeline is left mid-flight for flushInflight to drain functionally —
// the interval neither drains nor pays an end-of-trace tail, so its IPC is
// an unbiased steady-state observation.
func (p *Pipeline) runDetailedInterval(target, rampAt uint64) (Stats, error) {
	skip := !p.cfg.NoCycleSkip
	open := false
	for {
		p.pass()
		if skip && !p.progressed && p.nextWake != ^uint64(0) && p.nextWake > p.cycle+1 {
			p.jumpTo(p.nextWake)
		} else {
			p.cycle++
		}
		if !open && p.retired >= rampAt {
			open = true
			p.beginMeasurement()
		}
		if p.retired >= target || p.drained() {
			break
		}
	}
	if !open {
		// Trace ended before the ramp: empty window, discarded by caller.
		p.beginMeasurement()
	}
	return p.finalize(), nil
}

// flushInflight functionally retires every in-flight uop at the end of a
// detailed interval: unexecuted loads and all unretired stores warm the
// data side in program order (stores write at retire in the detailed model,
// so no in-flight store has touched the L1D yet), then the queues reset.
// Front-end state — predictors, BTB, L1I, instruction prefetchers — needs
// nothing: it was updated at FTQ insertion, which already happened for
// every in-flight uop.
func (p *Pipeline) flushInflight() {
	for s := p.retired + 1; s <= p.seq; s++ {
		u := &p.arena[uint32(s)&p.arenaMask]
		if !u.completed {
			for _, a := range u.loadAddrs[:u.nLoads] {
				if p.tlbs != nil {
					p.tlbs.TranslateD(a)
				}
				p.hier.L1D.WarmAccess(a, u.ip, mem.Read, true, true)
			}
		}
		for _, a := range u.storeAddrs[:u.nStores] {
			p.hier.L1D.WarmAccess(a, u.ip, mem.Write, true, true)
		}
		u.completed = true
		if u.complete < p.cycle {
			u.complete = p.cycle
		}
	}
	p.retired = p.seq
	p.robCount = 0
	p.ftqLen = 0
	p.decqLen = 0
	clear(p.grounded)
	p.sqHead = 0
	p.sqLen = 0
	clear(p.sqCount[:])
	p.stalled = false
	for i := range p.regProducer {
		p.regProducer[i] = noref
	}
}

// warm fast-forwards up to n instructions through the functional warmer and
// reports how many it consumed (fewer at end of trace).
func (p *Pipeline) warm(n uint64) (uint64, error) {
	for i := uint64(0); i < n; i++ {
		in, nextIP, err := p.la.pop()
		if err == io.EOF {
			return i, nil
		}
		if err != nil {
			return i, err
		}
		p.warmInstr(in, nextIP)
	}
	return n, nil
}

// warmInstr retires one instruction functionally. The structure-update
// sequence mirrors bpuFill exactly — branch predictors first, then the
// fetch-directed L1I access on a line transition, then the FTQ-insert
// prefetch hook — so over any program prefix the direction predictor, BTB,
// RAS, ITTAGE, and ITLB reach state identical to a detailed run (the
// warming equivalence tests compare the structures to prove it). Data-side
// accesses issue in program order at one cycle per instruction, a close
// approximation of the detailed model's out-of-order issue.
func (p *Pipeline) warmInstr(in *champtrace.Instruction, nextIP uint64) {
	p.seq++
	p.retired++
	p.cycle++
	p.sampleSalt = (p.sampleSalt ^ in.IP) * 1099511628211
	ip := in.IP
	btype := champtrace.Classify(in, p.cfg.Rules)
	taken := in.IsBranch && in.Taken

	if btype != champtrace.NotBranch {
		if btype == champtrace.BranchConditional {
			p.pred.Predict(ip)
			p.pred.Update(ip, taken)
		}
		predTarget, predKnown := p.tp.Predict(ip, btype)
		var actual uint64
		if taken {
			actual = nextIP
		}
		p.tp.Resolve(ip, btype, taken, predTarget, predKnown, actual, ip+4)
		if p.ipf != nil && taken {
			p.ipfBuf = p.ipf.OnBranch(ip, actual, btype, p.ipfBuf[:0])
			p.issueIPrefetches(p.ipfBuf)
		}
	}

	line := mem.LineAddr(ip)
	if line != p.insertLine {
		p.insertLine = line
		p.curLine = line
		if p.tlbs != nil {
			p.tlbs.TranslateI(line)
		}
		hit := p.hier.L1I.Contains(line)
		p.hier.L1I.WarmAccess(line, 0, mem.Fetch, true, true)
		p.insertLineAt = p.cycle
		p.curLineAt = p.cycle
		if p.ipf != nil {
			p.ipfBuf = p.ipf.OnAccess(line, hit, p.ipfBuf[:0])
			p.issueIPrefetches(p.ipfBuf)
		}
	}
	if p.ipf != nil {
		p.ipfBuf = p.ipf.OnFTQInsert(line, p.ipfBuf[:0])
		p.issueIPrefetches(p.ipfBuf)
	}

	for _, a := range in.SrcMem {
		if a != 0 {
			if p.tlbs != nil {
				p.tlbs.TranslateD(a)
			}
			p.hier.L1D.WarmAccess(a, ip, mem.Read, true, true)
		}
	}
	for _, a := range in.DestMem {
		if a != 0 {
			p.hier.L1D.WarmAccess(a, ip, mem.Write, true, true)
		}
	}
}

// light fast-forwards up to n instructions warming only the memory side —
// caches, TLBs, and data prefetchers — and reports how many it consumed. It
// is the cheap prefix phase of a gap: the structures with the longest
// history — cache and TLB tag arrays, whose contents reach back hundreds of
// thousands of instructions, and the prefetch streams feeding them — are
// kept continuously warm, while the quickly-rewarmed front-end structures
// (branch predictors, BTB, RAS) are left to the full warm window before the
// interval. Data-side prefetchers both train and fill here: in the detailed
// model prefetched lines land in the caches too, and withholding them
// systematically understates interval hit rates on prefetch-friendly
// traces. The instruction side neither trains nor fills (lightInstr skips
// the ipf hooks, so L1I prefetch state waits for the warm window).
func (p *Pipeline) light(n uint64) (uint64, error) {
	for i := uint64(0); i < n; i++ {
		in, _, err := p.la.pop()
		if err == io.EOF {
			return i, nil
		}
		if err != nil {
			return i, err
		}
		p.lightInstr(in)
	}
	return n, nil
}

func (p *Pipeline) lightInstr(in *champtrace.Instruction) {
	p.seq++
	p.retired++
	p.cycle++
	p.sampleSalt = (p.sampleSalt ^ in.IP) * 1099511628211
	line := mem.LineAddr(in.IP)
	if line != p.insertLine {
		p.insertLine = line
		p.curLine = line
		if p.tlbs != nil {
			p.tlbs.TranslateI(line)
		}
		p.hier.L1I.WarmAccess(line, 0, mem.Fetch, false, false)
		p.insertLineAt = p.cycle
		p.curLineAt = p.cycle
	}
	for _, a := range in.SrcMem {
		if a != 0 {
			if p.tlbs != nil {
				p.tlbs.TranslateD(a)
			}
			p.hier.L1D.WarmAccess(a, in.IP, mem.Read, true, true)
		}
	}
	for _, a := range in.DestMem {
		if a != 0 {
			p.hier.L1D.WarmAccess(a, in.IP, mem.Write, true, true)
		}
	}
}

// add accumulates one measurement window into the aggregate.
func (s *Stats) add(o Stats) {
	s.Instructions += o.Instructions
	s.Cycles += o.Cycles
	s.Branches += o.Branches
	s.CondBranches += o.CondBranches
	s.TakenBranches += o.TakenBranches
	s.Mispredicts += o.Mispredicts
	s.DirMispredicts += o.DirMispredicts
	s.TargetMispredicts += o.TargetMispredicts
	s.Returns += o.Returns
	s.ReturnMispredicts += o.ReturnMispredicts
	s.BTBMisses += o.BTBMisses
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.L1I.add(o.L1I)
	s.L1D.add(o.L1D)
	s.L2.add(o.L2)
	s.LLC.add(o.LLC)
	s.ITLBMisses += o.ITLBMisses
	s.DTLBMisses += o.DTLBMisses
	s.STLBMisses += o.STLBMisses
	s.SkippedCycles += o.SkippedCycles
	s.CycleSkips += o.CycleSkips
}

func (c *CacheStat) add(o CacheStat) {
	c.Accesses += o.Accesses
	c.Misses += o.Misses
	c.UsefulPrefetches += o.UsefulPrefetches
}
