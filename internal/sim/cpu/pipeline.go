package cpu

import (
	"fmt"
	"io"
	"math/bits"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/sim/btb"
	"tracerebase/internal/sim/mem"
)

// uop is one in-flight instruction. Uops live in the pipeline's preallocated
// arena ring and are referred to by 32-bit refs (see uref), never by pointer,
// so the steady-state cycle loop performs no heap allocation and the GC never
// scans pipeline state.
type uop struct {
	ip    uint64
	seq   uint64
	btype champtrace.BranchType
	taken bool
	// target is the actual next IP of a taken branch (trace truth).
	target uint64

	// loadAddrs/storeAddrs are inlined at the trace format's maximum
	// (NumSrcMem/NumDestMem slots), so no per-uop slice is ever allocated;
	// nLoads/nStores give the live prefix.
	loadAddrs  [champtrace.NumSrcMem]uint64
	storeAddrs [champtrace.NumDestMem]uint64
	nLoads     uint8
	nStores    uint8

	// lineReady is the cycle the uop's icache line is available, set at
	// FTQ insertion in decoupled mode (fetch-directed icache access).
	lineReady uint64

	srcRegs [champtrace.NumSrcRegs]uint8
	dstRegs [champtrace.NumDestRegs]uint8
	// nWait counts the source producers that had not executed at rename
	// and still have not. depHead heads this uop's list of dependents:
	// each edge is a consumer's seq<<2 | source index, and the link to the
	// next edge lives in the consumer's depNext at that source index, so
	// the lists need no storage of their own. 0 ends a list.
	nWait   uint8
	depHead uint64
	depNext [champtrace.NumSrcRegs]uint64

	fetchLine   uint64
	decodeReady uint64
	completed   bool
	complete    uint64 // cycle at which the result is available

	// mispred marks a branch whose direction or target prediction was
	// wrong: instruction supply stalls at this uop until it resolves.
	mispred bool
}

// uref is a 32-bit reference to an arena uop: the low bits (arenaMask) index
// the ring slot, and the full value is the truncated sequence number of the
// referenced uop, so the bits above the slot index act as a generation tag.
// A ref whose value no longer matches the slot's uint32(seq) is stale — the
// producer retired and its slot was recycled — and stale producers are by
// construction complete. Rename checks a source's producer ref once, when
// it links the consumer, and a stale ref reads as "ready" there without
// any clearing. noref (0) means "no producer"; real seqs start at 1.
// (Generation aliasing would need 2^32 uops between a register's last
// write and its next read — far beyond any simulated interval.)
type uref = uint32

// noref is the nil uref.
const noref uref = 0

type sqEntry struct {
	addr  uint64 // 8-byte-aligned store address
	ready uint64 // cycle the data can be forwarded
	seq   uint64
}

// The store queue counts its entries per address bucket, so a load whose
// bucket is empty skips the forwarding scan: the bucket of an aligned
// address a is a*sqHashMul>>(64-sqBucketBits). Few loads forward (0.3% of
// the forward calls of `rebase -exp all -step 17`), and there the empty
// bucket spares 89% of the scans over a queue about 60 entries deep.
const (
	sqBucketBits = 9
	sqHashMul    = 0x9E3779B97F4A7C15
)

// Pipeline is the simulated core. All queues are fixed-capacity rings over
// preallocated storage: after the structures reach their high-water mark the
// cycle loop allocates nothing.
type Pipeline struct {
	cfg  Config
	pred directionPredictor
	tp   targetPredictor
	hier *mem.Hierarchy
	tlbs *mem.TLBHierarchy
	ipf  iprefetchHook

	// arena is the uop ring: a uop with sequence number s lives in slot
	// uint32(s) & arenaMask. Allocation (bpuFill) and release (retire)
	// are both in sequence order, so the live region is contiguous.
	arena     []uop
	arenaMask uint32

	// Front end.
	la        lookahead
	ftq       []uref // ring, capacity ≥ FTQSize
	ftqMask   uint32
	ftqHead   uint32
	ftqLen    int
	decq      []uref // ring, capacity ≥ DecodeQueue
	decqMask  uint32
	decqHead  uint32
	decqLen   int
	stalled   bool
	stalledOn uref
	curLine   uint64
	curLineAt uint64 // cycle the current fetch line is available
	// insertLine/insertLineAt implement the decoupled front-end's
	// in-order icache pipeline: the FTQ issues one access per line as
	// entries are enqueued, ahead of fetch.
	insertLine   uint64
	insertLineAt uint64
	// sampleSalt hashes the IPs consumed by functional warming; the
	// sampling loop folds it into its placement RNG so every trace gets
	// its own stratified interval schedule (sample.go).
	sampleSalt uint64

	// Back end. The ROB needs no storage of its own: it is exactly the
	// oldest robCount live uops of the arena, in sequence order, with the
	// head at sequence p.retired+1.
	robCount int
	// The scheduler state is indexed by arena slot. readyAt holds the
	// cycle a dispatched uop's executed producers complete by. grounded
	// has a bit per slot whose uop is dispatched and unissued with every
	// producer executed: issue scans only these, so a uop waiting on an
	// unexecuted producer costs nothing until execute wakes it.
	readyAt  []uint64
	grounded []uint64
	sq       []sqEntry // ring, capacity ≥ SQSize (power of two)
	sqMask   uint32
	sqHead   uint32
	sqLen    int
	sqCount  [1 << sqBucketBits]uint32 // queued entries per address bucket
	// regProducer tracks the most recent writer of each register id.
	// Entries go stale when the producer retires; staleness is detected
	// by the uref generation check, never by clearing.
	regProducer [256]uref

	// ipfBuf is the reusable scratch the instruction-prefetch hooks append
	// their prefetch addresses into.
	ipfBuf []uint64

	cycle   uint64
	seq     uint64
	retired uint64

	// Event-horizon cycle skipping. nextWake is a monotone next-event
	// register: during each pass the stages min-accumulate the ready cycle
	// of every blocker they observe, and progressed records whether any
	// stage moved a uop. When a full pass makes no progress, Run jumps
	// p.cycle to nextWake instead of ticking — every intermediate cycle is
	// provably dead (see DESIGN.md "The event-horizon invariant").
	nextWake   uint64
	progressed bool

	// stats for the measured region.
	st            Stats
	warmupCycles  uint64
	warmupRetired uint64
	measuring     bool

	// coreID is this core's index in a multi-core system (0 when single).
	// llcBase snapshots the shared LLC's per-core counters at measurement
	// start: shared counters cannot be reset per core, so the measured
	// window is reported as a delta (see beginMeasurement).
	coreID  int
	llcBase mem.Stats
}

// at returns the arena uop a ref points to. The caller is responsible for
// the generation check when the ref may be stale.
func (p *Pipeline) at(r uref) *uop { return &p.arena[r&p.arenaMask] }

// wake lowers the pass's event horizon to cycle c. Every stage that finds
// itself blocked on a future cycle it already knows (a completion time, a
// line fill, a decode latency, a redirect-penalty expiry) must report that
// cycle here, or a zero-progress pass could jump past the moment the stage
// would have unblocked.
func (p *Pipeline) wake(c uint64) {
	if c < p.nextWake {
		p.nextWake = c
	}
}

// Narrow interfaces so the pipeline file does not depend on concrete types
// beyond what it exercises (and tests can substitute).
type directionPredictor interface {
	Name() string
	Predict(pc uint64) bool
	Update(pc uint64, taken bool)
}

type targetPredictor interface {
	Predict(pc uint64, btype champtrace.BranchType) (uint64, bool)
	Resolve(pc uint64, btype champtrace.BranchType, taken bool, predTarget uint64, predKnown bool, actualTarget, fallthroughAddr uint64) bool
	Stats() btb.TargetStats
	ResetStats()
}

type iprefetchHook interface {
	OnAccess(lineAddr uint64, hit bool, buf []uint64) []uint64
	OnBranch(pc, target uint64, btype champtrace.BranchType, buf []uint64) []uint64
	OnFTQInsert(lineAddr uint64, buf []uint64) []uint64
}

// lookahead wraps the trace source with a one-instruction buffer so each
// branch's actual target (the next instruction's IP) is known when the
// branch is processed — exactly how ChampSim's tracereader derives targets.
// The buffer holds the records by value: sources that recycle their record
// storage (the streaming converter) stay safe, and no per-record pointer
// escapes to the heap.
type lookahead struct {
	src champtrace.Source
	// buf ping-pongs: buf[idx] holds the buffered next instruction, and a
	// pop promotes it to "current" by flipping idx instead of copying the
	// record — the refill from the source is the only copy per pop.
	buf  [2]champtrace.Instruction
	idx  int
	has  bool
	done bool
}

func (l *lookahead) init(src champtrace.Source) error {
	l.src = src
	l.has = false
	l.done = false
	l.idx = 0
	in, err := src.Next()
	if err == io.EOF {
		l.done = true
		return nil
	}
	if err != nil {
		return err
	}
	l.buf[l.idx] = *in
	l.has = true
	return nil
}

// pop returns the next instruction and the IP that follows it in the trace
// (0 at end of trace). The returned pointer aims at the lookahead's own
// buffer and is valid until the next pop.
func (l *lookahead) pop() (*champtrace.Instruction, uint64, error) {
	if !l.has {
		return nil, 0, io.EOF
	}
	cur := &l.buf[l.idx]
	in, err := l.src.Next()
	if err == io.EOF {
		l.has = false
		l.done = true
		return cur, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	l.idx ^= 1
	l.buf[l.idx] = *in
	return cur, l.buf[l.idx].IP, nil
}

// Run simulates the trace. Statistics cover instructions retired after the
// first warmup instructions; the run ends when maxInstructions have retired
// (0 = no limit) or the trace is exhausted and the pipeline drains.
func (p *Pipeline) Run(src champtrace.Source, warmup, maxInstructions uint64) (Stats, error) {
	if p.cfg.Cores > 1 {
		return Stats{}, fmt.Errorf("cpu: configuration %q has Cores=%d; single-core Run cannot simulate it, use NewMulti/MultiPipeline.Run", p.cfg.Name, p.cfg.Cores)
	}
	if p.cfg.SamplePeriod > 0 {
		// Interval sampling (sample.go).
		return p.runSampled(src, warmup, maxInstructions)
	}
	if err := p.la.init(src); err != nil {
		return Stats{}, err
	}
	return p.runExactBody(warmup, maxInstructions)
}

// runExactBody is Run's exact cycle loop over an initialized look-ahead.
// Measurement opens once warmup instructions have retired; the run ends at
// maxInstructions total retired (0 = no limit) or when the trace is
// exhausted and the pipeline drains.
func (p *Pipeline) runExactBody(warmup, maxInstructions uint64) (Stats, error) {
	p.measuring = warmup == 0
	if p.measuring {
		p.beginMeasurement()
	}
	skip := !p.cfg.NoCycleSkip
	for {
		p.pass()
		if skip && !p.progressed && p.nextWake != ^uint64(0) && p.nextWake > p.cycle+1 {
			// Zero-progress pass with a known horizon: every stage is
			// blocked until at least nextWake, so the intervening cycles
			// cannot change any state. Jump straight there. (Counters
			// accumulate unconditionally; beginMeasurement resets them,
			// exactly like the other warm-up-excluded stats.)
			p.jumpTo(p.nextWake)
		} else {
			p.cycle++
		}

		if !p.measuring && p.retired >= warmup {
			p.measuring = true
			p.beginMeasurement()
		}
		if maxInstructions > 0 && p.retired >= maxInstructions {
			break
		}
		if p.drained() {
			break
		}
	}
	return p.finalize(), nil
}

// pass runs one cycle's stage sequence, resetting the event horizon and
// progress flag first. One pass of one core; the single-core Run loop and
// the multi-core lockstep loop both build on it.
func (p *Pipeline) pass() {
	p.nextWake = ^uint64(0)
	p.progressed = false
	p.retire()
	p.issue()
	p.dispatch()
	p.fetch()
	p.bpuFill()
}

// jumpTo performs an event-horizon jump to cycle wake, accounting the
// skipped span. The caller has established that no stage can make progress
// before wake.
func (p *Pipeline) jumpTo(wake uint64) {
	p.st.SkippedCycles += wake - p.cycle - 1
	p.st.CycleSkips++
	p.cycle = wake
}

// drained reports whether the trace is exhausted and every queue is empty —
// the natural end of a run.
func (p *Pipeline) drained() bool {
	return p.la.done && p.robCount == 0 && p.ftqLen == 0 && p.decqLen == 0
}

// finalize closes the measured region and returns the statistics.
func (p *Pipeline) finalize() Stats {
	p.st.Instructions = p.retired - p.warmupRetired
	p.st.Cycles = p.cycle - p.warmupCycles
	p.collectCacheStats()
	return p.st
}

func (p *Pipeline) beginMeasurement() {
	p.warmupCycles = p.cycle
	p.warmupRetired = p.retired
	// Preserve the measured-region counters only.
	p.st = Stats{}
	p.hier.ResetStats()
	if p.hier.Shared {
		// The shared LLC cannot be reset per core (ResetStats skipped it);
		// snapshot this core's attributed counters instead and report the
		// measured window as a delta in collectCacheStats.
		p.llcBase = p.hier.LLC.CoreStats(p.coreID)
	}
	p.tp.ResetStats()
	if p.tlbs != nil {
		p.tlbs.ResetStats()
	}
}

func (p *Pipeline) collectCacheStats() {
	grab := func(c *mem.Cache) CacheStat {
		s := c.Stats()
		return CacheStat{Accesses: s.Accesses, Misses: s.Misses, UsefulPrefetches: s.UsefulPrefetches}
	}
	p.st.L1I = grab(p.hier.L1I)
	p.st.L1D = grab(p.hier.L1D)
	p.st.L2 = grab(p.hier.L2)
	if p.hier.Shared {
		s := p.hier.LLC.CoreStats(p.coreID).Sub(p.llcBase)
		p.st.LLC = CacheStat{Accesses: s.Accesses, Misses: s.Misses, UsefulPrefetches: s.UsefulPrefetches}
	} else {
		p.st.LLC = grab(p.hier.LLC)
	}
	if p.tlbs != nil {
		p.st.ITLBMisses = p.tlbs.ITLB.Stats().Misses
		p.st.DTLBMisses = p.tlbs.DTLB.Stats().Misses
		p.st.STLBMisses = p.tlbs.STLB.Stats().Misses
	}
	p.st.BTBMisses = p.tp.Stats().BTBMisses
}

// ---- Retire ----

func (p *Pipeline) retire() {
	for n := 0; n < p.cfg.RetireWidth && p.robCount > 0; n++ {
		// The ROB head is the oldest live uop: sequence p.retired+1.
		u := &p.arena[uint32(p.retired+1)&p.arenaMask]
		if !u.completed || u.complete > p.cycle {
			if u.completed {
				// An executing head unblocks retire at its completion
				// cycle; an unissued head is the scheduler's problem and
				// registers its horizon in issue().
				p.wake(u.complete)
			}
			return
		}
		p.progressed = true
		// Stores write the data cache at retirement; the latency is off
		// the critical path (drained from the store buffer) but the
		// access trains caches and prefetchers and counts in MPKI.
		for _, a := range u.storeAddrs[:u.nStores] {
			p.hier.L1D.AccessIP(a, u.ip, p.cycle, mem.Write)
		}
		p.robCount--
		p.retired++
	}
}

// ---- Issue / execute ----

// issue executes up to IssueWidth grounded uops whose producers have
// completed by p.cycle, oldest first: it walks the grounded bitmap in slot
// order from the ROB head, wrapping once, and re-reads each word after an
// execute, since a producer that completes in its own issue cycle grounds
// younger consumers this same pass. A grounded uop that is not yet ready
// registers its ready cycle as a wake-up; the ROB head, whose producers
// have all retired, is always grounded when unissued.
func (p *Pipeline) issue() {
	issued := 0
	head := uint32(p.retired+1) & p.arenaMask
	first, lo := int(head>>6), head&63
	n := len(p.grounded)
	for i := 0; i <= n; i++ {
		w := (first + i) & (n - 1) // n is a power of two
		mask := ^uint64(0)
		switch i {
		case 0:
			mask <<= lo
		case n:
			mask = 1<<lo - 1
		}
		for m := p.grounded[w] & mask; m != 0; m = p.grounded[w] & mask {
			b := uint(bits.TrailingZeros64(m))
			mask &^= 2<<b - 1
			slot := uint32(w)<<6 | uint32(b)
			if at := p.readyAt[slot]; at > p.cycle {
				p.wake(at)
				continue
			}
			p.grounded[w] &^= 1 << b
			p.progressed = true
			p.execute(&p.arena[slot])
			if issued++; issued == p.cfg.IssueWidth {
				return
			}
		}
	}
}

func (p *Pipeline) execute(u *uop) {
	switch {
	case u.nLoads > 0:
		done := uint64(0)
		for _, a := range u.loadAddrs[:u.nLoads] {
			var t uint64
			if fwd, ok := p.forward(a, u.seq); ok {
				t = max64(p.cycle, fwd) + p.cfg.StoreForwardLatency
			} else {
				start := p.cycle
				if p.tlbs != nil {
					start += p.tlbs.TranslateD(a)
				}
				t = p.hier.L1D.AccessIP(a, u.ip, start, mem.Read)
			}
			if t > done {
				done = t
			}
		}
		u.complete = done
	case u.nStores > 0:
		// Address generation; the write happens at retire.
		u.complete = p.cycle + 1
		for _, a := range u.storeAddrs[:u.nStores] {
			p.pushStore(a, u.complete, u.seq)
		}
	default:
		u.complete = p.cycle + 1
	}
	u.completed = true
	// Wake the dependents: each is ready no earlier than this completion,
	// and grounded once its last waiting producer has executed.
	for e := u.depHead; e != 0; {
		slot := uint32(e>>2) & p.arenaMask
		c := &p.arena[slot]
		p.readyAt[slot] = max64(p.readyAt[slot], u.complete)
		if c.nWait--; c.nWait == 0 {
			p.grounded[slot>>6] |= 1 << (slot & 63)
		}
		e = c.depNext[e&3]
	}
}

func (p *Pipeline) pushStore(addr, ready, seq uint64) {
	if p.sqLen >= p.cfg.SQSize {
		p.sqCount[p.sq[p.sqHead].addr*sqHashMul>>(64-sqBucketBits)]--
		p.sqHead = (p.sqHead + 1) & p.sqMask
		p.sqLen--
	}
	key := addr &^ 7
	p.sq[(p.sqHead+uint32(p.sqLen))&p.sqMask] = sqEntry{addr: key, ready: ready, seq: seq}
	p.sqCount[key*sqHashMul>>(64-sqBucketBits)]++
	p.sqLen++
}

// forward finds the youngest older store to the same 8-byte-aligned address.
func (p *Pipeline) forward(addr, seq uint64) (uint64, bool) {
	key := addr &^ 7
	if p.sqCount[key*sqHashMul>>(64-sqBucketBits)] == 0 {
		return 0, false
	}
	for i := p.sqLen - 1; i >= 0; i-- {
		e := &p.sq[(p.sqHead+uint32(i))&p.sqMask]
		if e.seq < seq && e.addr == key {
			return e.ready, true
		}
	}
	return 0, false
}

// ---- Dispatch ----

func (p *Pipeline) dispatch() {
	n := 0
	for n < p.cfg.DispatchWidth && p.decqLen > 0 && p.robCount < p.cfg.ROBSize {
		r := p.decq[p.decqHead]
		u := p.at(r)
		if u.decodeReady > p.cycle {
			p.wake(u.decodeReady)
			return
		}
		p.progressed = true
		p.decqHead = (p.decqHead + 1) & p.decqMask
		p.decqLen--
		// Register rename: resolve each source once. A missing or
		// retired producer is ready; an executed one bounds the ready
		// cycle; an unexecuted one gets an edge to wake this uop when
		// it executes. Then claim the destinations.
		slot := r & p.arenaMask
		ready := uint64(0)
		for i, reg := range u.srcRegs {
			if reg == champtrace.RegInvalid {
				continue
			}
			pr := p.regProducer[reg]
			d := p.at(pr)
			if pr == noref || uint32(d.seq) != pr {
				continue
			}
			if d.completed {
				ready = max64(ready, d.complete)
				continue
			}
			u.nWait++
			u.depNext[i] = d.depHead
			d.depHead = u.seq<<2 | uint64(i)
		}
		p.readyAt[slot] = ready
		if u.nWait == 0 {
			p.grounded[slot>>6] |= 1 << (slot & 63)
		}
		for _, reg := range u.dstRegs {
			if reg != champtrace.RegInvalid {
				p.regProducer[reg] = r
			}
		}
		p.robCount++
		n++
	}
}

// ---- Fetch ----

func (p *Pipeline) fetch() {
	for n := 0; n < p.cfg.FetchWidth && p.ftqLen > 0 && p.decqLen < p.cfg.DecodeQueue; n++ {
		r := p.ftq[p.ftqHead]
		u := p.at(r)
		if p.cfg.Decoupled {
			// The icache was accessed at FTQ insertion; fetch just
			// waits for the line.
			p.curLineAt = u.lineReady
		} else if u.fetchLine != p.curLine {
			// Coupled front-end: demand access at fetch.
			p.curLine = u.fetchLine
			p.curLineAt = p.accessICache(u.fetchLine)
		}
		if p.curLineAt > p.cycle {
			p.wake(p.curLineAt)
			return // line still in flight: in-order fetch stalls
		}
		p.progressed = true
		p.ftqHead = (p.ftqHead + 1) & p.ftqMask
		p.ftqLen--
		u.decodeReady = p.cycle + p.cfg.DecodeLatency
		p.decq[(p.decqHead+uint32(p.decqLen))&p.decqMask] = r
		p.decqLen++
	}
}

func (p *Pipeline) issueIPrefetches(addrs []uint64) {
	for _, a := range addrs {
		p.hier.L1I.Access(a, p.cycle, mem.Prefetch)
	}
}

// accessICache performs one demand instruction fetch for a line, drives the
// instruction prefetcher, and returns the cycle the line is consumable. The
// L1I hit latency is hidden by the fetch pipeline depth, so resident lines
// are consumable immediately.
func (p *Pipeline) accessICache(line uint64) uint64 {
	cycle := p.cycle
	if p.tlbs != nil {
		cycle += p.tlbs.TranslateI(line)
	}
	hit := p.hier.L1I.Contains(line)
	done := p.hier.L1I.Access(line, cycle, mem.Fetch)
	if hit {
		done -= p.cfg.Hierarchy.L1I.Latency
	}
	if p.ipf != nil {
		p.ipfBuf = p.ipf.OnAccess(line, hit, p.ipfBuf[:0])
		p.issueIPrefetches(p.ipfBuf)
	}
	return done
}

// ---- Branch prediction unit / FTQ fill ----

func (p *Pipeline) bpuFill() {
	// A mispredicted branch blocks instruction supply until it resolves;
	// fetch then resumes after the redirect penalty. The stalled uop may
	// retire before the penalty elapses, but its slot cannot be recycled
	// while supply is stalled, so the ref stays readable.
	if p.stalled {
		u := p.at(p.stalledOn)
		if !u.completed || u.complete+p.cfg.RedirectPenalty > p.cycle {
			if u.completed {
				// The redirect-penalty expiry is known once the branch
				// executes; before that, issue() owns the horizon.
				p.wake(u.complete + p.cfg.RedirectPenalty)
			}
			return
		}
		p.stalled = false
		p.progressed = true
	}
	budget := p.cfg.FTQSize - p.ftqLen
	if !p.cfg.Decoupled {
		// Coupled front-end: the BPU only runs for the lines fetch is
		// about to consume.
		if b := p.cfg.FetchWidth - p.ftqLen; b < budget {
			budget = b
		}
	}
	for i := 0; i < budget; i++ {
		in, nextIP, err := p.la.pop()
		if err == io.EOF || in == nil {
			return
		}
		r, u := p.newUop(in, nextIP)
		p.progressed = true
		if u.btype != champtrace.NotBranch {
			p.processBranch(u)
		}
		p.ftq[(p.ftqHead+uint32(p.ftqLen))&p.ftqMask] = r
		p.ftqLen++
		line := mem.LineAddr(u.ip)
		if p.cfg.Decoupled {
			// Fetch-directed instruction fetch: the FTQ accesses the
			// L1I as entries are enqueued, ahead of fetch, so miss
			// latency overlaps with the FTQ occupancy.
			if line != p.insertLine {
				p.insertLine = line
				p.insertLineAt = p.accessICache(line)
			}
			u.lineReady = p.insertLineAt
		}
		if p.ipf != nil {
			p.ipfBuf = p.ipf.OnFTQInsert(line, p.ipfBuf[:0])
			p.issueIPrefetches(p.ipfBuf)
		}
		if u.mispred {
			p.stalled = true
			p.stalledOn = r
			return
		}
	}
}

// newUop claims the next arena slot and initializes it from the trace
// record. Slot reuse is safe because the arena capacity covers the maximum
// number of in-flight uops (FTQ + decode queue + ROB).
func (p *Pipeline) newUop(in *champtrace.Instruction, nextIP uint64) (uref, *uop) {
	p.seq++
	r := uref(uint32(p.seq))
	u := &p.arena[r&p.arenaMask]
	// Zero the slot in place and assign the fields one by one: a composite
	// literal would be built on the stack and copied into the arena.
	*u = uop{}
	u.ip = in.IP
	u.seq = p.seq
	u.btype = champtrace.Classify(in, p.cfg.Rules)
	u.taken = in.IsBranch && in.Taken
	u.srcRegs = in.SrcRegs
	u.dstRegs = in.DestRegs
	u.fetchLine = mem.LineAddr(in.IP)
	if u.taken {
		u.target = nextIP
	}
	for _, a := range in.SrcMem {
		if a != 0 {
			u.loadAddrs[u.nLoads] = a
			u.nLoads++
		}
	}
	for _, a := range in.DestMem {
		if a != 0 {
			u.storeAddrs[u.nStores] = a
			u.nStores++
		}
	}
	if u.nLoads > 0 {
		p.st.Loads++
	}
	if u.nStores > 0 {
		p.st.Stores++
	}
	return r, u
}

// processBranch runs the direction and target predictors and decides
// whether the branch stalls instruction supply.
func (p *Pipeline) processBranch(u *uop) {
	p.st.Branches++
	if u.taken {
		p.st.TakenBranches++
	}

	dirMispred := false
	if u.btype == champtrace.BranchConditional {
		p.st.CondBranches++
		predTaken := p.pred.Predict(u.ip)
		p.pred.Update(u.ip, u.taken)
		dirMispred = predTaken != u.taken
	}

	predTarget, predKnown := p.tp.Predict(u.ip, u.btype)
	retAddr := u.ip + 4 // sequential address a call's matching return lands on
	targetCorrect := p.tp.Resolve(u.ip, u.btype, u.taken, predTarget, predKnown, u.target, retAddr)

	if u.btype == champtrace.BranchReturn {
		p.st.Returns++
		if u.taken && !targetCorrect {
			p.st.ReturnMispredicts++
		}
	}
	if dirMispred {
		p.st.DirMispredicts++
	}
	if u.taken && !targetCorrect {
		p.st.TargetMispredicts++
	}
	if dirMispred || (u.taken && !targetCorrect) {
		p.st.Mispredicts++
		u.mispred = true
	}

	if p.ipf != nil && u.taken {
		p.ipfBuf = p.ipf.OnBranch(u.ip, u.target, u.btype, p.ipfBuf[:0])
		p.issueIPrefetches(p.ipfBuf)
	}
}

// nextPow2 returns the smallest power of two ≥ n (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
