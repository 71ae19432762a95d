package core

import (
	"io"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/cvp"
)

// CachelineSize is the cacheline granularity assumed by the mem-footprint
// improvement and by DC ZVA alignment.
const CachelineSize = 64

// ConverterVersion identifies the conversion algorithm for content
// addressing. The compiled-trace store keys converted slabs on it instead
// of on the build fingerprint, so slabs survive rebuilds that leave the
// converter untouched. Bump it whenever a change to the converter can alter
// the records produced for a given (instruction stream, Options) pair;
// slabs keyed under the old version then become unreachable instead of
// stale. The slab-transparency conformance oracle (rebase -selftest)
// catches a forgotten bump by differencing store-on against store-off
// sweeps.
const ConverterVersion = 1

// Stats accumulates conversion statistics. The percentages quoted in §4.2
// of the paper (9.4% memory instructions without destinations, 5.2%
// multi-destination loads, 0.3% cacheline-crossing accesses, 0.87%
// X30-consumer instructions) are computed from these counters.
type Stats struct {
	// In counts CVP-1 instructions consumed; Out counts ChampSim records
	// produced (Out > In when base-update splits micro-ops).
	In, Out uint64
	// MemNoDst counts memory instructions with no destination register
	// (prefetch loads, plain stores).
	MemNoDst uint64
	// MultiDstLoads counts loads with two or more destination registers.
	MultiDstLoads uint64
	// BaseUpdateLoads and BaseUpdateStores count memory instructions
	// inferred to perform base-register writeback.
	BaseUpdateLoads, BaseUpdateStores uint64
	// PreIndex and PostIndex break base updates down by addressing mode.
	PreIndex, PostIndex uint64
	// CrossLine counts accesses spanning two cachelines.
	CrossLine uint64
	// DCZVA counts 64-byte cacheline-zeroing stores.
	DCZVA uint64
	// Returns, DirectCalls, IndirectCalls, DirectJumps, IndirectJumps and
	// CondBranches count the converted branch mix.
	Returns, DirectCalls, IndirectCalls, DirectJumps, IndirectJumps, CondBranches uint64
	// ReadWriteLRBranches counts unconditional branches that both read
	// and write X30 — the instructions the original converter
	// misclassifies as returns (§3.2.1).
	ReadWriteLRBranches uint64
	// CondWithSrc counts conditional branches carrying CVP-1 source
	// registers (cb(n)z / tb(n)z style).
	CondWithSrc uint64
	// FlagDstAdded counts ALU/FP instructions given the flag register as
	// destination by the flag-reg improvement.
	FlagDstAdded uint64
}

// Converter translates a stream of CVP-1 instructions into ChampSim trace
// records. It is stateful: the addressing-mode inference tracks the values
// last written to each architectural register, exactly like the CVP trace
// reader the heuristic was designed for. A Converter must be fed a single
// trace from its beginning.
type Converter struct {
	opts  Options
	regs  regTracker
	stats Stats
}

// New returns a Converter applying the given improvements.
func New(opts Options) *Converter { return &Converter{opts: opts} }

// Options returns the improvement set the converter applies.
func (c *Converter) Options() Options { return c.opts }

// Stats returns the statistics accumulated so far.
func (c *Converter) Stats() Stats { return c.stats }

// ConvertAppend translates one CVP-1 instruction, appending the resulting
// one or two ChampSim records to dst and returning the extended slice. Two
// records are produced when the base-update improvement splits a writeback
// memory access into an address-update ALU micro-op and a memory micro-op.
// This is the allocation-free core of the converter: records are plain
// values, so a caller reusing dst's capacity performs no heap work.
func (c *Converter) ConvertAppend(dst []champtrace.Instruction, in *cvp.Instruction) []champtrace.Instruction {
	c.stats.In++
	before := len(dst)
	switch {
	case in.Class.IsBranch():
		dst = append(dst, c.convertBranch(in))
	case in.Class.IsMem():
		dst = c.convertMem(dst, in)
	default:
		dst = append(dst, c.convertALU(in))
	}
	c.regs.update(in)
	c.stats.Out += uint64(len(dst) - before)
	return dst
}

// Convert translates one CVP-1 instruction into one or two individually
// allocated ChampSim records. See ConvertAppend for the allocation-free
// variant.
func (c *Converter) Convert(in *cvp.Instruction) []*champtrace.Instruction {
	var buf [2]champtrace.Instruction
	recs := c.ConvertAppend(buf[:0], in)
	out := make([]*champtrace.Instruction, len(recs))
	for i := range recs {
		rec := recs[i]
		out[i] = &rec
	}
	return out
}

// flagRegClasses reports whether the flag-reg improvement applies to the
// class: ALU, slow ALU, FP, and undefined (syscall-like) instructions. The
// paper notes marking syscalls as flag producers is slightly pessimistic
// but harmless.
func flagRegClass(cl cvp.InstClass) bool {
	switch cl {
	case cvp.ClassALU, cvp.ClassSlowALU, cvp.ClassFP, cvp.ClassUndef:
		return true
	}
	return false
}

func (c *Converter) convertALU(in *cvp.Instruction) champtrace.Instruction {
	rec := champtrace.Instruction{IP: in.PC}
	addSrcs(&rec, in.SrcRegs)
	switch {
	case len(in.DstRegs) > 0:
		// Non-branches keep a single destination register in the
		// original converter; multi-destination handling only matters
		// for memory instructions (see convertMem).
		rec.AddDestReg(MapReg(in.DstRegs[0]))
	case c.opts.FlagReg && flagRegClass(in.Class):
		rec.AddDestReg(champtrace.RegFlags)
		c.stats.FlagDstAdded++
	}
	return rec
}

func (c *Converter) convertMem(dst []champtrace.Instruction, in *cvp.Instruction) []champtrace.Instruction {
	if len(in.DstRegs) == 0 {
		c.stats.MemNoDst++
	}
	if in.IsLoad() && len(in.DstRegs) >= 2 {
		c.stats.MultiDstLoads++
	}

	inf := inference{mode: AddrPlain}
	if c.opts.BaseUpdate || c.opts.MemFootprint {
		inf = inferAddrMode(in, &c.regs)
	}
	if inf.mode.IsBaseUpdate() {
		if in.IsLoad() {
			c.stats.BaseUpdateLoads++
		} else {
			c.stats.BaseUpdateStores++
		}
		if inf.mode == AddrPreIndex {
			c.stats.PreIndex++
		} else {
			c.stats.PostIndex++
		}
	}
	split := c.opts.BaseUpdate && inf.mode.IsBaseUpdate()

	mem := champtrace.Instruction{IP: in.PC}
	effAddr, totalSize := c.footprint(in, inf)

	if c.opts.MemRegs {
		addSrcs(&mem, in.SrcRegs)
		for _, d := range in.DstRegs {
			if split && d == inf.base {
				continue // the ALU micro-op owns the base register
			}
			mem.AddDestReg(MapReg(d))
		}
	} else {
		// Original converter: multi-destination loads (writeback, load
		// pairs, vector loads) fold EVERY CVP destination into the
		// sources (this is how LDR X1,[X0,#12]! ends up reading both
		// X0 and X1), and all memory instructions keep exactly one
		// destination — the first CVP destination, or X0 when there
		// is none.
		addSrcs(&mem, in.SrcRegs)
		if len(in.DstRegs) >= 2 {
			for _, d := range in.DstRegs {
				if !mem.ReadsReg(MapReg(d)) {
					mem.AddSrcReg(MapReg(d))
				}
			}
		}
		dst := RegX0Mapped
		picked := false
		for _, d := range in.DstRegs {
			if split && d == inf.base {
				continue
			}
			dst = MapReg(d)
			picked = true
			break
		}
		if picked || !split {
			mem.AddDestReg(dst)
		}
	}

	if in.IsLoad() {
		mem.AddSrcMem(effAddr)
	} else {
		mem.AddDestMem(effAddr)
	}
	if c.opts.MemFootprint && crossesLine(effAddr, totalSize) {
		second := (effAddr/CachelineSize + 1) * CachelineSize
		c.stats.CrossLine++
		if in.IsLoad() {
			mem.AddSrcMem(second)
		} else {
			mem.AddDestMem(second)
		}
	}

	if !split {
		return append(dst, mem)
	}

	// Base-update split: the ALU micro-op reads and writes the base
	// register; the memory micro-op keeps the remaining registers. For
	// pre-indexing the update happens before the access (ALU first, at
	// the original PC, memory at PC+2); for post-indexing the order is
	// reversed.
	base := MapReg(inf.base)
	alu := champtrace.Instruction{}
	alu.AddSrcReg(base)
	alu.AddDestReg(base)
	if !mem.ReadsReg(base) {
		mem.AddSrcReg(base)
	}
	if inf.mode == AddrPreIndex {
		alu.IP = in.PC
		mem.IP = in.PC + 2
		return append(dst, alu, mem)
	}
	alu.IP = in.PC + 2
	return append(dst, mem, alu)
}

// footprint returns the (possibly realigned) effective address and the
// total transfer size of the instruction. Without the mem-footprint
// improvement the size is irrelevant — the original converter emits a
// single address regardless.
func (c *Converter) footprint(in *cvp.Instruction, inf inference) (addr uint64, size uint64) {
	addr = in.EffAddr
	size = uint64(in.MemSize)
	if size == 0 {
		size = 1
	}
	if !c.opts.MemFootprint {
		return addr, size
	}
	if in.IsStore() && in.MemSize == CachelineSize {
		// DC ZVA zeroes one naturally aligned cacheline. The
		// architecture allows an unaligned address operand, so the
		// converter always realigns (§3.1.3).
		c.stats.DCZVA++
		return addr &^ uint64(CachelineSize-1), CachelineSize
	}
	if in.IsLoad() {
		// Total size = per-register transfer size × number of
		// registers actually populated from memory (excluding an
		// inferred base-update register).
		data := len(in.DstRegs)
		if inf.mode.IsBaseUpdate() {
			data--
		}
		if data < 1 {
			data = 1 // prefetch loads still touch one element
		}
		size *= uint64(data)
	}
	return addr, size
}

func crossesLine(addr, size uint64) bool {
	if size == 0 {
		return false
	}
	return addr/CachelineSize != (addr+size-1)/CachelineSize
}

func (c *Converter) convertBranch(in *cvp.Instruction) champtrace.Instruction {
	rec := champtrace.Instruction{IP: in.PC, IsBranch: true, Taken: in.Taken}

	if in.Class == cvp.ClassCondBranch {
		c.stats.CondBranches++
		rec.AddSrcReg(champtrace.RegInstructionPointer)
		if c.opts.BranchRegs && len(in.SrcRegs) > 0 {
			// cb(n)z / tb(n)z: keep the CVP source and drop the
			// flag register, restoring the producer dependency.
			// Requires champtrace.RulesPatched in the simulator.
			c.stats.CondWithSrc++
			addSrcs(&rec, in.SrcRegs)
		} else {
			rec.AddSrcReg(champtrace.RegFlags)
		}
		rec.AddDestReg(champtrace.RegInstructionPointer)
		return rec
	}

	readsLR := in.ReadsReg(cvp.RegLR)
	writesLR := in.WritesReg(cvp.RegLR)
	if readsLR && writesLR {
		c.stats.ReadWriteLRBranches++
	}

	isReturn := false
	if c.opts.CallStack {
		// §3.2.1: only unconditional branches that read X30 and write
		// no register at all are returns.
		isReturn = readsLR && len(in.DstRegs) == 0
	} else {
		// Original converter: any branch reading X30 is a return —
		// including BLR-style indirect calls that also write it.
		isReturn = readsLR
	}

	switch {
	case isReturn:
		c.stats.Returns++
		rec.AddSrcReg(champtrace.RegStackPointer)
		rec.AddDestReg(champtrace.RegInstructionPointer)
		rec.AddDestReg(champtrace.RegStackPointer)
	case writesLR: // a call, direct or indirect by CVP class
		rec.AddSrcReg(champtrace.RegInstructionPointer)
		rec.AddSrcReg(champtrace.RegStackPointer)
		rec.AddDestReg(champtrace.RegInstructionPointer)
		rec.AddDestReg(champtrace.RegStackPointer)
		// Note: X30 cannot also be kept as a destination — both slots
		// are needed for IP and SP (§3.2.2 known limitation).
		if in.Class == cvp.ClassUncondIndirect {
			c.stats.IndirectCalls++
			c.addIndirectSources(&rec, in)
		} else {
			c.stats.DirectCalls++
		}
	case in.Class == cvp.ClassUncondIndirect:
		c.stats.IndirectJumps++
		rec.AddDestReg(champtrace.RegInstructionPointer)
		c.addIndirectSources(&rec, in)
	default: // direct jump
		c.stats.DirectJumps++
		rec.AddSrcReg(champtrace.RegInstructionPointer)
		rec.AddDestReg(champtrace.RegInstructionPointer)
	}
	return rec
}

// addIndirectSources attaches the register(s) conveying "reads other" to an
// indirect branch. The original converter uses the artificial X56; the
// branch-regs improvement carries the actual CVP-1 sources so the
// dependency on the producer survives (falling back to X56 for the rare
// indirect with no recorded source).
func (c *Converter) addIndirectSources(rec *champtrace.Instruction, in *cvp.Instruction) {
	if c.opts.BranchRegs && len(in.SrcRegs) > 0 {
		addSrcs(rec, in.SrcRegs)
		return
	}
	rec.AddSrcReg(champtrace.RegOther)
}

// addSrcs maps and appends CVP source registers, silently truncating to the
// four slots ChampSim provides (§3.1.1 footnote: a handful of instructions
// such as compare-and-swap pair read more; the first four are kept).
func addSrcs(rec *champtrace.Instruction, srcs []uint8) {
	for _, s := range srcs {
		if !rec.AddSrcReg(MapReg(s)) {
			return
		}
	}
}

// ConvertAll drains src through a new Converter and returns the ChampSim
// records together with the conversion statistics.
func ConvertAll(src cvp.Source, opts Options) ([]*champtrace.Instruction, Stats, error) {
	c := New(opts)
	var out []*champtrace.Instruction
	for {
		in, err := src.Next()
		if err == io.EOF {
			return out, c.Stats(), nil
		}
		if err != nil {
			return out, c.Stats(), err
		}
		out = append(out, c.Convert(in)...)
	}
}

// ConvertAllBatch converts src to completion into one contiguous value
// slab — the representation to pair with champtrace.NewValuesSource when
// the same converted trace is simulated repeatedly. Unlike ConvertAll it
// performs no per-record boxing: the whole trace costs a handful of slab
// growths.
func ConvertAllBatch(src cvp.Source, opts Options) ([]champtrace.Instruction, Stats, error) {
	// Conversion is nearly 1:1, so sizing the slab off the source length
	// (when known) turns a dozen grow-and-copy cycles into at most one.
	hint := 1024
	if l, ok := src.(interface{ Len() int }); ok && l.Len() > hint {
		hint = l.Len() + l.Len()/16
	}
	return ConvertAllInto(make([]champtrace.Instruction, 0, hint), src, opts)
}

// ConvertAllInto is ConvertAllBatch appending into dst (rewound to length
// zero), so a caller recycling a full-trace slab pays no per-conversion
// slab allocation once it has grown to trace size. The returned slice
// shares dst's backing array unless conversion outgrew it.
func ConvertAllInto(dst []champtrace.Instruction, src cvp.Source, opts Options) ([]champtrace.Instruction, Stats, error) {
	c := New(opts)
	out := dst[:0]
	for {
		in, err := src.Next()
		if err == io.EOF {
			return out, c.Stats(), nil
		}
		if err != nil {
			return out, c.Stats(), err
		}
		out = c.ConvertAppend(out, in)
	}
}

// EmitBatch is the most records ConvertEmit hands to emit at once: 256 KiB
// of records, enough that a file write per batch costs little.
const EmitBatch = 4096

// ConvertEmit converts src to completion, handing the records in order to
// emit in batches of at most EmitBatch. The batch buffer is reused, so emit
// must copy out what it keeps. An error from emit stops the conversion and
// is returned unchanged; records converted since the last emit are then
// dropped, as they are when src fails.
func ConvertEmit(src cvp.Source, opts Options, emit func([]champtrace.Instruction) error) (Stats, error) {
	c := New(opts)
	buf := make([]champtrace.Instruction, 0, EmitBatch)
	for {
		in, err := src.Next()
		if err == io.EOF {
			if len(buf) > 0 {
				return c.Stats(), emit(buf)
			}
			return c.Stats(), nil
		}
		if err != nil {
			return c.Stats(), err
		}
		buf = c.ConvertAppend(buf, in)
		if len(buf) > EmitBatch-2 { // no room for one more split instruction
			if err := emit(buf); err != nil {
				return c.Stats(), err
			}
			buf = buf[:0]
		}
	}
}

// ConvertStream converts src and writes the records to w, returning the
// statistics. It mirrors the artifact's cvp2champsim CLI data path.
func ConvertStream(src cvp.Source, w *champtrace.Writer, opts Options) (Stats, error) {
	c := New(opts)
	buf := make([]champtrace.Instruction, 0, 4)
	for {
		in, err := src.Next()
		if err == io.EOF {
			return c.Stats(), nil
		}
		if err != nil {
			return c.Stats(), err
		}
		buf = c.ConvertAppend(buf[:0], in)
		for i := range buf {
			if err := w.Write(&buf[i]); err != nil {
				return c.Stats(), err
			}
		}
	}
}
