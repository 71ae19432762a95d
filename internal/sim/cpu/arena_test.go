package cpu

import (
	"testing"

	"tracerebase/internal/champtrace"
)

// arenaCapOf returns the uop arena capacity of a pipeline.
func arenaCapOf(p *Pipeline) int { return len(p.arena) }

// TestArenaWraparound retires far more instructions than the arena has
// slots, so allocation and retirement wrap the ring many times, with a
// dependency chain that keeps the ROB full across every wrap boundary.
func TestArenaWraparound(t *testing.T) {
	cfg := testConfig()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cap := arenaCapOf(p)
	n := 20*cap + 37 // many wraps, deliberately not slot-aligned
	instrs := make([]*champtrace.Instruction, n)
	for i := range instrs {
		// Each instruction reads the previous one's destination, so
		// dependency refs are live right up to the wrap boundary.
		instrs[i] = mkALU(0x400000+uint64(i%1024)*4, []uint8{uint8(40 + (i+7)%8)}, uint8(40+i%8))
	}
	st, err := p.Run(champtrace.NewSliceSource(instrs), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != uint64(n) {
		t.Fatalf("retired %d instructions, want %d", st.Instructions, n)
	}
	if p.robCount != 0 || p.ftqLen != 0 || p.decqLen != 0 {
		t.Fatalf("queues not drained: rob=%d ftq=%d decq=%d", p.robCount, p.ftqLen, p.decqLen)
	}
}

// TestArenaFillToCapacity blocks retirement behind a long-latency load so
// the ROB (and with it the arena's live region) fills completely, then
// drains across the ring boundary.
func TestArenaFillToCapacity(t *testing.T) {
	cfg := testConfig()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := 4 * arenaCapOf(p)
	instrs := make([]*champtrace.Instruction, n)
	for i := range instrs {
		if i%cfg.ROBSize == 0 {
			// A cold load to a new page stalls retirement long enough
			// for the back of the window to fill.
			instrs[i] = mkLoad(0x400000+uint64(i%1024)*4, uint64(0x9000000+i*4096), 10, uint8(40+i%8))
		} else {
			instrs[i] = mkALU(0x400000+uint64(i%1024)*4, []uint8{10}, uint8(40+i%8))
		}
	}
	st, err := p.Run(champtrace.NewSliceSource(instrs), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != uint64(n) {
		t.Fatalf("retired %d instructions, want %d", st.Instructions, n)
	}
}

// TestRenameResolvesProducers exercises the generation-tag staleness rule
// at rename, where dispatch resolves each source once. A missing producer
// and a retired one whose slot was recycled add no wait; a live producer
// that has not executed gets an edge back to the consumer; an executed one
// bounds the consumer's ready cycle.
func TestRenameResolvesProducers(t *testing.T) {
	const reg, prodRef, consSeq, now = 60, uref(5), 100, 10
	// rename dispatches a consumer of reg at cycle now, with producer (if
	// any) placed in slot 5 as reg's last writer, and returns the pipeline,
	// the producer's slot and the consumer.
	rename := func(t *testing.T, producer *uop) (*Pipeline, *uop, *uop) {
		t.Helper()
		p, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		p.cycle = now
		if producer != nil {
			p.arena[prodRef] = *producer
			p.regProducer[reg] = prodRef
		}
		c := p.at(consSeq)
		*c = uop{seq: consSeq}
		c.srcRegs[0] = reg
		p.decq[0] = consSeq
		p.decqLen = 1
		p.dispatch()
		if p.decqLen != 0 || p.robCount != 1 {
			t.Fatal("consumer not dispatched")
		}
		return p, &p.arena[prodRef], c
	}
	grounded := func(p *Pipeline) bool {
		slot := uref(consSeq) & p.arenaMask
		return p.grounded[slot>>6]&(1<<(slot&63)) != 0
	}
	readyAt := func(p *Pipeline) uint64 { return p.readyAt[uref(consSeq)&p.arenaMask] }

	t.Run("no producer", func(t *testing.T) {
		p, _, c := rename(t, nil)
		if c.nWait != 0 || !grounded(p) {
			t.Fatalf("nWait=%d grounded=%v, want no wait", c.nWait, grounded(p))
		}
	})
	t.Run("recycled slot", func(t *testing.T) {
		// A later generation in the same slot: 1<<20 is a multiple of
		// every power-of-two arena capacity up to it.
		p, d, c := rename(t, &uop{seq: uint64(prodRef) + 1<<20})
		if c.nWait != 0 || !grounded(p) || d.depHead != 0 {
			t.Fatalf("nWait=%d grounded=%v depHead=%#x, want a stale producer read as ready",
				c.nWait, grounded(p), d.depHead)
		}
	})
	t.Run("unexecuted producer", func(t *testing.T) {
		p, d, c := rename(t, &uop{seq: uint64(prodRef)})
		if c.nWait != 1 || grounded(p) || d.depHead != consSeq<<2 || c.depNext[0] != 0 {
			t.Fatalf("nWait=%d grounded=%v depHead=%#x, want one edge to the consumer",
				c.nWait, grounded(p), d.depHead)
		}
		// Executing the producer wakes the consumer at its completion.
		p.execute(d)
		if c.nWait != 0 || !grounded(p) || readyAt(p) != d.complete {
			t.Fatalf("after execute: nWait=%d grounded=%v readyAt=%d, want ready at %d",
				c.nWait, grounded(p), readyAt(p), d.complete)
		}
	})
	t.Run("future completion", func(t *testing.T) {
		p, _, c := rename(t, &uop{seq: uint64(prodRef), completed: true, complete: 42})
		if c.nWait != 0 || !grounded(p) || readyAt(p) != 42 {
			t.Fatalf("nWait=%d grounded=%v readyAt=%d, want ready at 42",
				c.nWait, grounded(p), readyAt(p))
		}
		p.cycle++
		p.nextWake = ^uint64(0)
		p.issue()
		if c.completed || p.nextWake != 42 {
			t.Fatalf("issued=%v wake=%d, want no issue and a wake-up at 42", c.completed, p.nextWake)
		}
	})
	t.Run("past completion", func(t *testing.T) {
		p, _, c := rename(t, &uop{seq: uint64(prodRef), completed: true, complete: now - 3})
		p.cycle++
		p.issue()
		if !c.completed {
			t.Fatal("consumer of a completed producer did not issue the next cycle")
		}
	})
}

// TestAncientProducerAfterWrap runs a trace where one early instruction
// writes a register that every later instruction reads. Once the writer's
// slot is recycled the renamed ref goes stale, and consumers must still
// issue (the retired producer is by definition complete).
func TestAncientProducerAfterWrap(t *testing.T) {
	cfg := testConfig()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := 8 * arenaCapOf(p)
	instrs := make([]*champtrace.Instruction, n)
	instrs[0] = mkALU(0x400000, []uint8{10}, 60) // sole writer of reg 60
	for i := 1; i < n; i++ {
		instrs[i] = mkALU(0x400000+uint64(i%1024)*4, []uint8{60}, uint8(40+i%4))
	}
	st, err := p.Run(champtrace.NewSliceSource(instrs), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != uint64(n) {
		t.Fatalf("retired %d instructions, want %d", st.Instructions, n)
	}
}
