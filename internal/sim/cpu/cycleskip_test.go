package cpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tracerebase/internal/champtrace"
)

// TestQuickSkipTransparency: for any coherent stream and any small machine
// shape, event-horizon cycle skipping changes no reported statistic — not
// just Stats.Cycles but the entire counter set. Machine shape, front-end
// coupling, prefetchers, TLBs, and warm-up are all randomized so the skip
// logic is exercised against every stall structure the pipeline has.
func TestQuickSkipTransparency(t *testing.T) {
	var totalSkipped uint64
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		stream, cfg, warmup := randomGeometry(r)
		run := func(noSkip bool) (Stats, error) {
			c := cfg
			c.NoCycleSkip = noSkip
			p, err := New(c)
			if err != nil {
				return Stats{}, err
			}
			return p.Run(champtrace.NewSliceSource(stream), warmup, 0)
		}
		fast, err := run(false)
		if err != nil {
			t.Logf("skip run: %v", err)
			return false
		}
		slow, err := run(true)
		if err != nil {
			t.Logf("no-skip run: %v", err)
			return false
		}
		if slow.SkippedCycles != 0 || slow.CycleSkips != 0 {
			t.Logf("no-skip run reports %d skipped cycles", slow.SkippedCycles)
			return false
		}
		totalSkipped += fast.SkippedCycles
		fast.SkippedCycles, fast.CycleSkips = 0, 0
		if fast != slow {
			t.Logf("stats diverge under config %+v:\n skip    %+v\n no-skip %+v", cfg, fast, slow)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	if totalSkipped == 0 {
		t.Fatal("no randomized run ever skipped a cycle; transparency was tested vacuously")
	}
}

// randomGeometry draws a coherent random stream, a small random machine
// shape — widths, window and queue sizes, latencies, front-end coupling,
// prefetchers, TLBs — and a warm-up length.
func randomGeometry(r *rand.Rand) ([]*champtrace.Instruction, Config, uint64) {
	stream := randomStream(r, 500+r.Intn(1500))
	cfg := testConfig()
	cfg.FetchWidth = 1 + r.Intn(6)
	cfg.DispatchWidth = 1 + r.Intn(6)
	cfg.IssueWidth = 1 + r.Intn(6)
	cfg.RetireWidth = 1 + r.Intn(6)
	cfg.ROBSize = 16 << r.Intn(4)
	cfg.FTQSize = 4 << r.Intn(4)
	cfg.DecodeQueue = 4 << r.Intn(4)
	cfg.SQSize = 8 << r.Intn(3)
	cfg.DecodeLatency = uint64(1 + r.Intn(6))
	cfg.RedirectPenalty = uint64(r.Intn(10))
	cfg.Decoupled = r.Intn(2) == 0
	cfg.UseTLBs = r.Intn(2) == 0
	if r.Intn(2) == 0 {
		cfg.L1DPrefetcher = "ip-stride"
	}
	if r.Intn(2) == 0 {
		cfg.L2Prefetcher = "next-line"
	}
	if r.Intn(2) == 0 {
		cfg.L1IPrefetcher = "next-line"
	}
	return stream, cfg, uint64(r.Intn(300))
}

// TestArenaWraparoundUnderLargeSkips drives a serialized pointer chase over
// a cold footprint — every load a fresh DRAM-latency miss — so the skipper
// takes hundreds-of-cycles jumps while allocation and retirement wrap the
// uop arena many times. The ring indexing is seq-based, not cycle-based,
// and must be unaffected by how violently the clock advances.
func TestArenaWraparoundUnderLargeSkips(t *testing.T) {
	cfg := testConfig()
	runOne := func(noSkip bool) Stats {
		c := cfg
		c.NoCycleSkip = noSkip
		p, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		n := 20*arenaCapOf(p) + 37 // many wraps, deliberately not slot-aligned
		instrs := make([]*champtrace.Instruction, n)
		for i := range instrs {
			// Every load reads and writes the same register (a serial
			// chain) and touches a new page, so nothing overlaps memory
			// latency and each skip spans a full miss.
			instrs[i] = mkLoad(0x400000+uint64(i%1024)*4, 0x100000000+uint64(i)*8192, 30, 30)
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
		return st
	}
	fast := runOne(false)
	slow := runOne(true)
	if fast.SkippedCycles == 0 {
		t.Fatal("serialized chase skipped no cycles")
	}
	if frac := float64(fast.SkippedCycles) / float64(fast.Cycles); frac < 0.5 {
		t.Fatalf("skipped only %.1f%% of a memory-serialized run", 100*frac)
	}
	fast.SkippedCycles, fast.CycleSkips = 0, 0
	if fast != slow {
		t.Fatalf("stats diverge across arena wraps:\n skip    %+v\n no-skip %+v", fast, slow)
	}
}
