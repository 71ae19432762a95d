package sim

import (
	"testing"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/cvp"
	"tracerebase/internal/synth"
)

// simulate converts a CVP trace with opts and runs it on the develop model.
func simulate(t *testing.T, instrs []*cvp.Instruction, opts core.Options) Stats {
	t.Helper()
	recs, _, err := core.ConvertAll(cvp.NewSliceSource(instrs), opts)
	if err != nil {
		t.Fatal(err)
	}
	rules := champtrace.RulesOriginal
	if opts.BranchRegs {
		rules = champtrace.RulesPatched
	}
	st, err := Run(champtrace.NewSliceSource(recs), ConfigDevelop(rules), 10000, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func gen(t *testing.T, p synth.Profile, n int) []*cvp.Instruction {
	t.Helper()
	instrs, err := p.Generate(n)
	if err != nil {
		t.Fatal(err)
	}
	return instrs
}

func TestConfigsRun(t *testing.T) {
	p := synth.PublicProfile(synth.ComputeInt, 1)
	instrs := gen(t, p, 30000)
	recs, _, err := core.ConvertAll(cvp.NewSliceSource(instrs), core.OptionsAll())
	if err != nil {
		t.Fatal(err)
	}
	dev, err := Run(champtrace.NewSliceSource(recs), ConfigDevelop(champtrace.RulesPatched), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ipc1, err := Run(champtrace.NewSliceSource(recs), ConfigIPC1("next-line", champtrace.RulesPatched), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dev.IPC() <= 0 || ipc1.IPC() <= 0 {
		t.Fatalf("IPCs: develop %v, ipc1 %v", dev.IPC(), ipc1.IPC())
	}
	if dev.Instructions == 0 || ipc1.Instructions == 0 {
		t.Fatal("no instructions retired")
	}
	// The IPC-1 model uses ideal targets: zero target mispredictions.
	if ipc1.TargetMispredicts != 0 {
		t.Errorf("IPC-1 model target mispredicts = %d, want 0 (ideal)", ipc1.TargetMispredicts)
	}
}

// TestFlagRegSlowsBranchyTrace verifies the paper's flag-reg direction: a
// trace with hard branches and load-fed compares loses IPC when the flag
// dependency is restored.
func TestFlagRegSlowsBranchyTrace(t *testing.T) {
	p := synth.PublicProfile(synth.ComputeInt, 10)
	p.BranchBias = 0.85
	p.BranchOnLoadFrac = 0.5
	instrs := gen(t, p, 60000)
	base := simulate(t, instrs, core.OptionsNone())
	flag := simulate(t, instrs, core.Options{FlagReg: true})
	if flag.IPC() >= base.IPC() {
		t.Fatalf("flag-reg should slow a branchy trace: %.3f -> %.3f", base.IPC(), flag.IPC())
	}
}

// TestBaseUpdateSpeedsWritebackTrace verifies the base-update direction: a
// trace dominated by writeback loads gains IPC when the base register is
// released at ALU latency.
func TestBaseUpdateSpeedsWritebackTrace(t *testing.T) {
	p := synth.PublicProfile(synth.Crypto, 2)
	p.BaseUpdateFrac = 0.5
	instrs := gen(t, p, 60000)
	base := simulate(t, instrs, core.OptionsNone())
	upd := simulate(t, instrs, core.Options{BaseUpdate: true})
	if upd.IPC() <= base.IPC() {
		t.Fatalf("base-update should speed a writeback trace: %.3f -> %.3f", base.IPC(), upd.IPC())
	}
	// The split adds micro-ops: more instructions retire for the same
	// work, which is why §4.3 sees MPKIs dip slightly.
	if upd.Instructions <= base.Instructions {
		t.Errorf("split should increase retired instructions: %d -> %d", base.Instructions, upd.Instructions)
	}
}

// TestCallStackFixesReturnMPKI verifies the Fig. 5 mechanism end to end: a
// BLR-X30-heavy trace has an order of magnitude more return mispredictions
// with the original converter than with the call-stack fix.
func TestCallStackFixesReturnMPKI(t *testing.T) {
	p := synth.PublicProfile(synth.Server, 3) // in the BlrX30 subset
	if p.BlrX30Frac == 0 {
		t.Fatal("srv_3 must be in the call-stack subset")
	}
	instrs := gen(t, p, 60000)
	base := simulate(t, instrs, core.OptionsNone())
	fixed := simulate(t, instrs, core.Options{CallStack: true})
	if base.ReturnMPKI() < 0.5 {
		t.Fatalf("original converter return MPKI = %.2f, want the bug visible", base.ReturnMPKI())
	}
	if fixed.ReturnMPKI() > base.ReturnMPKI()/5 {
		t.Fatalf("call-stack fix: return MPKI %.2f -> %.2f, want order-of-magnitude drop",
			base.ReturnMPKI(), fixed.ReturnMPKI())
	}
	// A trace without the idiom is untouched.
	clean := synth.PublicProfile(synth.Server, 5)
	cInstrs := gen(t, clean, 40000)
	cb := simulate(t, cInstrs, core.OptionsNone())
	cf := simulate(t, cInstrs, core.Options{CallStack: true})
	if cb.ReturnMPKI() > 0.3 {
		t.Errorf("clean trace already suffers return MPKI %.2f", cb.ReturnMPKI())
	}
	if cf.Mispredicts != cb.Mispredicts {
		t.Errorf("call-stack changed a clean trace: %d vs %d mispredicts", cb.Mispredicts, cf.Mispredicts)
	}
}

// TestBranchRegsNeedsPatchedRules demonstrates why the paper patches
// ChampSim: branch-regs traces run under the ORIGINAL deduction rules
// misclassify register-source conditionals as indirect jumps.
func TestBranchRegsNeedsPatchedRules(t *testing.T) {
	p := synth.PublicProfile(synth.ComputeInt, 4)
	p.CondRegFrac = 0.8
	instrs := gen(t, p, 40000)
	recs, _, err := core.ConvertAll(cvp.NewSliceSource(instrs), core.Options{BranchRegs: true})
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := Run(champtrace.NewSliceSource(recs), ConfigDevelop(champtrace.RulesOriginal), 10000, 0)
	if err != nil {
		t.Fatal(err)
	}
	right, err := Run(champtrace.NewSliceSource(recs), ConfigDevelop(champtrace.RulesPatched), 10000, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Under the original rules the cb(n)z conditionals are treated as
	// indirect jumps: far fewer conditional branches are seen.
	if wrong.CondBranches >= right.CondBranches {
		t.Fatalf("original rules should lose conditionals: %d vs %d", wrong.CondBranches, right.CondBranches)
	}
}

// TestInstructionPrefetchersRankOnIPC1 sanity-checks the Table 3 machinery:
// on an icache-heavy trace, every contest prefetcher beats no prefetching
// under the IPC-1 model.
func TestInstructionPrefetchersRankOnIPC1(t *testing.T) {
	tr, ok := synth.FindIPC1("server_030")
	if !ok {
		t.Fatal("server_030 missing")
	}
	instrs := gen(t, tr.Profile, 60000)
	recs, _, err := core.ConvertAll(cvp.NewSliceSource(instrs), core.OptionsNone())
	if err != nil {
		t.Fatal(err)
	}
	src := champtrace.NewSliceSource(recs)
	base, err := Run(src, ConfigIPC1("none", champtrace.RulesOriginal), 15000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if base.L1I.Misses == 0 {
		t.Fatal("baseline has no L1I misses; trace too small for prefetch study")
	}
	for _, pf := range []string{"next-line", "epi", "djolt", "fnl-mma", "barca", "pips", "jip", "mana", "tap"} {
		src.Reset()
		st, err := Run(src, ConfigIPC1(pf, champtrace.RulesOriginal), 15000, 0)
		if err != nil {
			t.Fatalf("%s: %v", pf, err)
		}
		if st.IPC() < base.IPC()*0.98 {
			t.Errorf("%s: IPC %.3f clearly below no-prefetch %.3f", pf, st.IPC(), base.IPC())
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(champtrace.NewSliceSource(nil), Config{}, 0, 0); err == nil {
		t.Fatal("Run accepted invalid config")
	}
}

// TestTLBPressure: a data working set spanning thousands of pages costs
// translation stalls; disabling the TLB model removes them.
func TestTLBPressure(t *testing.T) {
	p := synth.PublicProfile(synth.ComputeInt, 14)
	p.DataFootprint = 64 << 20 // 16k pages: thrashes DTLB and STLB
	p.StrideFrac = 0.1         // mostly random within the hot/mid tiers
	instrs := gen(t, p, 50000)
	recs, _, err := core.ConvertAll(cvp.NewSliceSource(instrs), core.OptionsAll())
	if err != nil {
		t.Fatal(err)
	}
	with := ConfigDevelop(champtrace.RulesPatched)
	without := with
	without.UseTLBs = false
	stWith, err := Run(champtrace.NewSliceSource(recs), with, 15000, 0)
	if err != nil {
		t.Fatal(err)
	}
	stWithout, err := Run(champtrace.NewSliceSource(recs), without, 15000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stWith.DTLBMisses == 0 || stWith.STLBMisses == 0 {
		t.Fatalf("no translation misses recorded: %+v", stWith)
	}
	if stWithout.DTLBMisses != 0 {
		t.Fatalf("TLB-less run recorded %d DTLB misses", stWithout.DTLBMisses)
	}
	if stWith.IPC() >= stWithout.IPC() {
		t.Errorf("translation stalls should cost IPC: %.3f (TLB) vs %.3f (ideal)",
			stWith.IPC(), stWithout.IPC())
	}
}
