package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"tracerebase/internal/core"
	"tracerebase/internal/sim"
	"tracerebase/internal/synth"
)

func testSweepConfig() SweepConfig {
	return SweepConfig{Instructions: 12000, Warmup: 4000, Parallelism: 2}
}

func TestVariants(t *testing.T) {
	vs := Variants()
	if len(vs) != 10 {
		t.Fatalf("got %d variants, want 10", len(vs))
	}
	seen := map[string]bool{}
	for _, v := range vs {
		if seen[v.Name] {
			t.Errorf("duplicate variant %s", v.Name)
		}
		seen[v.Name] = true
	}
	if !seen[VariantNone] || !seen[VariantAll] || !seen[VariantMemory] || !seen[VariantBranch] {
		t.Error("missing a required variant")
	}
	sub := figureVariants(VariantNone, VariantFlagReg)
	if len(sub) != 2 || sub[0].Name != VariantNone || sub[1].Name != VariantFlagReg {
		t.Errorf("figureVariants = %v", sub)
	}
}

func TestRunTraceAndSweep(t *testing.T) {
	cfg := testSweepConfig()
	cfg.Variants = figureVariants(VariantNone, VariantAll)
	p := synth.PublicProfile(synth.ComputeInt, 2)
	tr, err := RunTrace(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Results) != 2 {
		t.Fatalf("got %d results", len(tr.Results))
	}
	for name, r := range tr.Results {
		if r.IPC <= 0 || r.IPC > 6 {
			t.Errorf("%s: IPC %v out of range", name, r.IPC)
		}
		if r.Conv.In == 0 || r.Sim.Instructions == 0 {
			t.Errorf("%s: empty stats", name)
		}
	}
	if d := tr.Delta(VariantNone); d != 0 {
		t.Errorf("Delta(None) = %v, want 0", d)
	}

	// Sweep over two traces must reproduce individual runs exactly
	// (determinism across parallel execution).
	p2 := synth.PublicProfile(synth.Crypto, 1)
	res, err := RunSweep([]synth.Profile{p, p2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("sweep returned %d results", len(res))
	}
	if !reflect.DeepEqual(res[0].Results[VariantAll], tr.Results[VariantAll]) {
		t.Error("sweep result differs from individual run")
	}
}

// fixture builds a synthetic TraceResult without running the simulator.
func fixture(name string, baseIPC float64, deltas map[string]float64, base sim.Stats) TraceResult {
	tr := TraceResult{
		Profile: synth.Profile{Name: name},
		Results: map[string]Result{VariantNone: {IPC: baseIPC, Sim: base}},
	}
	for v, d := range deltas {
		tr.Results[v] = Result{IPC: baseIPC * (1 + d)}
	}
	return tr
}

func TestFig1Math(t *testing.T) {
	// Two traces with +10% and -10% on base-update: geomean of 1.1*0.9 =
	// sqrt(0.99) ≈ -0.5%.
	results := []TraceResult{
		fixture("a", 1.0, map[string]float64{VariantBaseUpdate: 0.10}, sim.Stats{}),
		fixture("b", 2.0, map[string]float64{VariantBaseUpdate: -0.10}, sim.Stats{}),
	}
	rows := Fig1(results)
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1 (only base-update present)", len(rows))
	}
	want := 100 * (math.Sqrt(1.1*0.9) - 1)
	if math.Abs(rows[0].GeomeanDeltaPct-want) > 1e-9 {
		t.Errorf("geomean delta = %v, want %v", rows[0].GeomeanDeltaPct, want)
	}
}

func TestFig2Math(t *testing.T) {
	results := []TraceResult{
		fixture("a", 1.0, map[string]float64{VariantFlagReg: -0.20}, sim.Stats{}),
		fixture("b", 1.0, map[string]float64{VariantFlagReg: -0.02}, sim.Stats{}),
		fixture("c", 1.0, map[string]float64{VariantFlagReg: 0.08}, sim.Stats{}),
	}
	series := Fig2(results)
	if len(series) != 1 {
		t.Fatalf("got %d series", len(series))
	}
	s := series[0]
	if s.Above5 != 1 || s.Below5 != 1 {
		t.Errorf("Above5/Below5 = %d/%d, want 1/1", s.Above5, s.Below5)
	}
	if s.WorstTrace != "a" || s.BestTrace != "c" {
		t.Errorf("extremes = %s/%s", s.WorstTrace, s.BestTrace)
	}
	if !sortedDesc(s.DeltasPct) {
		t.Errorf("series not sorted descending: %v", s.DeltasPct)
	}
}

func sortedDesc(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[i-1] {
			return false
		}
	}
	return true
}

func TestFig3Sorting(t *testing.T) {
	mk := func(name string, mpki float64, flagDelta float64) TraceResult {
		base := sim.Stats{Instructions: 1000, Mispredicts: uint64(mpki)}
		tr := fixture(name, 1.0, map[string]float64{VariantFlagReg: flagDelta, VariantBranchRegs: flagDelta / 2}, base)
		return tr
	}
	rows := Fig3([]TraceResult{mk("hi", 9, -0.2), mk("lo", 1, -0.02)})
	if len(rows) != 2 || rows[0].Trace != "lo" || rows[1].Trace != "hi" {
		t.Fatalf("rows not sorted by MPKI: %+v", rows)
	}
	if rows[1].FlagRegSlowdownPct < rows[0].FlagRegSlowdownPct {
		t.Error("slowdown should grow with MPKI in this fixture")
	}
	if math.Abs(rows[1].FlagRegSlowdownPct-20) > 1e-9 {
		t.Errorf("slowdown = %v, want 20", rows[1].FlagRegSlowdownPct)
	}
}

func TestFig5Threshold(t *testing.T) {
	mk := func(name string, retOrig, retFixed float64, delta float64) TraceResult {
		tr := TraceResult{
			Profile: synth.Profile{Name: name},
			Results: map[string]Result{
				VariantNone:      {IPC: 1, Sim: sim.Stats{Instructions: 1000, ReturnMispredicts: uint64(retOrig)}},
				VariantCallStack: {IPC: 1 + delta, Sim: sim.Stats{Instructions: 1000, ReturnMispredicts: uint64(retFixed)}},
			},
		}
		return tr
	}
	rows := Fig5([]TraceResult{
		mk("affected", 4, 0, 0.05),
		mk("clean", 0, 0, 0.0),
		mk("worse", 9, 1, 0.07),
	})
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (threshold filters the clean trace)", len(rows))
	}
	if rows[0].Trace != "worse" || rows[1].Trace != "affected" {
		t.Errorf("rows not sorted by original MPKI: %+v", rows)
	}
}

func TestRenderers(t *testing.T) {
	var buf bytes.Buffer
	RenderTable1(&buf)
	out := buf.String()
	for _, name := range []string{"mem-regs", "base-update", "mem-footprint", "call-stack", "branch-regs", "flag-reg"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table 1 output missing %s", name)
		}
	}

	buf.Reset()
	RenderFig1(&buf, []Fig1Row{{VariantAll, -3.5}})
	if !strings.Contains(buf.String(), "All_imps") || !strings.Contains(buf.String(), "-3.50%") {
		t.Errorf("Fig1 render: %q", buf.String())
	}

	buf.Reset()
	RenderFig2(&buf, []Fig2Series{{Variant: VariantFlagReg, DeltasPct: []float64{1, -8}, Below5: 1, WorstTrace: "x", WorstPct: -8}})
	if !strings.Contains(buf.String(), "flag-reg") {
		t.Errorf("Fig2 render: %q", buf.String())
	}

	buf.Reset()
	RenderFig3(&buf, []Fig3Row{{"t", 2.0, 5.0, 3.0}})
	if !strings.Contains(buf.String(), "brMPKI") {
		t.Error("Fig3 render missing header")
	}

	buf.Reset()
	RenderFig4(&buf, []Fig4Row{{"t", 8.5, 4.4}})
	if !strings.Contains(buf.String(), "8.50") {
		t.Error("Fig4 render missing data")
	}

	buf.Reset()
	RenderFig5(&buf, []Fig5Row{{"t", 4.0, 0.2, 3.3}})
	if !strings.Contains(buf.String(), "retMPKI-orig") {
		t.Error("Fig5 render missing header")
	}

	buf.Reset()
	RenderTable2(&buf, Table2Result{Rows: []Table2Row{{Name: "client_001", CVPName: "secret_int_294", IPC: 2.37}}})
	if !strings.Contains(buf.String(), "client_001") || !strings.Contains(buf.String(), "secret_int_294") {
		t.Error("Table2 render missing mapping")
	}

	buf.Reset()
	RenderTable3(&buf, Table3Result{
		Competition: []Table3Entry{{1, "EPI", 1.29}, {2, "TAP", 1.23}},
		Fixed:       []Table3Entry{{1, "TAP", 1.38}, {2, "EPI", 1.36}},
	})
	if !strings.Contains(buf.String(), "EPI") || !strings.Contains(buf.String(), "rank moves") {
		t.Error("Table3 render incomplete")
	}
}

// TestTable2Small runs the real Table 2 pipeline on a 3-trace subset.
func TestTable2Small(t *testing.T) {
	suite := synth.IPC1Suite()[:3]
	res, err := Table2(testSweepConfig(), suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.IPC <= 0 {
			t.Errorf("%s: IPC %v", r.Name, r.IPC)
		}
		if r.CVPName == "" {
			t.Errorf("%s: missing CVP mapping", r.Name)
		}
	}
}

// TestTable3Small runs the championship pipeline on 2 traces and 2
// prefetchers' worth of work (all 8 would be slow); it exercises both trace
// sets and the ranking logic.
func TestTable3Small(t *testing.T) {
	if testing.Short() {
		t.Skip("table 3 is slow")
	}
	suite := synth.IPC1Suite()[:2]
	cfg := testSweepConfig()
	res, err := Table3(cfg, suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Competition) != len(Table3Prefetchers) || len(res.Fixed) != len(Table3Prefetchers) {
		t.Fatalf("ranking sizes: %d, %d", len(res.Competition), len(res.Fixed))
	}
	for i, e := range res.Competition {
		if e.Rank != i+1 {
			t.Errorf("rank %d = %d", i+1, e.Rank)
		}
		if e.Speedup <= 0 {
			t.Errorf("%s speedup %v", e.Prefetcher, e.Speedup)
		}
		if i > 0 && e.Speedup > res.Competition[i-1].Speedup {
			t.Error("ranking not sorted by speedup")
		}
	}
}

func TestDefaultSweepConfig(t *testing.T) {
	cfg := SweepConfig{Warmup: DefaultWarmup}
	cfg.fill()
	if cfg.Instructions != 150000 || cfg.Warmup != 50000 {
		t.Errorf("defaults = %+v", cfg)
	}
	if len(cfg.Variants) != 10 || cfg.Parallelism < 1 {
		t.Errorf("fill incomplete: %+v", cfg)
	}
}

// TestFrontEndAblationSmall exercises the §4.4 ablation on one trace.
func TestFrontEndAblationSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	tr, ok := synth.FindIPC1("server_030")
	if !ok {
		t.Fatal("server_030 missing")
	}
	rows, err := FrontEndAblation(testSweepConfig(), []synth.IPC1Trace{tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Table3Prefetchers) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.CoupledSpeedup <= 0 || r.DecoupledSpeedup <= 0 {
			t.Errorf("%s: speedups %v/%v", r.Prefetcher, r.CoupledSpeedup, r.DecoupledSpeedup)
		}
	}
	var buf bytes.Buffer
	RenderFrontEndAblation(&buf, rows)
	if !strings.Contains(buf.String(), "decoupled") {
		t.Error("ablation render incomplete")
	}
}

// TestCharacterizeSmall exercises the public-suite characterization path.
func TestCharacterizeSmall(t *testing.T) {
	profiles := []synth.Profile{
		synth.PublicProfile(synth.ComputeInt, 1),
		synth.PublicProfile(synth.Server, 2),
	}
	rows, err := Characterize(profiles, testSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.IPC <= 0 || r.Name == "" || r.Category == "" {
			t.Errorf("bad row %+v", r)
		}
	}
	var buf bytes.Buffer
	RenderCharacterization(&buf, rows)
	if !strings.Contains(buf.String(), rows[0].Name) {
		t.Error("render missing trace name")
	}
}

// TestJSONReport round-trips a report through encoding/json.
func TestJSONReport(t *testing.T) {
	cfg := testSweepConfig()
	rep := NewJSONReport(cfg)
	rep.Fig1 = []Fig1Row{{Variant: VariantAll, GeomeanDeltaPct: -3.5}}
	t2 := Table2Result{Rows: []Table2Row{{Name: "client_001", CVPName: "secret_int_294"}}}
	rep.Table2 = &t2
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if _, ok := back["fig1"]; !ok {
		t.Error("fig1 missing from JSON")
	}
	if _, ok := back["table2"]; !ok {
		t.Error("table2 missing from JSON")
	}
	if _, ok := back["fig3"]; ok {
		t.Error("empty sections must be omitted")
	}
	settings := back["settings"].(map[string]any)
	if int(settings["instructions"].(float64)) != cfg.Instructions {
		t.Error("settings not echoed")
	}
}

func TestFig4Math(t *testing.T) {
	mk := func(name string, baseUpd, total uint64, delta float64) TraceResult {
		tr := TraceResult{
			Profile: synth.Profile{Name: name},
			Results: map[string]Result{
				VariantNone: {IPC: 1},
				VariantBaseUpdate: {
					IPC:  1 + delta,
					Conv: core.Stats{In: total, BaseUpdateLoads: baseUpd},
				},
			},
		}
		return tr
	}
	rows := Fig4([]TraceResult{
		mk("many", 200, 1000, 0.08),
		mk("few", 10, 1000, 0.01),
	})
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Trace != "few" || rows[1].Trace != "many" {
		t.Fatalf("not sorted by base-update fraction: %+v", rows)
	}
	if math.Abs(rows[1].BaseUpdateLoadPct-20) > 1e-9 {
		t.Errorf("BaseUpdateLoadPct = %v, want 20", rows[1].BaseUpdateLoadPct)
	}
	if math.Abs(rows[1].SpeedupPct-8) > 1e-9 {
		t.Errorf("SpeedupPct = %v, want 8", rows[1].SpeedupPct)
	}
}
