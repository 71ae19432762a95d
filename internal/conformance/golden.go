package conformance

import (
	"bytes"
	"crypto/md5"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/cvp"
	"tracerebase/internal/experiments"
	"tracerebase/internal/sim"
	"tracerebase/internal/synth"
)

//go:generate go run ./gen -dir testdata/golden

// The golden corpus: small real-format CVP-1 and ChampSim binary traces
// checked into testdata/golden together with manifest.json, which records
// the md5 of every file, the md5 and converter statistics of each variant's
// converted output, and the key simulator counters of the No_imp and
// All_imps simulations. The corpus is embedded so `rebase -selftest`
// verifies it without any filesystem dependency; regenerate with
// `go generate ./internal/conformance` after an intentional behaviour
// change (see EXPERIMENTS.md for what counts as an expected diff).
//
//go:embed testdata/golden
var embeddedGolden embed.FS

// Golden returns the embedded golden corpus as a file system rooted at the
// corpus directory.
func Golden() fs.FS {
	sub, err := fs.Sub(embeddedGolden, "testdata/golden")
	if err != nil {
		panic("conformance: embedded golden corpus missing: " + err.Error())
	}
	return sub
}

// goldenInstructions and goldenWarmup size the corpus traces: long enough
// to exercise every conversion path and produce stable simulator counters,
// short enough that four binary traces stay well under a megabyte.
const (
	goldenInstructions = 1000
	goldenWarmup       = 250
)

// The corpus's sampled-mode pins cannot run on the 1000-instruction
// checked-in traces: a detailed interval must outlast the pipeline-refill
// ramp of a 352-entry ROB, and the corpus profiles have heavy-tailed cycle
// distributions (rare long-stall bursts carry a large share of total
// cycles), so the sampling error converges slowly — per-trace error only
// drops under 2% near a thousand measured intervals. The pins therefore run
// on multi-million-instruction traces regenerated from the same four
// profiles at verification time — synth determinism is itself a pinned
// corpus invariant, so the regenerated stream is as stable as a checked-in
// binary. The manifest records all of it so the pins are self-describing.
// maxGoldenSampleErrPct bounds the sampled-vs-exact IPC error per corpus
// trace — one trace per workload category, so these are the per-category
// error bounds — and WriteGolden refuses to pin a corpus that violates it:
// a regression that pushes sampling error past the bound cannot be waved
// through by regenerating the manifest.
const (
	goldenSampleInstructions = 2400000
	goldenSampleWarmup       = 25000
	goldenSamplePeriod       = 2500
	goldenSampleDetail       = 2000
	goldenSampleWarm         = 400
	maxGoldenSampleErrPct    = 2.0
)

// goldenProfiles returns the four corpus traces, one per CVP-1 workload
// category; srv_3 carries the BLR-X30 dispatch idiom that triggers the
// call-stack bug, so the corpus pins both branch classifications.
func goldenProfiles() []synth.Profile {
	return []synth.Profile{
		synth.PublicProfile(synth.ComputeInt, 0),
		synth.PublicProfile(synth.ComputeFP, 0),
		synth.PublicProfile(synth.Crypto, 0),
		synth.PublicProfile(synth.Server, 3),
	}
}

// GoldenSim is the simulator-counter fingerprint of one golden simulation.
type GoldenSim struct {
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	Mispredicts  uint64 `json:"mispredicts"`
	BTBMisses    uint64 `json:"btb_misses"`
	Returns      uint64 `json:"returns"`
	L1IMisses    uint64 `json:"l1i_misses"`
	L1DMisses    uint64 `json:"l1d_misses"`
	LLCMisses    uint64 `json:"llc_misses"`
}

// GoldenSampled is the sampled-mode fingerprint of one golden simulation:
// the exact counters of the deterministic sampled run plus the
// sampled-vs-exact IPC error measured when the corpus was generated.
type GoldenSampled struct {
	GoldenSim
	Intervals uint64 `json:"intervals"`
	// IPCErrPct is 100*|sampled-exact|/exact, rounded to 4 decimals. It is
	// bounded by the manifest's MaxSampleErrPct at generation and at every
	// verification.
	IPCErrPct float64 `json:"ipc_err_pct"`
}

// GoldenVariant fingerprints one variant's conversion of a golden trace.
type GoldenVariant struct {
	Records uint64 `json:"records"`
	MD5     string `json:"md5"`
	ConvIn  uint64 `json:"conv_in"`
	ConvOut uint64 `json:"conv_out"`
}

// GoldenTrace is one corpus entry.
type GoldenTrace struct {
	Name         string                   `json:"name"`
	Instructions int                      `json:"instructions"`
	CVPFile      string                   `json:"cvp_file"`
	CVPMD5       string                   `json:"cvp_md5"`
	ChampFile    string                   `json:"champ_file"` // All_imps conversion, ChampSim format
	ChampMD5     string                   `json:"champ_md5"`
	Variants     map[string]GoldenVariant `json:"variants"`
	Sim          map[string]GoldenSim     `json:"sim"`     // keyed by variant name
	Sampled      map[string]GoldenSampled `json:"sampled"` // keyed by variant name
}

// Manifest is the schema of testdata/golden/manifest.json.
type Manifest struct {
	Comment      string `json:"comment"`
	Instructions int    `json:"instructions"`
	Warmup       uint64 `json:"warmup"`
	// Run shape, sampling parameters, and error bound of the corpus's
	// sampled pins, which run on regenerated SampleInstructions-long
	// traces (see the constants above).
	SampleInstructions int           `json:"sample_instructions"`
	SampleWarmup       uint64        `json:"sample_warmup"`
	SamplePeriod       uint64        `json:"sample_period"`
	SampleDetail       uint64        `json:"sample_detail"`
	SampleWarm         uint64        `json:"sample_warm"`
	MaxSampleErrPct    float64       `json:"max_sample_err_pct"`
	Traces             []GoldenTrace `json:"traces"`
	// Multi pins per-core and aggregate counters for fixed co-schedules on
	// the N-core shared-LLC model (see goldenMultiScenarios).
	Multi []GoldenMulti `json:"multi"`
}

// LoadManifest reads manifest.json from the corpus file system.
func LoadManifest(fsys fs.FS) (*Manifest, error) {
	data, err := fs.ReadFile(fsys, "manifest.json")
	if err != nil {
		return nil, fmt.Errorf("golden manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("golden manifest: %w", err)
	}
	return &m, nil
}

func md5hex(b []byte) string {
	sum := md5.Sum(b)
	return hex.EncodeToString(sum[:])
}

// goldenSampledCfg is the develop model in sampled mode at the corpus's
// sampling parameters.
func goldenSampledCfg(opts core.Options) sim.Config {
	cfg := develCfg(opts)
	cfg.SamplePeriod = goldenSamplePeriod
	cfg.SampleDetail = goldenSampleDetail
	cfg.SampleWarm = goldenSampleWarm
	return cfg
}

// goldenSampleErrPct is the sampled-vs-exact relative IPC error in percent,
// rounded to 4 decimals so the manifest value survives a JSON round trip.
func goldenSampleErrPct(sampled, exact float64) float64 {
	if exact == 0 {
		return 0
	}
	return math.Round(math.Abs(sampled-exact)/exact*1e6) / 1e4
}

// goldenSimFrom extracts the pinned counters from full simulator stats.
func goldenSimFrom(st sim.Stats) GoldenSim {
	return GoldenSim{
		Instructions: st.Instructions,
		Cycles:       st.Cycles,
		Mispredicts:  st.Mispredicts,
		BTBMisses:    st.BTBMisses,
		Returns:      st.Returns,
		L1IMisses:    st.L1I.Misses,
		L1DMisses:    st.L1D.Misses,
		LLCMisses:    st.LLC.Misses,
	}
}

// diff returns one pointed line per counter that differs from got.
func (g GoldenSim) diff(got GoldenSim) []string {
	var out []string
	add := func(name string, want, have uint64) {
		if want != have {
			out = append(out, fmt.Sprintf("%s: golden %d, got %d", name, want, have))
		}
	}
	add("instructions", g.Instructions, got.Instructions)
	add("cycles", g.Cycles, got.Cycles)
	add("mispredicts", g.Mispredicts, got.Mispredicts)
	add("btb_misses", g.BTBMisses, got.BTBMisses)
	add("returns", g.Returns, got.Returns)
	add("l1i_misses", g.L1IMisses, got.L1IMisses)
	add("l1d_misses", g.L1DMisses, got.L1DMisses)
	add("llc_misses", g.LLCMisses, got.LLCMisses)
	return out
}

// encodeChamp renders converted records as ChampSim trace bytes.
func encodeChamp(recs []champtrace.Instruction) []byte {
	out := make([]byte, 0, len(recs)*champtrace.RecordSize)
	for i := range recs {
		out = recs[i].Encode(out)
	}
	return out
}

// buildGoldenTrace computes the full fingerprint of one profile: the
// encoded CVP trace, every variant's conversion, and the pinned sims.
func buildGoldenTrace(p synth.Profile) (GoldenTrace, []byte, []byte, error) {
	gt := GoldenTrace{
		Name:         p.Name,
		Instructions: goldenInstructions,
		CVPFile:      p.Name + ".cvp",
		ChampFile:    p.Name + ".all_imps.champ",
		Variants:     make(map[string]GoldenVariant),
		Sim:          make(map[string]GoldenSim),
		Sampled:      make(map[string]GoldenSampled),
	}
	instrs, err := p.GenerateBatch(goldenInstructions)
	if err != nil {
		return gt, nil, nil, err
	}
	sampleInstrs, err := p.GenerateBatch(goldenSampleInstructions)
	if err != nil {
		return gt, nil, nil, err
	}
	var cvpBuf bytes.Buffer
	w := cvp.NewWriter(&cvpBuf)
	for i := range instrs {
		if err := w.Write(&instrs[i]); err != nil {
			return gt, nil, nil, fmt.Errorf("%s: encode: %w", p.Name, err)
		}
	}
	if err := w.Flush(); err != nil {
		return gt, nil, nil, err
	}
	gt.CVPMD5 = md5hex(cvpBuf.Bytes())

	var champBytes []byte
	for _, v := range experiments.Variants() {
		recs, stats, err := core.ConvertAllBatch(cvp.NewValuesSource(instrs), v.Opts)
		if err != nil {
			return gt, nil, nil, fmt.Errorf("%s/%s: convert: %w", p.Name, v.Name, err)
		}
		enc := encodeChamp(recs)
		gt.Variants[v.Name] = GoldenVariant{
			Records: uint64(len(recs)),
			MD5:     md5hex(enc),
			ConvIn:  stats.In,
			ConvOut: stats.Out,
		}
		if v.Name == experiments.VariantAll {
			champBytes = enc
			gt.ChampMD5 = gt.Variants[v.Name].MD5
		}
		if v.Name == experiments.VariantNone || v.Name == experiments.VariantAll {
			st, err := simulate(instrs, v.Opts, develCfg(v.Opts), goldenWarmup)
			if err != nil {
				return gt, nil, nil, fmt.Errorf("%s/%s: simulate: %w", p.Name, v.Name, err)
			}
			gt.Sim[v.Name] = goldenSimFrom(st)

			est, err := simulate(sampleInstrs, v.Opts, develCfg(v.Opts), goldenSampleWarmup)
			if err != nil {
				return gt, nil, nil, fmt.Errorf("%s/%s: exact reference simulate: %w", p.Name, v.Name, err)
			}
			sst, err := simulate(sampleInstrs, v.Opts, goldenSampledCfg(v.Opts), goldenSampleWarmup)
			if err != nil {
				return gt, nil, nil, fmt.Errorf("%s/%s: sampled simulate: %w", p.Name, v.Name, err)
			}
			errPct := goldenSampleErrPct(sst.IPC(), est.IPC())
			if errPct > maxGoldenSampleErrPct {
				return gt, nil, nil, fmt.Errorf(
					"%s/%s: sampled IPC error %.4f%% exceeds the %.1f%% corpus bound (sampled %.4f vs exact %.4f) — fix the sampling engine or retune the corpus sampling parameters before regenerating",
					p.Name, v.Name, errPct, maxGoldenSampleErrPct, sst.IPC(), est.IPC())
			}
			gt.Sampled[v.Name] = GoldenSampled{
				GoldenSim: goldenSimFrom(sst),
				Intervals: sst.SampleIntervals,
				IPCErrPct: errPct,
			}
		}
	}
	return gt, cvpBuf.Bytes(), champBytes, nil
}

// WriteGolden regenerates the corpus into dir. It is the implementation of
// `go generate ./internal/conformance`.
func WriteGolden(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	m := Manifest{
		Comment: "Golden conformance corpus. Regenerate with: go generate ./internal/conformance " +
			"(see EXPERIMENTS.md for what counts as an expected diff).",
		Instructions:       goldenInstructions,
		Warmup:             goldenWarmup,
		SampleInstructions: goldenSampleInstructions,
		SampleWarmup:       goldenSampleWarmup,
		SamplePeriod:       goldenSamplePeriod,
		SampleDetail:       goldenSampleDetail,
		SampleWarm:         goldenSampleWarm,
		MaxSampleErrPct:    maxGoldenSampleErrPct,
	}
	for _, p := range goldenProfiles() {
		gt, cvpBytes, champBytes, err := buildGoldenTrace(p)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, gt.CVPFile), cvpBytes, 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, gt.ChampFile), champBytes, 0o644); err != nil {
			return err
		}
		m.Traces = append(m.Traces, gt)
	}
	for _, sc := range goldenMultiScenarios() {
		gm, err := buildGoldenMulti(sc.Spec, sc.Cores)
		if err != nil {
			return err
		}
		m.Multi = append(m.Multi, gm)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), append(data, '\n'), 0o644)
}

// VerifyGolden checks the corpus in fsys against its manifest: file md5s,
// decodability of the checked-in binaries, every variant's converted md5
// and converter statistics, and the pinned simulator counters. The checks
// that need no decoding or simulation run first, for every trace, so a
// corrupt file or an incomplete manifest fails at once. Failure messages
// point at the first divergence.
func VerifyGolden(fsys fs.FS, r *Report) error {
	m, err := LoadManifest(fsys)
	if err != nil {
		return err
	}
	if len(m.Traces) == 0 {
		return fmt.Errorf("golden manifest lists no traces")
	}
	for _, gt := range m.Traces {
		if err := checkGoldenStatic(fsys, gt); err != nil {
			return fmt.Errorf("golden %s: %w", gt.Name, err)
		}
	}
	if len(m.Multi) == 0 {
		return fmt.Errorf("golden manifest lists no multi-core pins — regenerate with `go generate ./internal/conformance`")
	}
	for _, gt := range m.Traces {
		if err := verifyGoldenTrace(fsys, m, gt); err != nil {
			return fmt.Errorf("golden %s: %w", gt.Name, err)
		}
		if r != nil {
			r.okf("golden %s: %d variants, %d pinned sims", gt.Name, len(gt.Variants), len(gt.Sim))
		}
	}
	for _, gm := range m.Multi {
		if err := verifyGoldenMulti(gm); err != nil {
			return fmt.Errorf("golden multi %s: %w", gm.Scenario, err)
		}
		if r != nil {
			r.okf("golden multi %s: %d cores (%s, mem-bandwidth %d), %d pinned sims",
				gm.Scenario, gm.Cores, gm.LLCPolicy, gm.MemBandwidth, len(gm.Sim))
		}
	}
	return nil
}

// checkGoldenStatic checks what needs neither decoding nor simulation:
// both trace files' md5s, and that the manifest pins every converter
// variant.
func checkGoldenStatic(fsys fs.FS, gt GoldenTrace) error {
	for _, f := range [][2]string{{gt.CVPFile, gt.CVPMD5}, {gt.ChampFile, gt.ChampMD5}} {
		raw, err := fs.ReadFile(fsys, f[0])
		if err != nil {
			return err
		}
		if got := md5hex(raw); got != f[1] {
			return fmt.Errorf("%s: md5 %s does not match manifest %s — the trace file was modified without regenerating the manifest",
				f[0], got, f[1])
		}
	}
	for _, v := range experiments.Variants() {
		if _, ok := gt.Variants[v.Name]; !ok {
			return fmt.Errorf("manifest lacks variant %s", v.Name)
		}
	}
	if all := gt.Variants[experiments.VariantAll].MD5; all != gt.ChampMD5 {
		return fmt.Errorf("%s: manifest md5 %s is not the %s variant's %s", gt.ChampFile, gt.ChampMD5, experiments.VariantAll, all)
	}
	return nil
}

// verifyGoldenTrace decodes, reconverts and resimulates one trace whose
// files and manifest entry already passed checkGoldenStatic.
func verifyGoldenTrace(fsys fs.FS, m *Manifest, gt GoldenTrace) error {
	raw, err := fs.ReadFile(fsys, gt.CVPFile)
	if err != nil {
		return err
	}

	// Decode the checked-in binary through the hardened reader.
	instrPtrs, err := cvp.ReadAll(cvp.NewReader(bytes.NewReader(raw)))
	if err != nil {
		return fmt.Errorf("%s: decode: %w", gt.CVPFile, err)
	}
	if len(instrPtrs) != gt.Instructions {
		return fmt.Errorf("%s: decoded %d instructions, manifest says %d", gt.CVPFile, len(instrPtrs), gt.Instructions)
	}
	instrs := make([]cvp.Instruction, len(instrPtrs))
	for i, in := range instrPtrs {
		instrs[i] = *in
	}

	// The corpus must still be what the generator produces: synth drift
	// invalidates the checked-in traces even when decoder and converter
	// are untouched.
	if p, ok := synth.FindPublic(gt.Name); ok {
		fresh, err := p.GenerateBatch(gt.Instructions)
		if err != nil {
			return err
		}
		for i := range fresh {
			if i >= len(instrs) || !CVPEqual(&fresh[i], &instrs[i]) {
				return fmt.Errorf("%s: synth drift: freshly generated trace diverges from the checked-in corpus at instruction %d — regenerate with `go generate ./internal/conformance` if the generator change is intentional", gt.Name, i)
			}
		}
	}

	// The sampled pins re-run on a regenerated SampleInstructions-long
	// trace; generate it once for both pinned variants.
	var sampleInstrs []cvp.Instruction
	if len(gt.Sampled) > 0 && m.SampleInstructions > 0 {
		p, ok := synth.FindPublic(gt.Name)
		if !ok {
			return fmt.Errorf("no public profile named %s for the sampled pins", gt.Name)
		}
		var err error
		sampleInstrs, err = p.GenerateBatch(m.SampleInstructions)
		if err != nil {
			return err
		}
	}

	for _, v := range experiments.Variants() {
		want := gt.Variants[v.Name]
		recs, stats, err := core.ConvertAllBatch(cvp.NewValuesSource(instrs), v.Opts)
		if err != nil {
			return fmt.Errorf("convert %s: %w", v.Name, err)
		}
		if uint64(len(recs)) != want.Records {
			return fmt.Errorf("variant %s: converted to %d records, golden %d", v.Name, len(recs), want.Records)
		}
		if stats.In != want.ConvIn || stats.Out != want.ConvOut {
			return fmt.Errorf("variant %s: converter stats in/out %d/%d, golden %d/%d",
				v.Name, stats.In, stats.Out, want.ConvIn, want.ConvOut)
		}
		enc := encodeChamp(recs)
		if got := md5hex(enc); got != want.MD5 {
			return fmt.Errorf("variant %s: converted md5 %s, golden %s%s",
				v.Name, got, want.MD5, goldenFirstDivergence(fsys, gt, v.Name, recs))
		}
		if gs, ok := gt.Sim[v.Name]; ok {
			st, err := simulate(instrs, v.Opts, develCfg(v.Opts), m.Warmup)
			if err != nil {
				return fmt.Errorf("simulate %s: %w", v.Name, err)
			}
			if diffs := gs.diff(goldenSimFrom(st)); len(diffs) > 0 {
				return fmt.Errorf("variant %s: simulator counters diverge from golden:\n  %s",
					v.Name, joinLines(diffs))
			}
			if sp, ok := gt.Sampled[v.Name]; ok {
				if err := verifyGoldenSampled(m, sampleInstrs, v.Name, v.Opts, sp); err != nil {
					return err
				}
			}
		}
	}

	// The checked-in ChampSim binary must decode; checkGoldenStatic tied
	// its md5 to the All_imps variant's, which the loop above reconverted.
	champRaw, err := fs.ReadFile(fsys, gt.ChampFile)
	if err != nil {
		return err
	}
	if _, err := champtrace.ReadAll(champtrace.NewReader(bytes.NewReader(champRaw))); err != nil {
		return fmt.Errorf("%s: decode: %w", gt.ChampFile, err)
	}
	return nil
}

// verifyGoldenSampled re-runs one sampled pin on the regenerated
// SampleInstructions-long trace (synth determinism is itself verified on the
// checked-in prefix), reproducing the exact reference and the sampled run at
// the manifest's parameters, and holds the sampled counters, the interval
// count, and the sampled-vs-exact IPC error to the pinned values.
func verifyGoldenSampled(m *Manifest, sampleInstrs []cvp.Instruction, variant string, opts core.Options, sp GoldenSampled) error {
	est, err := simulate(sampleInstrs, opts, develCfg(opts), m.SampleWarmup)
	if err != nil {
		return fmt.Errorf("sampled pin %s: exact reference simulate: %w", variant, err)
	}
	scfg := develCfg(opts)
	scfg.SamplePeriod, scfg.SampleDetail, scfg.SampleWarm = m.SamplePeriod, m.SampleDetail, m.SampleWarm
	sst, err := simulate(sampleInstrs, opts, scfg, m.SampleWarmup)
	if err != nil {
		return fmt.Errorf("sampled pin %s: sampled simulate: %w", variant, err)
	}
	if diffs := sp.GoldenSim.diff(goldenSimFrom(sst)); len(diffs) > 0 {
		return fmt.Errorf("variant %s: sampled simulator counters diverge from golden:\n  %s",
			variant, joinLines(diffs))
	}
	if sst.SampleIntervals != sp.Intervals {
		return fmt.Errorf("variant %s: sampled run measured %d intervals, golden %d",
			variant, sst.SampleIntervals, sp.Intervals)
	}
	errPct := goldenSampleErrPct(sst.IPC(), est.IPC())
	if errPct > m.MaxSampleErrPct {
		return fmt.Errorf("variant %s: sampled IPC error %.4f%% exceeds the pinned %.1f%% bound (sampled %.4f vs exact %.4f)",
			variant, errPct, m.MaxSampleErrPct, sst.IPC(), est.IPC())
	}
	if math.Abs(errPct-sp.IPCErrPct) > 0.005 {
		return fmt.Errorf("variant %s: sampled IPC error %.4f%% drifted from the pinned %.4f%%",
			variant, errPct, sp.IPCErrPct)
	}
	return nil
}

// goldenFirstDivergence decodes the checked-in ChampSim file (available for
// All_imps) and reports the first record where the fresh conversion
// differs, turning a bare md5 mismatch into a pointed diff.
func goldenFirstDivergence(fsys fs.FS, gt GoldenTrace, variant string, fresh []champtrace.Instruction) string {
	if variant != experiments.VariantAll {
		return ""
	}
	raw, err := fs.ReadFile(fsys, gt.ChampFile)
	if err != nil {
		return ""
	}
	goldenRecs, err := champtrace.ReadAll(champtrace.NewReader(bytes.NewReader(raw)))
	if err != nil {
		return ""
	}
	n := len(goldenRecs)
	if len(fresh) < n {
		n = len(fresh)
	}
	for i := 0; i < n; i++ {
		if *goldenRecs[i] != fresh[i] {
			return fmt.Sprintf("; first divergence at record %d:\n  golden %+v\n  got    %+v", i, *goldenRecs[i], fresh[i])
		}
	}
	return fmt.Sprintf("; record counts %d (golden) vs %d (got), common prefix identical", len(goldenRecs), len(fresh))
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}
