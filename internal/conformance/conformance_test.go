package conformance

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tracerebase/internal/synth"
)

func TestCheckTraceAcrossCategories(t *testing.T) {
	for _, p := range goldenProfiles() {
		instrs, err := p.GenerateBatch(1500)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckTrace(instrs, nil); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestCheckTraceCatchesMutation(t *testing.T) {
	instrs, err := synth.PublicProfile(synth.ComputeInt, 0).GenerateBatch(200)
	if err != nil {
		t.Fatal(err)
	}
	// A slab with an unencodable record must fail the round-trip check
	// rather than slipping through silently.
	instrs[100].MemSize = 3
	instrs[100].Class = 1 // load
	if err := CheckCVPRoundTrip(instrs); err == nil {
		t.Fatal("round-trip check accepted an unencodable record")
	}
}

func TestSimDeterminism(t *testing.T) {
	if err := CheckSimDeterminism(synth.PublicProfile(synth.Server, 3), 2000, 500); err != nil {
		t.Fatal(err)
	}
}

func TestSweepParallelism(t *testing.T) {
	profiles := []synth.Profile{
		synth.PublicProfile(synth.ComputeInt, 0),
		synth.PublicProfile(synth.Server, 3),
	}
	if err := CheckSweepParallelism(profiles, 1500, 300, 4); err != nil {
		t.Fatal(err)
	}
}

func TestROBMonotonic(t *testing.T) {
	if err := CheckROBMonotonic(synth.PublicProfile(synth.ComputeInt, 1), 2000, 500); err != nil {
		t.Fatal(err)
	}
}

func TestCacheMonotonic(t *testing.T) {
	if err := CheckCacheMonotonic(synth.PublicProfile(synth.ComputeFP, 1), 2000, 500); err != nil {
		t.Fatal(err)
	}
}

func TestSelfTestSmallSuite(t *testing.T) {
	var log bytes.Buffer
	err := SelfTest(SelfTestConfig{
		Suite: []synth.Profile{
			synth.PublicProfile(synth.ComputeInt, 0),
			synth.PublicProfile(synth.Server, 3),
		},
		Instructions:    1000,
		SimInstructions: 1000,
		Warmup:          250,
		Log:             &log,
	})
	if err != nil {
		t.Fatalf("selftest failed:\n%s\n%v", log.String(), err)
	}
	// The count is pinned, so a check lost in a refactor fails here.
	if !strings.Contains(log.String(), "selftest: all 27 checks passed") {
		t.Fatalf("selftest log lacks the summary line of all 27 checks:\n%s", log.String())
	}
	timed := regexp.MustCompile(`^ok   .* \([0-9]+\.[0-9] s\)$`)
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		if strings.HasPrefix(line, "ok ") && !timed.MatchString(line) {
			t.Errorf("check line without its wall time: %q", line)
		}
	}
}

func TestSelfTestFailsOnCorruptGolden(t *testing.T) {
	dir := copyGolden(t)
	path := filepath.Join(dir, "compute_int_0.cvp")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[17] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = SelfTest(SelfTestConfig{
		Suite:           []synth.Profile{synth.PublicProfile(synth.Crypto, 0)},
		Instructions:    500,
		SimInstructions: 500,
		Warmup:          100,
		GoldenFS:        os.DirFS(dir),
	})
	if err == nil {
		t.Fatal("selftest passed on a corrupted golden corpus")
	}
	if !strings.Contains(err.Error(), "compute_int_0") {
		t.Fatalf("failure is not pointed at the corrupt trace: %v", err)
	}
}

func TestValidateTraceFile(t *testing.T) {
	dir := t.TempDir()

	instrs, err := synth.PublicProfile(synth.Server, 3).GenerateBatch(400)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := encodeCVP(instrs)
	if err != nil {
		t.Fatal(err)
	}
	cvpPath := filepath.Join(dir, "trace.cvp")
	if err := os.WriteFile(cvpPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := ValidateTraceFile(cvpPath)
	if err != nil {
		t.Fatalf("valid CVP trace rejected: %v", err)
	}
	if rep.Format != "cvp" || rep.Records != 400 {
		t.Fatalf("report = %+v, want cvp/400", rep)
	}

	recs, _, err := convertAllImps(instrs)
	if err != nil {
		t.Fatal(err)
	}
	champPath := filepath.Join(dir, "trace.champsim")
	if err := os.WriteFile(champPath, encodeChamp(recs), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = ValidateTraceFile(champPath)
	if err != nil {
		t.Fatalf("valid ChampSim trace rejected: %v", err)
	}
	if rep.Format != "champsim" || rep.Records != uint64(len(recs)) {
		t.Fatalf("report = %+v, want champsim/%d", rep, len(recs))
	}

	junkPath := filepath.Join(dir, "junk.bin")
	if err := os.WriteFile(junkPath, []byte("definitely not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateTraceFile(junkPath); err == nil {
		t.Fatal("junk file accepted as a trace")
	}

	truncPath := filepath.Join(dir, "trunc.cvp")
	if err := os.WriteFile(truncPath, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateTraceFile(truncPath); err == nil {
		t.Fatal("truncated trace accepted")
	}
}
