package conformance

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"sync"
	"time"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/cvp"
	"tracerebase/internal/experiments"
	"tracerebase/internal/synth"
)

// SelfTestConfig parameterizes SelfTest.
type SelfTestConfig struct {
	// Suite lists the synthetic profiles to run the differential battery
	// over; nil selects the full 135-trace public suite.
	Suite []synth.Profile
	// Instructions is the per-trace length of the differential battery
	// (0 = 4000). The battery converts every trace under all ten variants
	// through four redundant code paths, so this dominates runtime.
	Instructions int
	// SimInstructions is the per-trace length of the simulator-based
	// metamorphic checks (0 = 2000).
	SimInstructions int
	// Warmup is the warm-up of the simulator-based checks.
	Warmup uint64
	// Parallelism bounds concurrent per-trace differential checks
	// (0 = NumCPU).
	Parallelism int
	// TraceFiles lists user-supplied trace files to validate after the
	// built-in suite.
	TraceFiles []string
	// GoldenFS overrides the corpus location (nil = the embedded corpus) —
	// used by tests to point at a deliberately corrupted copy.
	GoldenFS fs.FS
	// Log, when non-nil, receives one line per completed check.
	Log io.Writer
}

func (c *SelfTestConfig) fill() {
	if c.Suite == nil {
		c.Suite = synth.PublicSuite()
	}
	if c.Instructions <= 0 {
		c.Instructions = 4000
	}
	if c.SimInstructions <= 0 {
		c.SimInstructions = 2000
	}
	if c.Warmup == 0 {
		c.Warmup = 500
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU()
	}
}

// SelfTest runs the full conformance suite: golden-corpus verification, the
// differential battery over the synthetic suite, the metamorphic simulator
// checks, and validation of any user-supplied trace files. It returns nil
// only when every check passes.
func SelfTest(cfg SelfTestConfig) error {
	cfg.fill()
	start := time.Now()
	r := &Report{Log: cfg.Log, last: start}

	// 1. Golden corpus.
	golden := cfg.GoldenFS
	if golden == nil {
		golden = Golden()
	}
	if err := VerifyGolden(golden, r); err != nil {
		r.fail(err)
	}

	// 2. Differential battery over the synthetic suite, parallelized the
	// same way the sweep engine parallelizes simulations.
	type outcome struct {
		name string
		err  error
	}
	jobs := make(chan synth.Profile)
	results := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range jobs {
				instrs, err := p.GenerateBatch(cfg.Instructions)
				if err == nil {
					err = CheckTrace(instrs, nil)
				}
				results <- outcome{p.Name, err}
			}
		}()
	}
	go func() {
		for _, p := range cfg.Suite {
			jobs <- p
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()
	failed := 0
	for o := range results {
		if o.err != nil {
			failed++
			r.fail(fmt.Errorf("differential %s: %w", o.name, o.err))
		}
	}
	if failed == 0 {
		r.okf("differential battery: %d traces x %d variants x 4 convert paths, %d instructions each",
			len(cfg.Suite), len(experiments.Variants()), cfg.Instructions)
	}

	// 3. Metamorphic checks on a spread of categories. compute_int_1 is
	// ILP-bound (ROB knob), compute_fp_1 is memory-streaming (cache knob),
	// srv_3 exercises the call-stack paths.
	detProfiles := []synth.Profile{
		synth.PublicProfile(synth.ComputeInt, 1),
		synth.PublicProfile(synth.Server, 3),
	}
	for _, p := range detProfiles {
		p := p
		r.run(fmt.Sprintf("determinism: %s simulated twice, identical stats", p.Name), func() error {
			return CheckSimDeterminism(p, cfg.SimInstructions, cfg.Warmup)
		})
		r.run(fmt.Sprintf("determinism: %s generated twice, identical trace", p.Name), func() error {
			return CheckGenerateDeterminism(p, cfg.Instructions)
		})
	}
	sweepProfiles := []synth.Profile{
		synth.PublicProfile(synth.ComputeInt, 2),
		synth.PublicProfile(synth.Crypto, 1),
		synth.PublicProfile(synth.Server, 8),
	}
	// Goroutine-level parallelism does not need spare CPUs, so the sweep
	// comparison always uses several workers even on a single-core host.
	sweepPar := cfg.Parallelism
	if sweepPar < 2 {
		sweepPar = 4
	}
	r.run(fmt.Sprintf("determinism: sweep of %d traces, -parallel 1 vs -parallel %d byte-identical",
		len(sweepProfiles), sweepPar), func() error {
		return CheckSweepParallelism(sweepProfiles, cfg.SimInstructions, cfg.Warmup, sweepPar)
	})
	robProfile := synth.PublicProfile(synth.ComputeInt, 1)
	r.run(fmt.Sprintf("monotonicity: %s IPC vs ROB size", robProfile.Name), func() error {
		return CheckROBMonotonic(robProfile, cfg.SimInstructions, cfg.Warmup)
	})
	cacheProfile := synth.PublicProfile(synth.ComputeFP, 1)
	r.run(fmt.Sprintf("monotonicity: %s L1D misses vs cache size", cacheProfile.Name), func() error {
		return CheckCacheMonotonic(cacheProfile, cfg.SimInstructions, cfg.Warmup)
	})

	// 4. Store transparency: the result cache, its tiers, the slab store
	// and the experiment store must each be invisible in the output. One
	// store-off sweep is the reference for every store's cold, warm and
	// damaged sweeps (stores.go); each store reports one line.
	storeProfiles := []synth.Profile{
		synth.PublicProfile(synth.ComputeInt, 3),
		synth.PublicProfile(synth.Server, 5),
	}
	ref, refErr := newStoreRef(storeProfiles, cfg.SimInstructions, cfg.Warmup)
	for _, row := range storeRows() {
		r.run(row.store+": "+fmt.Sprintf(row.title, len(storeProfiles)), func() error {
			if refErr != nil {
				return refErr
			}
			return row.check(ref)
		})
	}

	// 5. Cycle-skip transparency: sweeps over the golden-corpus profiles
	// with event-horizon skipping enabled must be byte-identical to
	// -no-skip on both the develop and IPC-1 models.
	r.run(fmt.Sprintf("cycle skipping: skip-on vs -no-skip sweeps of %d traces byte-identical (develop + ipc1)",
		len(goldenProfiles())), func() error {
		return CheckCycleSkipTransparency(goldenProfiles(), cfg.SimInstructions, cfg.Warmup)
	})

	// 6. Sampling: sampled runs must replay deterministically, key apart
	// from exact results, and stay scheduling-independent under parallel
	// sweeps. The accuracy of sampled IPC itself is pinned by the golden
	// corpus (step 1).
	sampleProfiles := []synth.Profile{
		synth.PublicProfile(synth.ComputeInt, 1),
		synth.PublicProfile(synth.Server, 3),
	}
	for _, p := range sampleProfiles {
		p := p
		r.run(fmt.Sprintf("sampling: %s sampled twice, identical stats", p.Name), func() error {
			return CheckSampledDeterminism(p, cfg.SimInstructions, cfg.Warmup)
		})
	}
	keyProfile := synth.PublicProfile(synth.ComputeInt, 1)
	r.run(fmt.Sprintf("sampling: %s exact and sampled cache keys pairwise disjoint", keyProfile.Name), func() error {
		return CheckSampledKeyDisjoint(keyProfile, cfg.SimInstructions, cfg.Warmup)
	})
	r.run(fmt.Sprintf("sampling: sampled sweep of %d traces, -parallel 1 vs %d byte-identical",
		len(sweepProfiles), sweepPar), func() error {
		return CheckSampledParallelism(sweepProfiles, cfg.SimInstructions, cfg.Warmup, sweepPar)
	})

	// 7. Multi-core: the N-core lockstep engine must degenerate exactly to
	// the single-core behavior (idle neighbors), stay scheduling- and
	// label-independent, and keep cycle skipping invisible at N > 1.
	idleProfile := synth.PublicProfile(synth.ComputeInt, 1)
	r.run(fmt.Sprintf("multi-core: %s on 4 cores with idle neighbors byte-identical to single-core", idleProfile.Name), func() error {
		return CheckIdleNeighborIdentity(idleProfile, 4, cfg.SimInstructions, cfg.Warmup)
	})
	r.run(fmt.Sprintf("multi-core: 2-core srvcrypto sweep, -parallel 1 vs %d byte-identical", sweepPar), func() error {
		return CheckMultiParallelism("srvcrypto", 2, cfg.SimInstructions, cfg.Warmup, sweepPar)
	})
	r.run("multi-core: permuted workload->core assignment permutes per-core stats, aggregate bit-identical", func() error {
		return CheckCorePermutation("srvcrypto", 4, cfg.SimInstructions, cfg.Warmup)
	})
	r.run("multi-core: 2-core thrash with cycle skipping vs -no-skip byte-identical", func() error {
		return CheckMultiSkipTransparency("thrash", 2, cfg.SimInstructions, cfg.Warmup)
	})

	// 8. User-supplied traces.
	for _, path := range cfg.TraceFiles {
		rep, err := ValidateTraceFile(path)
		if err != nil {
			r.fail(fmt.Errorf("trace %s: %w", path, err))
			continue
		}
		r.okf("trace %s: valid %s trace, %d records%s", path, rep.Format, rep.Records, rep.Extra)
	}

	if err := r.Err(); err != nil {
		return err
	}
	if cfg.Log != nil {
		fmt.Fprintf(cfg.Log, "selftest: all %d checks passed in %.1f s\n", r.Passed(), time.Since(start).Seconds())
	}
	return nil
}

// TraceFileReport summarizes a validated user-supplied trace file.
type TraceFileReport struct {
	Path string
	// Format is "cvp" or "champsim".
	Format  string
	Records uint64
	// Extra carries format-specific detail for display.
	Extra string
}

// ValidateTraceFile validates a trace file in the field: it decodes the
// file as CVP-1 (running the full differential battery on its contents) or,
// failing that, as a ChampSim trace, and reports what it found. Gzipped
// files are handled by extension, as in the artifact.
func ValidateTraceFile(path string) (*TraceFileReport, error) {
	cvpRep, cvpErr := validateCVPFile(path)
	if cvpErr == nil {
		return cvpRep, nil
	}
	champRep, champErr := validateChampFile(path)
	if champErr == nil {
		return champRep, nil
	}
	return nil, fmt.Errorf("not a valid trace in either format:\n  as CVP-1: %v\n  as ChampSim: %v", cvpErr, champErr)
}

func validateCVPFile(path string) (*TraceFileReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, closer, err := cvp.OpenReader(path, f)
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	instrPtrs, err := cvp.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(instrPtrs) == 0 {
		return nil, fmt.Errorf("empty trace")
	}
	instrs := make([]cvp.Instruction, len(instrPtrs))
	classes := make(map[cvp.InstClass]uint64)
	for i, in := range instrPtrs {
		instrs[i] = *in
		classes[in.Class]++
	}
	// The decoded contents must survive the same differential battery the
	// synthetic suite runs: round-trip plus converter path agreement.
	if err := CheckTrace(instrs, nil); err != nil {
		return nil, fmt.Errorf("conformance battery failed: %w", err)
	}
	branches := classes[cvp.ClassCondBranch] + classes[cvp.ClassUncondDirect] + classes[cvp.ClassUncondIndirect]
	mems := classes[cvp.ClassLoad] + classes[cvp.ClassStore]
	return &TraceFileReport{
		Path:    path,
		Format:  "cvp",
		Records: uint64(len(instrs)),
		Extra: fmt.Sprintf(" (%.1f%% mem, %.1f%% branch; all %d variants convert consistently)",
			100*float64(mems)/float64(len(instrs)),
			100*float64(branches)/float64(len(instrs)),
			len(experiments.Variants())),
	}, nil
}

func validateChampFile(path string) (*TraceFileReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, closer, err := champtrace.OpenReader(path, f)
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	recs, err := champtrace.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("empty trace")
	}
	vals := make([]champtrace.Instruction, len(recs))
	branches := uint64(0)
	for i, rec := range recs {
		vals[i] = *rec
		if rec.IsBranch {
			branches++
		}
	}
	if err := CheckChampRoundTrip(vals); err != nil {
		return nil, fmt.Errorf("round trip failed: %w", err)
	}
	return &TraceFileReport{
		Path:    path,
		Format:  "champsim",
		Records: uint64(len(recs)),
		Extra:   fmt.Sprintf(" (%.1f%% branch)", 100*float64(branches)/float64(len(recs))),
	}, nil
}

// encodeCVP renders a slab as CVP-1 trace bytes; shared by tests and the
// fuzz seed builders.
func encodeCVP(instrs []cvp.Instruction) ([]byte, error) {
	var buf bytes.Buffer
	w := cvp.NewWriter(&buf)
	for i := range instrs {
		if err := w.Write(&instrs[i]); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
