// Command rebase regenerates the paper's tables and figures, mirroring the
// artifact's results_fig*.sh / results_tab*.sh scripts:
//
//	rebase -exp table1
//	rebase -exp fig1 -instructions 150000
//	rebase -exp all -step 3        # every 3rd public trace, for quick runs
//
// Figures 1–5 share one sweep of the CVP-1 public suite (every trace
// converted under every improvement set, simulated on the develop model);
// Tables 2–3 run the 50 IPC-1 traces on the develop and IPC-1 models
// respectively.
//
// Results are served from a content-addressed cache when possible: the
// whole pipeline is deterministic, so a (trace, variant, config) cell that
// was simulated before — by this run, an earlier run, or a concurrent one —
// is loaded from ~/.cache/tracerebase instead of recomputed, making warm
// re-runs near-instant with byte-identical output. -cache-dir relocates
// the store (as does $TRACEREBASE_CACHE_DIR), -no-cache disables it
// entirely, and a cache summary line (hits/misses/bytes) is printed after
// each run. Use `traceinfo -cachekey` to inspect a cell's key derivation.
//
// Alongside the caches, every sweep records its result cells into a
// experiment store (<cache dir>/exp, relocated by -exp-store-dir,
// disabled by -no-exp-store) and reads its rendered results back out of
// it. Unless -no-cache is given, the store is also where a repeat run's
// cells come from first; the result cache serves only the store's misses.
// The store is queryable without re-running anything:
//
//	rebase query 'category=srv variant=all,none metric=ipc group-by=rob stat=p50,p99'
//
// See `rebase query -h` for the query language.
//
// For performance work, -cpuprofile and -memprofile write pprof profiles
// covering the whole run, and -bench-json records the wall-clock,
// configuration, and cache activity of the run as a small JSON document
// (see BENCH_1.json, BENCH_4.json). The process runs under Go's default GC
// pacer; set $GOGC or $GOMEMLIMIT to tune it.
//
// rebase -cores N -coschedule <spec>[,<spec>...] simulates co-scheduled
// workload mixes on N lockstep cores over a shared LLC instead of the
// single-core experiments, reporting per-core and aggregate IPC for every
// converter variant. -llc-policy selects the shared replacement policy
// (e.g. shared-srrip) and -mem-bandwidth adds an LLC<->DRAM port occupancy:
//
//	rebase -cores 2 -coschedule srvcrypto
//	rebase -cores 4 -coschedule thrash,rack -llc-policy shared-srrip -mem-bandwidth 4
//
// rebase serve runs the same engine as a long-lived daemon over a tiered
// result cache (memory LRU -> disk -> optional remote peer daemon via
// -remote), and rebase submit is its streaming client; submitted jobs
// produce output byte-identical to the batch CLI, with repeat queries
// answered from the memory tier:
//
//	rebase serve -addr 127.0.0.1:8344 -workers 2
//	rebase submit -exp fig1 -step 3
//	rebase submit -status
//
// rebase -selftest runs the conformance suite instead of an experiment:
// golden-corpus verification, the differential battery over the synthetic
// suite, and the metamorphic simulator checks. Any positional arguments are
// validated as user-supplied trace files (CVP-1 or ChampSim, optionally
// gzipped). It reads only -step, -parallel and -q; any other flag exits 1:
//
//	rebase -selftest
//	rebase -selftest -step 10          # every 10th trace, for quick runs
//	rebase -selftest my_trace.cvp.gz
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"tracerebase/internal/conformance"
	"tracerebase/internal/experiments"
	"tracerebase/internal/expstore"
	"tracerebase/internal/report"
	"tracerebase/internal/resultcache"
	"tracerebase/internal/synth"
	"tracerebase/internal/tracestore"
)

func main() {
	// Subcommands precede the flag-driven batch mode: `rebase serve` runs
	// the sweep daemon, `rebase submit` is its client. Everything else is
	// the classic batch CLI.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			os.Exit(runServe(os.Args[2:]))
		case "submit":
			os.Exit(runSubmit(os.Args[2:]))
		case "query":
			os.Exit(runQuery(os.Args[2:]))
		}
	}
	os.Exit(run())
}

func run() (code int) {
	spec := requestFlags(flag.CommandLine)
	var (
		parallel   = flag.Int("parallel", 0, "concurrent simulations (0 = NumCPU)")
		quiet      = flag.Bool("q", false, "suppress progress output")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		benchJSON  = flag.String("bench-json", "", "write run timing and configuration as JSON to this file")
		selftest   = flag.Bool("selftest", false, "run the conformance suite (positional args: trace files to validate)")
		noCache    = flag.Bool("no-cache", false, "disable the result cache, which serves repeated (trace, variant, config) simulations")
		cacheDir   = flag.String("cache-dir", "", "result cache directory (default $TRACEREBASE_CACHE_DIR or the user cache dir, e.g. ~/.cache/tracerebase)")

		noTraceStore  = flag.Bool("no-trace-store", false, "disable the compiled-trace slab store, which serves converted traces (zero-copy mmap, shared across runs and processes)")
		traceStoreDir = flag.String("trace-store-dir", "", "compiled-trace store directory (default <cache dir>/slabs)")

		noExpStore  = flag.Bool("no-exp-store", false, "disable the experiment store, which records sweep result cells (queryable with `rebase query`)")
		expStoreDir = flag.String("exp-store-dir", "", "experiment store directory (default <cache dir>/exp)")

		cores      = flag.Int("cores", 1, "simulate N lockstep cores over a shared LLC (requires -coschedule)")
		coschedule = flag.String("coschedule", "", "comma-separated co-schedule scenarios to run on -cores cores: "+strings.Join(synth.CoScheduleSpecs(), ", "))
		llcPolicy  = flag.String("llc-policy", "", "shared-LLC replacement policy for -coschedule runs (e.g. shared-srrip; default: the model's LLC policy)")
		memBW      = flag.Uint64("mem-bandwidth", 0, "LLC<->DRAM port occupancy in cycles per access for -coschedule runs (0 = unlimited)")
	)
	flag.Parse()

	// A flag the chosen mode never reads is a mistake, not a no-op.
	set := map[string]bool{}
	notSelftest := "" // first set flag the conformance suite does not read
	flag.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		switch f.Name {
		case "selftest", "step", "parallel", "q":
		default:
			if notSelftest == "" {
				notSelftest = f.Name
			}
		}
	})
	if *selftest && notSelftest != "" {
		return fail("-%s does not apply to -selftest (it reads -step, -parallel, -q and trace files)", notSelftest)
	}

	// Reject nonsensical run shapes before any work starts.
	if err := spec.ValidateFlags(); err != nil {
		return fail("%v", err)
	}
	if *parallel < 0 {
		return fail("-parallel must be >= 0 (got %d)", *parallel)
	}
	if *cores < 1 {
		return fail("-cores must be >= 1 (got %d)", *cores)
	}
	if *coschedule != "" {
		if *cores < 2 {
			return fail("-coschedule needs -cores >= 2 (got %d): co-scheduled scenarios only exist with neighbors", *cores)
		}
		if spec.Sample {
			return fail("-sample is single-core only; multi-core co-schedules run in exact mode")
		}
	} else {
		if *cores > 1 {
			return fail("-cores %d without -coschedule: single-core experiments ignore extra cores", *cores)
		}
		if *llcPolicy != "" || *memBW > 0 {
			return fail("-llc-policy/-mem-bandwidth only apply to -coschedule runs")
		}
	}
	for _, name := range []string{"sample-period", "sample-detail", "sample-warm"} {
		if set[name] && !spec.Sample {
			return fail("-%s needs -sample", name)
		}
	}
	for _, name := range []string{"exp", "step"} {
		if set[name] && *coschedule != "" {
			return fail("-%s does not apply to -coschedule runs", name)
		}
	}

	if *selftest {
		log := io.Writer(os.Stderr)
		if *quiet {
			log = nil
		}
		err := conformance.SelfTest(conformance.SelfTestConfig{
			Suite:       report.Subsample(synth.PublicSuite(), spec.Step),
			Parallelism: *parallel,
			TraceFiles:  flag.Args(),
			Log:         log,
		})
		if err != nil {
			return fail("selftest: %v", err)
		}
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		// Written at exit so the profile covers the whole run; a failure
		// here must still flip the exit code.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				code = fail("memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				code = fail("memprofile: %v", err)
			}
		}()
	}

	cfg := spec.SweepConfig(experiments.SweepConfig{Parallelism: *parallel})
	// The slab store is independent of the result cache: -no-cache runs
	// (which recompute every simulation) still skip generation and
	// conversion when warm slabs exist. The experiment store records
	// single-core cells only.
	defer openStores(&cfg, storeConfig{
		cacheDir: *cacheDir,
		slabDir:  *traceStoreDir,
		expDir:   *expStoreDir,
		noSlabs:  *noTraceStore,
		noExp:    *noExpStore || *coschedule != "",
	}, os.Stderr)()
	var expMisses int
	if cfg.Exp != nil {
		cfg.ExpMisses = func(n int) { expMisses += n }
	}
	if *coschedule != "" {
		cfg.Cores = *cores
		cfg.LLCPolicy = *llcPolicy
		cfg.MemBandwidth = *memBW
		if !*noCache {
			mc, err := experiments.OpenMultiCache(*cacheDir, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rebase: cache disabled: %v\n", err)
			} else {
				cfg.MultiCache = mc
			}
		}
		return runCoSchedules(strings.Split(*coschedule, ","), cfg, *spec, *quiet, *benchJSON)
	}
	if !*noCache {
		cache, err := experiments.OpenResultCache(*cacheDir, 0)
		if err != nil {
			// A broken cache must never block the run; fall back to the
			// uncached engine.
			fmt.Fprintf(os.Stderr, "rebase: cache disabled: %v\n", err)
		} else {
			cfg.Cache = cache
		}
	}
	if !*quiet {
		cfg.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%3d/%3d traces", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	// The experiment composition itself lives in internal/report so the
	// serve daemon renders byte-identical output for the same request.
	out := report.Output{Text: os.Stdout}
	if !*quiet {
		out.Log = os.Stderr
	}
	start := time.Now()
	tel, err := report.Run(cfg, *spec, out)
	if err != nil {
		return fail("%v", err)
	}
	skipCats, sampleCats := tel.Skip, tel.Sample
	elapsed := time.Since(start)
	if cfg.Exp != nil {
		// Flush pending cells so the trailer and -bench-json report what
		// this run actually persisted (Close would flush them anyway).
		if err := cfg.Exp.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "rebase: experiment store flush: %v\n", err)
		}
	}
	if !*quiet {
		if len(skipCats) > 0 {
			parts := make([]string, 0, len(skipCats))
			for _, s := range skipCats {
				parts = append(parts, fmt.Sprintf("%s %.1f%%", s.Category, 100*s.Fraction))
			}
			fmt.Fprintf(os.Stderr, "skip: cycles jumped per category: %s\n", strings.Join(parts, ", "))
		}
		if len(sampleCats) > 0 {
			parts := make([]string, 0, len(sampleCats))
			for _, s := range sampleCats {
				parts = append(parts, fmt.Sprintf("%s %.3f ±%.3f", s.Category, s.MeanIPC, s.MeanCI95))
			}
			fmt.Fprintf(os.Stderr, "sample: interval IPC ±95%% CI per category: %s\n", strings.Join(parts, ", "))
		}
		printStoreStats(cfg, expMisses)
		fmt.Fprintf(os.Stderr, "total: %.1fs\n", elapsed.Seconds())
	}
	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, *spec, cfg, elapsed, skipCats, sampleCats, nil); err != nil {
			return fail("bench-json: %v", err)
		}
	}
	return 0
}

// benchRecord is the schema of -bench-json output: enough context to make
// a recorded wall-clock comparable across machines and configurations.
type benchRecord struct {
	Experiment   string             `json:"experiment"`
	Step         int                `json:"step"`
	Instructions int                `json:"instructions"`
	Warmup       uint64             `json:"warmup"`
	Parallelism  int                `json:"parallelism"`
	NumCPU       int                `json:"num_cpu"`
	GOOS         string             `json:"goos"`
	GOARCH       string             `json:"goarch"`
	GoVersion    string             `json:"go_version"`
	NoSkip       bool               `json:"no_skip"`
	WallSeconds  float64            `json:"wall_seconds"`
	MaxRSSBytes  int64              `json:"max_rss_bytes"` // peak RSS so far (getrusage); 0 where unavailable
	Timestamp    string             `json:"timestamp"`
	Cache        *resultcache.Stats `json:"cache,omitempty"`
	// CacheTiers breaks the result-cache backend down per tier (memory,
	// disk, remote) with hit/miss/latency/byte counters.
	CacheTiers []resultcache.BackendStats `json:"cache_tiers,omitempty"`
	// Skip carries per-category cycle-skipping fractions when the run
	// included the figure sweep.
	Skip []report.SkipStat `json:"skip,omitempty"`
	// Sample carries the sampling configuration and per-category interval
	// statistics when the run used -sample.
	Sample *benchSampleBlock `json:"sample,omitempty"`
	// Multi carries per-core cycle-skipping fractions for -coschedule runs.
	Multi *benchMultiBlock `json:"multi,omitempty"`
	// TraceStore records compiled-trace slab store activity: a warm store
	// shows disk hits and zero converts.
	TraceStore *tracestore.Stats `json:"trace_store,omitempty"`
	// ExpStore records experiment-store activity: a warm run
	// shows every cell a lookup hit, nothing offered and nothing written.
	ExpStore *expstore.Stats `json:"exp_store,omitempty"`
}

// benchSampleBlock groups the sampling parameters with the per-category
// interval statistics of the figure sweep.
type benchSampleBlock struct {
	Period     uint64              `json:"period"`
	Detail     uint64              `json:"detail"`
	Warm       uint64              `json:"warm"`
	Categories []report.SampleStat `json:"categories,omitempty"`
}

func writeBenchJSON(path string, req report.Spec, cfg experiments.SweepConfig, elapsed time.Duration, skipCats []report.SkipStat, sampleCats []report.SampleStat, multi *benchMultiBlock) error {
	parallelism := cfg.Parallelism
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	rec := benchRecord{
		Experiment:   req.Exp,
		Step:         req.Step,
		Instructions: cfg.Instructions,
		Warmup:       cfg.Warmup,
		Parallelism:  parallelism,
		NumCPU:       runtime.NumCPU(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		GoVersion:    runtime.Version(),
		NoSkip:       cfg.NoSkip,
		WallSeconds:  elapsed.Seconds(),
		MaxRSSBytes:  maxRSSBytes(),
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
		Skip:         skipCats,
		Multi:        multi,
	}
	if cfg.MultiCache != nil {
		s := cfg.MultiCache.Stats()
		rec.Cache = &s
	}
	if cfg.Cache != nil {
		s := cfg.Cache.Stats()
		rec.Cache = &s
		rec.CacheTiers = cfg.Cache.TierStats()
	}
	if cfg.Slabs != nil {
		s := cfg.Slabs.Stats()
		rec.TraceStore = &s
	}
	if cfg.Exp != nil {
		s := cfg.Exp.Stats()
		rec.ExpStore = &s
	}
	if cfg.SamplePeriod > 0 {
		rec.Sample = &benchSampleBlock{
			Period:     cfg.SamplePeriod,
			Detail:     cfg.SampleDetail,
			Warm:       cfg.SampleWarm,
			Categories: sampleCats,
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "rebase: "+format+"\n", args...)
	return 1
}
