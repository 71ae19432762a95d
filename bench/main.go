// Command bench is the repository's benchmark. It builds cmd/rebase from
// the tree under test, runs one or all of four workloads against that
// binary with tracing off and checks every output, then makes an
// in-process traced pass that attributes the time to the program's layers:
//
//	bash bench/run.sh --workload cold_all --seed 1 --seconds 15 --trace 0
//	go -C bench run . -seed 1                       # every workload, e2e then traced
//	go -C bench run . compare parent.jsonl change.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md lists the workloads
// and metrics and says why each was chosen.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workloadNames lists the workloads in the order a full run executes them.
var workloadNames = []string{"cold_all", "slabwarm_all", "warm_all", "service_mix"}

// minFreeBytes is the free space a run needs: two cold cache dirs of the
// reference configuration (about 0.85 GB each, nearly all slabs), the
// build cache, and room to spare so a full disk never shows up as a
// program failure.
const minFreeBytes = 4 << 30

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "all", "workload: "+strings.Join(workloadNames, ", ")+", or all")
		seed     = fs.Uint64("seed", 1, "seed for the service request order, the metric each service query aggregates and the microbenchmark cells")
		seconds  = fs.Float64("seconds", 15, "seconds each workload measures for")
		trace    = fs.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: the traced pass and per-layer metrics; -1: both")
		out      = fs.String("out", "", "append every result as one JSON line to this file (the input of `compare`)")
		rootFlag = fs.String("root", "", "repository root (default: the nearest directory upwards holding the tracerebase go.mod)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			return fail("unknown workload %q (have %s)", *workload, strings.Join(workloadNames, ", "))
		}
		names = []string{*workload}
	}
	if *trace < -1 || *trace > 1 {
		return fail("-trace must be 0, 1 or -1 (got %d)", *trace)
	}
	if *seconds <= 0 {
		return fail("-seconds must be positive")
	}
	root := *rootFlag
	if root == "" {
		var err error
		if root, err = findRoot(); err != nil {
			return fail("%v", err)
		}
	}

	env := describeEnv(root)
	fmt.Fprintf(os.Stderr, "bench: nproc=%d go=%s rev=%s free=%.1fGB\n", env.NumCPU, env.GoVersion, env.Revision, float64(env.FreeBytes)/1e9)
	if env.FreeBytes < minFreeBytes {
		return fail("only %.1f GB free under %s; a run needs %.0f GB", float64(env.FreeBytes)/1e9, root, float64(minFreeBytes)/1e9)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := newHarness(ctx, root, filepath.Join(root, ".bench_build"), reference, *seed, *seconds)
	if err != nil {
		return fail("%v", err)
	}
	defer h.close()
	h.warmups = true
	go h.abortOn(cancel, syscall.SIGINT, syscall.SIGTERM)
	if err := h.buildRebase(); err != nil {
		return fail("%v", err)
	}

	passes := []int{*trace}
	if *trace == -1 {
		passes = []int{0, 1}
	}
	var results []labeled
	for _, tr := range passes {
		for _, name := range names {
			var res result
			if tr == 0 {
				res = h.endToEnd(name)
			} else {
				res = h.traced(name)
			}
			res.print(os.Stderr, name)
			results = append(results, labeled{Workload: name, Seed: *seed, Trace: tr, Env: env, Result: res})
		}
	}
	if *out != "" {
		if err := appendResults(*out, results); err != nil {
			return fail("%v", err)
		}
	}

	final := results[0].Result
	if len(results) > 1 {
		for _, r := range results {
			line, _ := json.Marshal(r)
			fmt.Println(string(line))
		}
		final = merge(results)
	}
	line, err := json.Marshal(final)
	if err != nil {
		return fail("%v", err)
	}
	fmt.Println(string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	return 1
}

// findRoot walks up from the working directory to the directory whose
// go.mod declares module tracerebase.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module tracerebase\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no tracerebase module root above the working directory")
		}
		dir = parent
	}
}

// env records what a result was measured on.
type env struct {
	NumCPU    int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision"`
	FreeBytes uint64 `json:"free_bytes"`
}

func describeEnv(root string) env {
	e := env{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Revision: gitRevision(root)}
	var st syscall.Statfs_t
	if err := syscall.Statfs(root, &st); err == nil {
		e.FreeBytes = st.Bavail * uint64(st.Bsize)
	}
	return e
}

// gitRevision resolves .git/HEAD without running git; a checkout that is
// not a git repository reports "unknown".
func gitRevision(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if rev, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(rev))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return "unknown"
}

// runConfig is one rebase run shape and the outputs it must produce.
type runConfig struct {
	// Exp, Step, Instructions and Warmup are the rebase flags of every
	// invocation.
	Exp          string
	Step         int
	Instructions int
	Warmup       uint64
	// MD5 is the pinned md5 of the invocation's standard output.
	MD5 string
	// Cells is the number of cells the experiment store holds after one
	// run: one row per simulated (trace, variant, model) cell.
	Cells int
	// Jobs are the experiment lists the service workload submits.
	Jobs []string
}

// reference is the configuration every workload runs: every experiment
// over every 17th trace of each suite at rebase's default 150k instructions
// with 50k of warm-up, so each cell costs what it costs in a paper
// regeneration. Step 17 is the largest step that keeps all four trace
// categories of the public suite (eight traces); it keeps three IPC-1
// traces, and a cold regeneration takes about ten seconds on 2 vCPUs.
var reference = runConfig{
	Exp: "all", Step: 17, Instructions: 150000, Warmup: 50000,
	MD5:   "aad45dfed1f28be79cc2f54f3c43ea4e",
	Cells: 140,
	Jobs:  []string{"all", "fig1", "fig3", "table2", "table3"},
}

func (c runConfig) args(exp, dir string, parallel int) []string {
	return []string{
		"-exp", exp, "-step", strconv.Itoa(c.Step),
		"-instructions", strconv.Itoa(c.Instructions), "-warmup", strconv.FormatUint(c.Warmup, 10),
		"-q", "-parallel", strconv.Itoa(parallel), "-cache-dir", dir,
	}
}

// harness owns the binary under test, the scratch directory and every
// process the benchmark starts.
type harness struct {
	ctx     context.Context
	root    string
	build   string // binaries, spans and the scratch directory
	bin     string // rebase binary under test
	work    string // scratch directory, removed by close
	cfg     runConfig
	seed    uint64
	seconds float64
	// maxOps caps the measured invocations and passes of a workload and
	// maxRequests the requests of a service load phase (0 = no cap);
	// warmups enables the discarded warm-up operations. The smoke test
	// sets all three to run every workload in a few seconds.
	maxOps      int
	maxRequests int
	warmups     bool
	nproc       int

	mu       sync.Mutex
	children map[*child]struct{}
	dirs     int
}

// newHarness prepares a run of cfg against the tree at root, keeping the
// binary under test and a scratch directory in build.
func newHarness(ctx context.Context, root, build string, cfg runConfig, seed uint64, seconds float64) (*harness, error) {
	removeStaleRuns(build)
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(build, fmt.Sprintf("run-%d-", os.Getpid()))
	if err != nil {
		return nil, err
	}
	return &harness{
		ctx: ctx, root: root, build: build, work: work, cfg: cfg, seed: seed, seconds: seconds,
		bin:      filepath.Join(build, "rebase"),
		nproc:    runtime.NumCPU(),
		children: make(map[*child]struct{}),
	}, nil
}

// removeStaleRuns deletes scratch directories left by runs that were
// killed before they could clean up: those whose process no longer exists.
func removeStaleRuns(build string) {
	dirs, _ := filepath.Glob(filepath.Join(build, "run-*"))
	for _, d := range dirs {
		pid, err := strconv.Atoi(strings.SplitN(strings.TrimPrefix(filepath.Base(d), "run-"), "-", 2)[0])
		if err == nil && pid != os.Getpid() && syscall.Kill(pid, 0) == syscall.ESRCH {
			os.RemoveAll(d)
		}
	}
}

func (h *harness) close() { os.RemoveAll(h.work) }

// abortOn stops every child process, removes the scratch directory and
// exits when one of sigs arrives.
func (h *harness) abortOn(cancel context.CancelFunc, sigs ...os.Signal) {
	c := make(chan os.Signal, 1)
	signal.Notify(c, sigs...)
	sig := <-c
	fmt.Fprintf(os.Stderr, "bench: %v: stopping\n", sig)
	cancel()
	h.mu.Lock()
	children := make([]*child, 0, len(h.children))
	for c := range h.children {
		children = append(children, c)
	}
	h.mu.Unlock()
	for _, c := range children {
		c.cmd.Process.Kill()
		<-c.done
	}
	h.close()
	os.Exit(130)
}

// buildRebase compiles cmd/rebase from the tree under test.
func (h *harness) buildRebase() error {
	cmd := exec.CommandContext(h.ctx, "go", "build", "-o", h.bin, "./cmd/rebase")
	cmd.Dir = h.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building cmd/rebase: %v\n%s", err, out)
	}
	return nil
}

// tempDir returns a fresh directory under the scratch root.
func (h *harness) tempDir(name string) string {
	h.mu.Lock()
	h.dirs++
	dir := filepath.Join(h.work, fmt.Sprintf("%s-%d", name, h.dirs))
	h.mu.Unlock()
	return dir
}

// child is a started process. Only its waiter goroutine calls Wait, so the
// abort path and the normal path can both wait on done.
type child struct {
	cmd  *exec.Cmd
	done chan struct{}
	err  error
}

func (h *harness) start(cmd *exec.Cmd) (*child, error) {
	c := &child{cmd: cmd, done: make(chan struct{})}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ctx.Err() != nil {
		return nil, h.ctx.Err()
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	h.children[c] = struct{}{}
	go func() {
		c.err = cmd.Wait()
		h.mu.Lock()
		delete(h.children, c)
		h.mu.Unlock()
		close(c.done)
	}()
	return c, nil
}

func (c *child) wait() error {
	<-c.done
	return c.err
}

// maxRSSMB is the peak resident set of an ended child, read by wait4.
func (c *child) maxRSSMB() float64 {
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// more reports whether a measurement loop that started at start and has
// completed n operations should run another.
func (h *harness) more(start time.Time, n int) bool {
	if n == 0 {
		return true
	}
	if h.maxOps > 0 && n >= h.maxOps {
		return false
	}
	return time.Since(start).Seconds() < h.seconds
}

// tally counts checked operations and the ones that failed their check.
type tally struct {
	attempted, failed int
}

// record counts one checked operation, printing the first few failures.
func (t *tally) record(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= 5 {
			fmt.Fprintf(os.Stderr, "bench: FAIL: %v\n", err)
		}
	}
	return err == nil
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(t tally, metrics map[string]metric) result {
	return result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

// set records a metric named in defs under its catalogue unit. A value a
// failed measurement left undefined is recorded as 0, so the result still
// prints; the failure itself is already counted.
func set(m map[string]metric, defs []metricDef, name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	for _, d := range defs {
		if d.Name == name {
			m[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in the catalogue")
}

func (r result) print(w io.Writer, workload string) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", workload, r.Correct, r.Attempted, r.Failed)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

// labeled is one result with what produced it: a line of an -out file.
type labeled struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Env      env    `json:"env"`
	Result   result `json:"result"`
}

func appendResults(path string, rs []labeled) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range rs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// merge folds several results into one object whose metric names carry
// their workload: cold_all.p50_ms, and trace.cold_all.sim.cpu_share for
// the traced pass.
func merge(rs []labeled) result {
	out := result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range rs {
		out.Correct = out.Correct && r.Result.Correct
		out.Attempted += r.Result.Attempted
		out.Failed += r.Result.Failed
		prefix := r.Workload + "."
		if r.Trace == 1 {
			prefix = "trace." + prefix
		}
		for n, m := range r.Result.Metrics {
			out.Metrics[prefix+n] = m
		}
	}
	return out
}
