package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict is the outcome of comparing one (metric, workload) pair.
type verdict struct {
	Parent, Change float64 // medians
	Wins, Pairs    int
	Verdict        string
}

// side is one commit's runs of one workload: a metric's values in run
// order, and the checks those runs failed.
type side struct {
	values []float64
	// failed is the operations that failed their checks, summed over the
	// runs; incorrect is the runs that reported correct=false.
	failed, incorrect int
}

// judge compares the runs of a parent commit and a change on one metric.
// A change with a run that failed its checks, or with more failed
// operations than the parent, is "failed": its timings may come from work
// it skipped. A gain needs at least ten pairs, the change winning at least
// nine in ten of them (ties count for neither side), and medians further
// apart than the parent's inter-quartile range. Otherwise the change
// regresses when its median is worse than the parent's by more than bound.
// A change that loses by the gain rule's own standard is "slower" even
// within the bound, so a resolved slowdown is never reported as no
// regression. When the parent's own spread is wider than bound the result
// is unresolved, unless every change run is better than every parent run.
func judge(parent, change side, lowerBetter bool, bound float64) verdict {
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	p, c := parent.values, change.values
	pairs := min(len(p), len(c))
	v := verdict{Parent: median(p), Change: median(c), Pairs: pairs}
	losses := 0
	for i := 0; i < pairs; i++ {
		if better(c[i], p[i]) {
			v.Wins++
		}
		if better(p[i], c[i]) {
			losses++
		}
	}
	q1, q3 := quartiles(p)
	resolved := pairs >= 10 && math.Abs(v.Change-v.Parent) > q3-q1
	worse := (v.Change - v.Parent) / v.Parent
	if !lowerBetter {
		worse = -worse
	}
	allBetter := true
	for _, cv := range c {
		for _, pv := range p {
			allBetter = allBetter && better(cv, pv)
		}
	}
	switch {
	case change.incorrect > 0 || change.failed > parent.failed:
		v.Verdict = "failed"
	case resolved && 10*v.Wins >= 9*pairs && better(v.Change, v.Parent):
		v.Verdict = "gain"
	case worse > bound:
		v.Verdict = "regression"
	case resolved && 10*losses >= 9*pairs && better(v.Parent, v.Change):
		v.Verdict = "slower"
	case (q3-q1)/v.Parent > bound && !allBetter:
		v.Verdict = "unresolved"
	default:
		v.Verdict = "no regression"
	}
	return v
}

// runCompare is `bench compare parent.jsonl change.jsonl`: both files hold
// the -out lines of alternating runs of the two commits. It prints one row
// per workload with every end-to-end metric's verdict, and exits 1 when
// any metric regressed or the change failed a check.
func runCompare(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("benchmark", "", "BENCHMARK.json with the bounds (default: the one at the repository root)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-benchmark BENCHMARK.json] parent.jsonl change.jsonl")
		return 2
	}
	if *specPath == "" {
		root, err := findRoot()
		if err != nil {
			return fail("%v", err)
		}
		*specPath = filepath.Join(root, "BENCHMARK.json")
	}
	var spec benchmarkSpec
	data, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		return fail("reading %s: %v", *specPath, err)
	}
	parent, err := readRuns(fs.Arg(0))
	if err != nil {
		return fail("%v", err)
	}
	change, err := readRuns(fs.Arg(1))
	if err != nil {
		return fail("%v", err)
	}

	code := 0
	for _, wl := range sortedKeys(parent) {
		var cells []string
		for _, def := range spec.EndToEnd {
			p, c := parent[wl].side(def.Name), change[wl].side(def.Name)
			// A run that failed its checks may report no metrics at all; it
			// is still judged, as failed.
			if (len(p.values) < 2 || len(c.values) < 1) && c.incorrect == 0 {
				cells = append(cells, fmt.Sprintf("%s: too few runs", def.Name))
				continue
			}
			v := judge(p, c, def.Better == "lower", def.Bound)
			if v.Verdict == "regression" || v.Verdict == "failed" {
				code = 1
			}
			cells = append(cells, fmt.Sprintf("%s %.4g→%.4g %s (%+.1f%%, %d/%d wins) %s",
				def.Name, v.Parent, v.Change, def.Unit, 100*(v.Change/v.Parent-1), v.Wins, v.Pairs, v.Verdict))
		}
		fmt.Fprintf(w, "%-13s %s\n", wl, strings.Join(cells, " | "))
	}
	return code
}

// workloadRuns is every end-to-end run of one workload in an -out file.
type workloadRuns struct {
	values            map[string][]float64 // metric → one value per run, in run order
	failed, incorrect int
}

func (w *workloadRuns) side(metric string) side {
	if w == nil {
		return side{}
	}
	return side{values: w.values[metric], failed: w.failed, incorrect: w.incorrect}
}

// readRuns loads the end-to-end runs of an -out file, keyed by workload.
func readRuns(path string) (map[string]*workloadRuns, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]*workloadRuns{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var l labeled
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if l.Trace != 0 {
			continue
		}
		w := out[l.Workload]
		if w == nil {
			w = &workloadRuns{values: map[string][]float64{}}
			out[l.Workload] = w
		}
		w.failed += l.Result.Failed
		if !l.Result.Correct {
			w.incorrect++
		}
		for name, m := range l.Result.Metrics {
			w.values[name] = append(w.values[name], m.Value)
		}
	}
	return out, sc.Err()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
