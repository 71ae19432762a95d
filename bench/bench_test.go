package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// smoke is a tiny run shape: one figure over every 27th public trace.
var smoke = runConfig{
	Exp: "fig1", Step: 27, Instructions: 20000, Warmup: 5000,
	MD5:   "8d22879a6122e0b8c5356acfef62575d",
	Cells: 50,
	Jobs:  []string{"fig1", "fig3"},
}

// TestSmoke runs every workload tiny, end to end and traced: one measured
// invocation per CLI workload and 200 service requests. Every output is
// checked as in a real run, and every catalogue metric must be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/rebase")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	h, err := newHarness(context.Background(), root, t.TempDir(), smoke, 7, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	h.maxOps, h.maxRequests = 1, 200
	if err := h.buildRebase(); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		check := func(kind string, res result, defs []metricDef) {
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d", name, kind, res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s %s: metric %s missing or not in %s: %+v", name, kind, d.Name, d.Unit, m)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s %s: %d metrics, want %d", name, kind, len(res.Metrics), len(defs))
			}
		}
		res := h.endToEnd(name)
		check("end to end", res, endToEndMetrics)
		for _, d := range endToEndMetrics {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, d.Name, res.Metrics[d.Name].Value)
			}
		}
		check("traced", h.traced(name), perLayerMetrics)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics
// the harness reports in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, workloadNames)
	}
	if !slices.Equal(spec.EndToEnd, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness %v", spec.EndToEnd, endToEndMetrics)
	}
	if !slices.Equal(spec.PerLayer, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, harness %v", spec.PerLayer, perLayerMetrics)
	}
}
