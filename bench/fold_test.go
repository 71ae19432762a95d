package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/cvp"
	"tracerebase/internal/experiments"
	"tracerebase/internal/sim"
	"tracerebase/internal/synth"
)

func TestFunctionNameParsing(t *testing.T) {
	for _, c := range []struct{ fn, pkg, base string }{
		{"tracerebase/internal/sim/cpu.(*Pipeline).issue", "sim/cpu", "issue"},
		{"tracerebase/internal/sim/cpu.(*Pipeline).Run.func1", "sim/cpu", "Run"},
		{"tracerebase/internal/sim/cpu.nextPow2", "sim/cpu", "nextPow2"},
		{"tracerebase/internal/sim/cpu.Config.Identity", "sim/cpu", "Identity"},
		{"tracerebase/internal/sim/cpu.Config.Identity.func1", "sim/cpu", "Identity"},
		{"tracerebase/internal/sim/cpu.init.0", "sim/cpu", "init"},
		{"tracerebase/internal/sim/cpu.glob..func1", "sim/cpu", "glob"},
		{"tracerebase/internal/resultcache.Codec[go.shape.struct { IPC float64 }].Encode", "resultcache", "Encode"},
		{"tracerebase/internal/resultcache.(*Cache[go.shape.struct { IPC float64; x/y.T }]).GetOrCompute", "resultcache", "GetOrCompute"},
		{"tracerebase/internal/experiments.RunSweep.func2.1", "experiments", "RunSweep"},
	} {
		pkg, rest, ok := internalPackage(c.fn)
		if !ok || pkg != c.pkg || funcBase(rest) != c.base {
			t.Errorf("%s: package %q, base %q, ok %v; want %q, %q", c.fn, pkg, funcBase(rest), ok, c.pkg, c.base)
		}
	}
	if _, _, ok := internalPackage("runtime.mallocgc"); ok {
		t.Error("runtime.mallocgc parsed as an internal package")
	}
}

func TestLayerOfSkipsHelperPackages(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "tracerebase/internal/champtrace.(*ValuesSource).NextBatch", "tracerebase/internal/sim/cpu.(*Pipeline).fetch"}, "sim"},
		{[]string{"tracerebase/internal/frame.Write", "tracerebase/internal/expstore.(*Store).Flush"}, "expstore"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"syscall.Syscall", "tracerebase/internal/tracestore.(*Store).persist", "tracerebase/internal/experiments.RunSweep"}, "tracestore"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestCPUStagesCoverSimulator parses the simulator's source: every package
// under internal/sim must have a stage, and every function of sim/cpu must
// be named in cpuStages, so a profile sample in the simulator always lands
// in a named stage.
func TestCPUStagesCoverSimulator(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	simDir := filepath.Join(root, "internal", "sim")
	err = filepath.WalkDir(simDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(filepath.Join(root, "internal"), path)
		pkg := filepath.ToSlash(rel)
		if pkg != "sim/cpu" {
			if _, ok := simPackageStages[pkg]; !ok {
				t.Errorf("package internal/%s has no stage in simPackageStages", pkg)
			}
			return nil
		}
		pkgs, err := parser.ParseDir(token.NewFileSet(), path, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			return err
		}
		for _, p := range pkgs {
			for _, f := range p.Files {
				for _, decl := range f.Decls {
					if fn, ok := decl.(*ast.FuncDecl); ok {
						if _, ok := cpuStages[fn.Name.Name]; !ok {
							t.Errorf("sim/cpu function %s has no stage in cpuStages", fn.Name.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStagesAreReported checks that every stage the tables map simulator
// code to is one the traced run reports a share for.
func TestStagesAreReported(t *testing.T) {
	reported := func(st string) bool { return slices.Contains(simStages, st) }
	for pkg, st := range simPackageStages {
		if !reported(st) {
			t.Errorf("package %s maps to stage %q, which is not in simStages", pkg, st)
		}
	}
	for fn, st := range cpuStages {
		if st != "" && !reported(st) {
			t.Errorf("sim/cpu function %s maps to stage %q, which is not in simStages", fn, st)
		}
	}
}

// TestUnmappedSimulatorShare profiles the simulator on a real converted
// trace and checks that under 5% of its CPU falls outside a named stage.
func TestUnmappedSimulatorShare(t *testing.T) {
	p := synth.PublicSuite()[72]
	instrs, err := p.GenerateBatch(40000)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := core.ConvertAllBatch(cvp.NewValuesSource(instrs), core.OptionsAll())
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.DevelopConfigFor(core.OptionsAll())

	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < time.Second; {
		if _, err := sim.Run(champtrace.NewValuesSource(recs), cfg, 10000, 0); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	f := foldSamples(samples)
	simCPU := f.Layers["sim"]
	if simCPU < 0.2 {
		t.Fatalf("only %.2fs of simulator CPU in a 1s profile (layers %v)", simCPU, f.Layers)
	}
	if share := f.Stages["unmapped"] / simCPU; share >= 0.05 {
		t.Errorf("%.1f%% of simulator CPU is in no named stage (stages %v)", 100*share, f.Stages)
	}
	for _, st := range []string{"issue", "mem", "bpred"} {
		if f.Stages[st] == 0 {
			t.Errorf("stage %s got no samples (stages %v)", st, f.Stages)
		}
	}
}
