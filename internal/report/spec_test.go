package report

import (
	"strings"
	"testing"

	"tracerebase/internal/experiments"
)

// TestSpecValidate covers every rejection of a run request, as both front
// ends read it: ValidateFlags takes the spec as the CLI parsed it and
// names flags; Validate first gives absent or zero fields their defaults,
// as the daemon does, and names POST /jobs fields. An empty want accepts.
func TestSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		name     string
		edit     func(*Spec)
		flagErr  string
		fieldErr string
	}{
		{name: "defaults", edit: func(*Spec) {}},
		{name: "no experiments", edit: func(s *Spec) { s.Exp = "" }},
		{name: "experiment list with blanks", edit: func(s *Spec) { s.Exp = " fig1 , table2,ablation,char" }},
		{name: "unknown experiment", edit: func(s *Spec) { s.Exp = "fig1,tabel2" },
			flagErr: `-exp: unknown experiment "tabel2"`, fieldErr: `exp: unknown experiment "tabel2"`},
		{name: "empty list entry", edit: func(s *Spec) { s.Exp = "table3," },
			flagErr: `-exp: unknown experiment ""`, fieldErr: `exp: unknown experiment ""`},
		{name: "zero instructions", edit: func(s *Spec) { s.Instructions = 0 },
			flagErr: "-instructions must be positive (got 0)"},
		{name: "negative instructions", edit: func(s *Spec) { s.Instructions = -5 },
			flagErr: "-instructions must be positive (got -5)", fieldErr: "instructions must be positive (got -5)"},
		{name: "warmup equals instructions", edit: func(s *Spec) { s.Instructions, s.Warmup = 100, 100 },
			flagErr:  "-warmup 100 >= -instructions 100 leaves an empty measurement region",
			fieldErr: "warmup 100 >= instructions 100 leaves an empty measurement region"},
		{name: "warmup beyond default instructions", edit: func(s *Spec) { s.Instructions, s.Warmup = 0, 150000 },
			flagErr: "-instructions must be positive", fieldErr: "warmup 150000 >= instructions 150000"},
		{name: "zero warmup", edit: func(s *Spec) { s.Warmup = 0 }},
		{name: "zero step", edit: func(s *Spec) { s.Step = 0 }, flagErr: "-step must be >= 1 (got 0)"},
		{name: "negative step", edit: func(s *Spec) { s.Step = -1 },
			flagErr: "-step must be >= 1 (got -1)", fieldErr: "step must be >= 1 (got -1)"},
		{name: "sampled", edit: func(s *Spec) { s.Sample = true }},
		{name: "sampled, warming whole gaps", edit: func(s *Spec) { s.Sample, s.SampleWarm = true, 0 }},
		{name: "sampled, zero period", edit: func(s *Spec) { s.Sample, s.SamplePeriod = true, 0 },
			flagErr: "-sample-period must be positive"},
		{name: "sampled, zero detail", edit: func(s *Spec) { s.Sample, s.SampleDetail = true, 0 },
			flagErr: "-sample-detail 0 must be positive and below -sample-period 12500"},
		{name: "sampled, detail equals period", edit: func(s *Spec) { s.Sample, s.SamplePeriod, s.SampleDetail = true, 100, 100 },
			flagErr:  "-sample-detail 100 must be positive and below -sample-period 100",
			fieldErr: "sample_detail 100 must be positive and below sample_period 100"},
		{name: "sampled, period below default detail", edit: func(s *Spec) { s.Sample, s.SamplePeriod, s.SampleDetail = true, 1000, 0 },
			flagErr:  "-sample-detail 0 must be positive",
			fieldErr: "sample_detail 2500 must be positive and below sample_period 1000"},
		{name: "unsampled geometry is ignored", edit: func(s *Spec) { s.SamplePeriod, s.SampleDetail = 100, 100 }},
	} {
		spec := Defaults()
		tc.edit(&spec)
		check := func(front string, err error, want string) {
			switch {
			case want == "" && err != nil:
				t.Errorf("%s: %s rejected %+v: %v", tc.name, front, spec, err)
			case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
				t.Errorf("%s: %s error %v, want one naming %q", tc.name, front, err, want)
			}
		}
		check("ValidateFlags", spec.ValidateFlags(), tc.flagErr)
		daemon := spec
		check("Validate", daemon.Validate(), tc.fieldErr)
	}
}

// TestSpecNormalize: the daemon reads an empty request as the CLI's
// defaults, and an unsampled request without its geometry.
func TestSpecNormalize(t *testing.T) {
	var s Spec
	s.Normalize()
	want := Defaults()
	want.SamplePeriod, want.SampleDetail, want.SampleWarm = 0, 0, 0
	if s != want {
		t.Fatalf("empty request normalizes to %+v, want %+v", s, want)
	}
	s = Spec{Exp: " fig1 , table2", Sample: true}
	s.Normalize()
	d := Defaults()
	if s.Exp != "fig1,table2" || s.SamplePeriod != d.SamplePeriod || s.SampleDetail != d.SampleDetail || s.SampleWarm != d.SampleWarm {
		t.Fatalf("sampled request normalizes to %+v", s)
	}
}

// TestSpecSweepConfig: the request sets the engine's budgets and sampling
// and leaves the front end's own fields alone; an unsampled request runs
// exact whatever its geometry.
func TestSpecSweepConfig(t *testing.T) {
	base := experiments.SweepConfig{Parallelism: 3, Cores: 2, SamplePeriod: 7}
	spec := Spec{Instructions: 4000, Warmup: 1000, NoSkip: true, SamplePeriod: 500, SampleDetail: 100, SampleWarm: 50}
	cfg := spec.SweepConfig(base)
	if cfg.Parallelism != 3 || cfg.Cores != 2 || cfg.Instructions != 4000 || cfg.Warmup != 1000 || !cfg.NoSkip ||
		cfg.SamplePeriod != 0 || cfg.SampleDetail != 0 || cfg.SampleWarm != 0 {
		t.Fatalf("unsampled mapping: %+v", cfg)
	}
	spec.Sample = true
	cfg = spec.SweepConfig(base)
	if cfg.SamplePeriod != 500 || cfg.SampleDetail != 100 || cfg.SampleWarm != 50 {
		t.Fatalf("sampled mapping: %+v", cfg)
	}
}
