package server

import (
	"fmt"
	"strings"

	"tracerebase/internal/experiments"
	"tracerebase/internal/report"
	"tracerebase/internal/resultcache"
)

// JobSpec is a sweep/table/ablation submission: the request body of
// POST /jobs. Zero values select the batch CLI's defaults (exp=all,
// step=1, instructions=150000, warmup=50000), so {"exp":"fig1"} is a
// complete request. The spec deliberately carries only parameters that
// shape the output bytes — execution knobs (parallelism, cache layout)
// belong to the daemon, keeping one cache key per distinct result.
type JobSpec struct {
	// Exp is the comma-separated experiment list (table1, fig1..fig5,
	// table2, table3, ablation, char, all).
	Exp string `json:"exp,omitempty"`
	// Step uses every step-th trace of each suite.
	Step int `json:"step,omitempty"`
	// Instructions and Warmup are per-trace instruction budgets.
	Instructions int    `json:"instructions,omitempty"`
	Warmup       uint64 `json:"warmup,omitempty"` // 0 selects the 50000 default
	// NoSkip disables event-horizon cycle skipping.
	NoSkip bool `json:"no_skip,omitempty"`
	// JSON selects the JSON document instead of rendered text.
	JSON bool `json:"json,omitempty"`
	// Sample enables SMARTS-style interval sampling with the given
	// geometry (zeros select the CLI defaults: 12500/2500/2500).
	Sample       bool   `json:"sample,omitempty"`
	SamplePeriod uint64 `json:"sample_period,omitempty"`
	SampleDetail uint64 `json:"sample_detail,omitempty"`
	SampleWarm   uint64 `json:"sample_warm,omitempty"`
}

// normalize fills defaults in place and canonicalizes Exp so equivalent
// submissions share one cache key.
func (s *JobSpec) normalize() {
	if s.Exp == "" {
		s.Exp = "all"
	}
	parts := strings.Split(s.Exp, ",")
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
	}
	s.Exp = strings.Join(parts, ",")
	if s.Step == 0 {
		s.Step = 1
	}
	if s.Instructions == 0 {
		s.Instructions = 150000
	}
	if s.Warmup == 0 {
		s.Warmup = 50000
	}
	if s.Sample {
		if s.SamplePeriod == 0 {
			s.SamplePeriod = 12500
		}
		if s.SampleDetail == 0 {
			s.SampleDetail = 2500
		}
		if s.SampleWarm == 0 {
			s.SampleWarm = 2500
		}
	} else {
		s.SamplePeriod, s.SampleDetail, s.SampleWarm = 0, 0, 0
	}
}

// Validate normalizes the spec and rejects run shapes the batch CLI
// would reject.
func (s *JobSpec) Validate() error {
	s.normalize()
	if err := report.ValidateExp(s.Exp); err != nil {
		return err
	}
	if s.Instructions <= 0 {
		return fmt.Errorf("instructions must be positive (got %d)", s.Instructions)
	}
	if s.Warmup >= uint64(s.Instructions) {
		return fmt.Errorf("warmup %d >= instructions %d leaves an empty measurement region", s.Warmup, s.Instructions)
	}
	if s.Step < 1 {
		return fmt.Errorf("step must be >= 1 (got %d)", s.Step)
	}
	if s.Sample {
		if s.SampleDetail >= s.SamplePeriod {
			return fmt.Errorf("sample_detail %d must be below sample_period %d", s.SampleDetail, s.SamplePeriod)
		}
	}
	return nil
}

// Key is the job's content address: every field that shapes the output
// bytes, plus the schema version and binary fingerprint — the same
// discipline the per-cell cache keys follow, so a blob served from any
// tier is the output of this exact code on this exact request.
func (s *JobSpec) Key() resultcache.Key {
	spec := *s
	spec.normalize()
	return resultcache.NewHasher("tracerebase/job").
		U64(resultcache.SchemaVersion).
		Str(resultcache.Fingerprint()).
		Str(spec.Exp).
		I64(int64(spec.Step)).
		I64(int64(spec.Instructions)).
		U64(spec.Warmup).
		Bool(spec.NoSkip).
		Bool(spec.JSON).
		Bool(spec.Sample).
		U64(spec.SamplePeriod).
		U64(spec.SampleDetail).
		U64(spec.SampleWarm).
		Sum()
}

// reportSpec maps the job onto the shared composition's request type.
func (s *JobSpec) reportSpec() report.Spec {
	return report.Spec{Exp: s.Exp, Step: s.Step}
}

// sweepConfig merges the job's result-shaping parameters into the
// daemon's base engine configuration (cache handles, slab store,
// parallelism stay the daemon's).
func (s *JobSpec) sweepConfig(base experiments.SweepConfig) experiments.SweepConfig {
	cfg := base
	cfg.Instructions = s.Instructions
	cfg.Warmup = s.Warmup
	cfg.NoSkip = s.NoSkip
	cfg.SamplePeriod = s.SamplePeriod
	cfg.SampleDetail = s.SampleDetail
	cfg.SampleWarm = s.SampleWarm
	return cfg
}
