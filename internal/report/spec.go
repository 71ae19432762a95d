package report

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"tracerebase/internal/experiments"
	"tracerebase/internal/resultcache"
)

// expNames lists the names a Spec's experiment list may hold: every
// experiment Run renders, and "all" for the paper's tables and figures
// (ablation and char run only when named).
var expNames = []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5",
	"table2", "table3", "ablation", "char", "all"}

// Spec is the run request: every parameter that shapes the output bytes,
// and nothing else. The batch CLI parses it from flags, and the daemon
// decodes it from a POST /jobs body (the JSON names below; a flag is
// named after its field, so sample_period is -sample-period). Execution
// knobs (parallelism, cache and store layout) belong to the front end, so
// one request has one job key.
type Spec struct {
	// Exp is the comma-separated experiment list: table1, fig1..fig5,
	// table2, table3, ablation, char, or all. The empty list is valid and
	// renders nothing; the daemon reads it as absent, so as all.
	Exp string `json:"exp,omitempty"`
	// Step uses every step-th trace of each suite (1 = all).
	Step int `json:"step,omitempty"`
	// Instructions and Warmup are per-trace instruction budgets.
	Instructions int    `json:"instructions,omitempty"`
	Warmup       uint64 `json:"warmup,omitempty"`
	// NoSkip disables event-horizon cycle skipping.
	NoSkip bool `json:"no_skip,omitempty"`
	// JSON selects the JSON document instead of rendered text.
	JSON bool `json:"json,omitempty"`
	// Sample enables SMARTS-style interval sampling with the given
	// geometry, which an unsampled run ignores.
	Sample       bool   `json:"sample,omitempty"`
	SamplePeriod uint64 `json:"sample_period,omitempty"`
	SampleDetail uint64 `json:"sample_detail,omitempty"`
	SampleWarm   uint64 `json:"sample_warm,omitempty"`
}

// Defaults returns the request a front end starts from: a flag left unset,
// or a POST /jobs field absent or zero, takes its value from here.
func Defaults() Spec {
	return Spec{
		Exp:          "all",
		Step:         1,
		Instructions: experiments.DefaultInstructions,
		Warmup:       experiments.DefaultWarmup,
		SamplePeriod: experiments.DefaultSamplePeriod,
		SampleDetail: experiments.DefaultSampleDetail,
		SampleWarm:   experiments.DefaultSampleWarm,
	}
}

// Normalize reads s as the daemon does: an absent or zero field takes its
// default, an unsampled run drops its geometry, and the experiment list
// loses its blanks, so equal requests share one job key.
func (s *Spec) Normalize() {
	d := Defaults()
	parts := strings.Split(cmp.Or(s.Exp, d.Exp), ",")
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
	}
	s.Exp = strings.Join(parts, ",")
	s.Step = cmp.Or(s.Step, d.Step)
	s.Instructions = cmp.Or(s.Instructions, d.Instructions)
	s.Warmup = cmp.Or(s.Warmup, d.Warmup)
	if !s.Sample {
		s.SamplePeriod, s.SampleDetail, s.SampleWarm = 0, 0, 0
		return
	}
	s.SamplePeriod = cmp.Or(s.SamplePeriod, d.SamplePeriod)
	s.SampleDetail = cmp.Or(s.SampleDetail, d.SampleDetail)
	s.SampleWarm = cmp.Or(s.SampleWarm, d.SampleWarm)
}

// Validate normalizes s and rejects a request no front end runs, naming
// the offending POST /jobs fields.
func (s *Spec) Validate() error {
	s.Normalize()
	return s.check(func(field string) string { return field })
}

// ValidateFlags rejects the same requests as Validate, but reads s as the
// batch CLI parsed it, with no default filled in, and names flags.
func (s Spec) ValidateFlags() error {
	return s.check(func(field string) string { return "-" + strings.ReplaceAll(field, "_", "-") })
}

// check holds every rejection of a request, naming fields through name.
// A warm-up consuming the whole run would leave every measurement region
// empty, and negative counts have no meaning.
func (s Spec) check(name func(field string) string) error {
	if s.Instructions <= 0 {
		return fmt.Errorf("%s must be positive (got %d)", name("instructions"), s.Instructions)
	}
	if s.Warmup >= uint64(s.Instructions) {
		return fmt.Errorf("%s %d >= %s %d leaves an empty measurement region",
			name("warmup"), s.Warmup, name("instructions"), s.Instructions)
	}
	if s.Step < 1 {
		return fmt.Errorf("%s must be >= 1 (got %d)", name("step"), s.Step)
	}
	if err := validateExp(s.Exp); err != nil {
		return fmt.Errorf("%s: %v", name("exp"), err)
	}
	if s.Sample {
		if s.SamplePeriod == 0 {
			return fmt.Errorf("%s must be positive", name("sample_period"))
		}
		if s.SampleDetail == 0 || s.SampleDetail >= s.SamplePeriod {
			return fmt.Errorf("%s %d must be positive and below %s %d",
				name("sample_detail"), s.SampleDetail, name("sample_period"), s.SamplePeriod)
		}
	}
	return nil
}

// validateExp checks a comma-separated experiment list against the names
// Run understands, naming the first entry that is not an experiment, so a
// misspelled name fails loudly instead of silently rendering less.
func validateExp(exp string) error {
	if strings.TrimSpace(exp) == "" {
		return nil
	}
	for _, e := range strings.Split(exp, ",") {
		if e = strings.TrimSpace(e); !slices.Contains(expNames, e) {
			return fmt.Errorf("unknown experiment %q (want a comma-separated list of %s)",
				e, strings.Join(expNames, ", "))
		}
	}
	return nil
}

// SweepConfig maps the request onto base, the front end's engine
// configuration: its cache handles, stores and parallelism stay as they
// are.
func (s Spec) SweepConfig(base experiments.SweepConfig) experiments.SweepConfig {
	cfg := base
	cfg.Instructions = s.Instructions
	cfg.Warmup = s.Warmup
	cfg.NoSkip = s.NoSkip
	cfg.SamplePeriod, cfg.SampleDetail, cfg.SampleWarm = 0, 0, 0
	if s.Sample {
		cfg.SamplePeriod, cfg.SampleDetail, cfg.SampleWarm = s.SamplePeriod, s.SampleDetail, s.SampleWarm
	}
	return cfg
}

// Key is the daemon's job key: the content address of the normalized
// request, plus the schema version and binary fingerprint — the same
// discipline the per-cell cache keys follow, so a blob served from any
// tier is the output of this exact code on this exact request.
func (s Spec) Key() resultcache.Key {
	s.Normalize()
	return resultcache.NewHasher("tracerebase/job").
		U64(resultcache.SchemaVersion).
		Str(resultcache.Fingerprint()).
		Str(s.Exp).
		I64(int64(s.Step)).
		I64(int64(s.Instructions)).
		U64(s.Warmup).
		Bool(s.NoSkip).
		Bool(s.JSON).
		Bool(s.Sample).
		U64(s.SamplePeriod).
		U64(s.SampleDetail).
		U64(s.SampleWarm).
		Sum()
}
