// Package conformance is the correctness-tooling subsystem of the trace
// rebasing pipeline. PR 1 grew parallel fast paths (batch slab decoding,
// ConvertAppend, the pooled streaming ConverterSource) next to the original
// scalar paths; this package treats every such pair of redundant code paths
// as a differential-testing oracle and every binary decoder as a fuzz
// target, so a regression in the CVP-1 decoder or the converter fails a
// pointed check instead of silently shifting experiment numbers.
//
// The subsystem has four layers:
//
//   - Differential oracles (differential.go): for any CVP-1 instruction
//     slab, the scalar, batch, streaming and batched-emit convert paths
//     must agree record-for-record and stat-for-stat, and both binary
//     codecs must round-trip (decode→encode→decode is a fixed point).
//   - Metamorphic checks (metamorphic.go): simulating the same trace twice
//     yields identical statistics, a sweep is byte-identical under
//     -parallel 1 and -parallel N, and IPC responds monotonically to
//     resource knobs (ROB size, L1D sets) on synthetic microbenchmarks.
//   - A golden corpus (golden.go, testdata/golden): small checked-in
//     real-format CVP-1 and ChampSim binary traces with golden converted
//     md5s and per-trace simulator counters, regenerated via go generate
//     and embedded in the binary so `rebase -selftest` works anywhere.
//   - Fuzz targets (fuzz_test.go): native Go fuzzing of both decoders and
//     the converter, seeded from internal/synth.
//
// SelfTest bundles the first three layers into the `rebase -selftest` /
// `cmd/conformance` entry point, which can additionally validate
// user-supplied trace files in the field.
package conformance

import (
	"errors"
	"fmt"
	"io"
	"time"
)

// Report accumulates check outcomes for human-readable selftest output.
// The zero value is ready to use.
type Report struct {
	// Log, when non-nil, receives one line per completed check, ending in
	// the wall time since the previous line: the check's own time, as the
	// checks run one after another. The zero value's clock starts at its
	// first line.
	Log io.Writer

	passed   int
	failures []error
	last     time.Time // when the previous line was logged
}

// lap returns the wall time since the previous line and restarts the clock.
func (r *Report) lap() time.Duration {
	now := time.Now()
	if r.last.IsZero() {
		r.last = now
	}
	d := now.Sub(r.last)
	r.last = now
	return d
}

// okf records a passing check.
func (r *Report) okf(format string, args ...any) {
	r.passed++
	if r.Log != nil {
		fmt.Fprintf(r.Log, "ok   %s (%.1f s)\n", fmt.Sprintf(format, args...), r.lap().Seconds())
	}
}

// fail records a failing check.
func (r *Report) fail(err error) {
	r.failures = append(r.failures, err)
	if r.Log != nil {
		fmt.Fprintf(r.Log, "FAIL %v (%.1f s)\n", err, r.lap().Seconds())
	}
}

// run executes one named check function.
func (r *Report) run(name string, check func() error) {
	if err := check(); err != nil {
		r.fail(fmt.Errorf("%s: %w", name, err))
		return
	}
	r.okf("%s", name)
}

// Passed returns the number of checks that succeeded.
func (r *Report) Passed() int { return r.passed }

// Err returns nil when every check passed, and otherwise the join of every
// failure.
func (r *Report) Err() error { return errors.Join(r.failures...) }
