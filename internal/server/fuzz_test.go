package server

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobSpec checks the daemon's POST /jobs decoding on arbitrary bodies:
// the JSON decode and JobSpec.Validate must never panic, and a spec they
// accept must be a runnable shape that round-trips — re-encoding and
// decoding it again is accepted with the same cache key. The seeds are
// the benchmark's job specs and the CI service smoke's submission.
func FuzzJobSpec(f *testing.F) {
	for _, exp := range []string{"all", "fig1", "fig3", "table2", "table3"} {
		body, _ := json.Marshal(JobSpec{Exp: exp, Step: 17, Instructions: 150000, Warmup: 50000})
		f.Add(body)
	}
	for _, body := range []string{
		`{"exp":"fig1","step":5}`,
		`{"exp":"ablation","sample":true,"sample_period":100,"sample_detail":100}`,
		`{"exp":" fig1 , table1 ","json":true,"no_skip":true}`,
		`{"exp":"fig9"}`,
		`{"instructions":-1}`,
		`{}`,
		`[]`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeJobSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		if spec.Instructions <= 0 || spec.Step < 1 || spec.Warmup >= uint64(spec.Instructions) {
			t.Fatalf("accepted an unrunnable spec %+v", spec)
		}
		again, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec2, err := decodeJobSpec(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("accepted spec %+v rejected after a round trip: %v", spec, err)
		}
		if spec2.Key() != spec.Key() {
			t.Fatalf("round trip changed the cache key of %+v to that of %+v", spec, spec2)
		}
	})
}
