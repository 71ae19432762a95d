package conformance

import (
	"testing"

	"tracerebase/internal/synth"
)

// TestStoreTransparency runs the store-transparency oracle at test scale,
// one subtest per store row, every row held to one store-off reference
// sweep. (The -selftest path runs the same rows at larger scale.)
func TestStoreTransparency(t *testing.T) {
	ref, err := newStoreRef([]synth.Profile{
		synth.PublicProfile(synth.ComputeInt, 3),
		synth.PublicProfile(synth.Server, 5),
	}, 1500, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range storeRows() {
		t.Run(row.store, func(t *testing.T) {
			if err := row.check(ref); err != nil {
				t.Fatal(err)
			}
		})
	}
}
