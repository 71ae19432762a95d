package tracestore_test

import (
	"errors"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tracerebase/internal/experiments"
	"tracerebase/internal/synth"
	"tracerebase/internal/tracestore"
)

// failingTemp fails its second write: the first batch of records.
type failingTemp struct {
	tracestore.TempFile
	writes int
}

func (f *failingTemp) Write(b []byte) (int, error) {
	if f.writes++; f.writes == 2 {
		return 0, errors.New("injected write failure")
	}
	return f.TempFile.Write(b)
}

// TestSweepSlabWriteFailure: when one class's slab write fails during the
// sweep's conversion pass, the class is converted again through the store
// and the sweep output equals the store-off output, with one write error,
// one warning and no temp file left behind.
func TestSweepSlabWriteFailure(t *testing.T) {
	profiles := []synth.Profile{
		synth.PublicProfile(synth.ComputeInt, 2),
		synth.PublicProfile(synth.Crypto, 1),
	}
	cfg := experiments.SweepConfig{Instructions: 12000, Warmup: 4000, Parallelism: 2}
	for _, v := range experiments.Variants()[:3] {
		cfg.Variants = append(cfg.Variants, v)
	}
	want, err := experiments.RunSweep(profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var mu sync.Mutex
	var warned []string
	s, err := tracestore.Open(tracestore.Config{Dir: dir, Warn: func(format string, args ...any) {
		mu.Lock()
		warned = append(warned, format)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	var created atomic.Int32
	tracestore.SetWrapTemp(s, func(f tracestore.TempFile) tracestore.TempFile {
		if created.Add(1) == 2 {
			return &failingTemp{TempFile: f}
		}
		return f
	})
	cfg.Slabs = s
	got, err := experiments.RunSweep(profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sweep with a failed slab write differs from the store-off sweep")
	}
	if st := s.Stats(); st.WriteErrors != 1 || len(warned) != 1 || st.Converts != uint64(len(profiles)*len(cfg.Variants)+1) {
		t.Fatalf("stats %+v and %d warnings, want 1 write error, 1 warning and 1 reconversion", st, len(warned))
	}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasPrefix(d.Name(), "tmp-") {
			t.Errorf("temp file left behind: %s", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
