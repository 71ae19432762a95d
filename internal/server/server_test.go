package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tracerebase/internal/experiments"
	"tracerebase/internal/report"
	"tracerebase/internal/resultcache"
)

// smokeSpec is a sweep small enough for unit tests: a handful of traces,
// a few thousand instructions.
func smokeSpec() JobSpec {
	return JobSpec{Exp: "fig1", Step: 27, Instructions: 4000, Warmup: 1000}
}

// newTestServer builds a daemon over a fresh memory+disk tiered backend
// rooted in a temp dir.
func newTestServer(t *testing.T, extra ...resultcache.Backend) (*Server, *resultcache.Tiered, *resultcache.Disk) {
	t.Helper()
	disk, err := resultcache.NewDisk(resultcache.DiskConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	tiers := append([]resultcache.Backend{resultcache.NewMemory(0), disk}, extra...)
	backend := resultcache.NewTiered(tiers...)
	cache := experiments.NewResultCache(backend)
	t.Cleanup(func() { cache.Close() })
	srv := New(Config{
		Backend: backend,
		Base:    experiments.SweepConfig{Cache: cache},
		Workers: 2,
	})
	return srv, backend, disk
}

func TestSubmitComputesThenServesFromMemoryTier(t *testing.T) {
	srv, _, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}

	spec := smokeSpec()
	first, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Served != "computed" {
		t.Fatalf("first submission served=%q, want computed", first.Served)
	}
	if len(first.Output) == 0 || !strings.Contains(string(first.Output), "Figure 1") {
		t.Fatalf("output does not look like fig1: %.120q", first.Output)
	}

	// The daemon's output must be byte-identical to the shared composition
	// run directly (which is what the batch CLI prints).
	var want bytes.Buffer
	if _, err := report.Run(experiments.SweepConfig{Instructions: spec.Instructions, Warmup: spec.Warmup},
		report.Spec{Exp: spec.Exp, Step: spec.Step}, report.Output{Text: &want}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Output, want.Bytes()) {
		t.Fatalf("daemon output differs from direct composition (%d vs %d bytes)", len(first.Output), want.Len())
	}

	// Repeat submission: a whole-job memory-tier hit, still byte-identical.
	second, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Served != "memory" {
		t.Fatalf("repeat submission served=%q, want memory", second.Served)
	}
	if !bytes.Equal(first.Output, second.Output) {
		t.Fatal("repeat submission output differs from first")
	}

	st := srv.StatusSnapshot()
	if st.JobsComputed != 1 || st.JobsFromCache != 1 {
		t.Fatalf("status: computed=%d fromCache=%d, want 1/1", st.JobsComputed, st.JobsFromCache)
	}
}

func TestConcurrentIdenticalSubmissionsComputeOnce(t *testing.T) {
	srv, _, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := smokeSpec()
	const n = 4
	outs := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := (&Client{BaseURL: ts.URL}).Submit(spec)
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = res.Output
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(outs[0], outs[i]) {
			t.Fatalf("submission %d output differs", i)
		}
	}
	// Single-flight across the job layer: identical concurrent submissions
	// lead to exactly one computation (followers join the stream or hit the
	// cache, depending on arrival time).
	if st := srv.StatusSnapshot(); st.JobsComputed != 1 {
		t.Fatalf("JobsComputed = %d, want 1", st.JobsComputed)
	}
}

func TestGracefulShutdownFlushesMemoryTierToDisk(t *testing.T) {
	srv, _, disk := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	client := &Client{BaseURL: ts.URL}

	spec := smokeSpec()
	res, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()

	// Shutdown must drain the worker pool and flush every write-back-
	// pending entry, so the job blob is durable on disk afterwards.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	payload, err := disk.Get(spec.Key())
	if err != nil {
		t.Fatalf("job blob not on disk after graceful shutdown: %v", err)
	}
	if !bytes.Equal(payload, res.Output) {
		t.Fatal("disk blob differs from streamed output")
	}
}

func TestChainedDaemonsShareWarmResults(t *testing.T) {
	// Daemon A computes; daemon B chains A as its remote tier and must
	// serve the same job without computing anything itself.
	srvA, _, _ := newTestServer(t)
	tsA := httptest.NewServer(srvA.Handler())
	defer tsA.Close()

	spec := smokeSpec()
	resA, err := (&Client{BaseURL: tsA.URL}).Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Served != "computed" {
		t.Fatalf("daemon A served=%q, want computed", resA.Served)
	}

	remote, err := resultcache.NewRemote(resultcache.RemoteConfig{BaseURL: tsA.URL + "/cache", Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	srvB, _, _ := newTestServer(t, remote)
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()

	resB, err := (&Client{BaseURL: tsB.URL}).Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if resB.Served != "remote" {
		t.Fatalf("daemon B served=%q, want remote", resB.Served)
	}
	if !bytes.Equal(resA.Output, resB.Output) {
		t.Fatal("chained daemons returned different bytes")
	}
	if st := srvB.StatusSnapshot(); st.JobsComputed != 0 {
		t.Fatalf("daemon B computed %d jobs, want 0", st.JobsComputed)
	}
	// After promotion, a repeat against B is a local memory-tier hit.
	resB2, err := (&Client{BaseURL: tsB.URL}).Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if resB2.Served != "memory" {
		t.Fatalf("daemon B repeat served=%q, want memory", resB2.Served)
	}
}

func TestBadJobSpecRejected(t *testing.T) {
	srv, _, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"exp":"nonsense"}`,
		`{"exp":"fig1,tabel2"}`,
		`{"exp":"fig1,"}`,
		`{"exp":"fig1","instructions":-5}`,
		`{"exp":"fig1","instructions":100,"warmup":100}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestStatusEndpointReportsTiers(t *testing.T) {
	srv, _, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st, err := (&Client{BaseURL: ts.URL}).Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Tiers) != 2 || st.Tiers[0].Name != "memory" || st.Tiers[1].Name != "disk" {
		t.Fatalf("tiers = %+v", st.Tiers)
	}
	if st.Workers != 2 {
		t.Fatalf("workers = %d, want 2", st.Workers)
	}
}

// TestJobSpecExperimentNames: job specs accept exactly the experiment
// names the batch CLI accepts, and a rejection names the bad entry.
func TestJobSpecExperimentNames(t *testing.T) {
	for _, tc := range []struct {
		exp      string
		rejected bool
		names    string // the entry the error must name
	}{
		{exp: ""}, // normalizes to "all"
		{exp: "all"},
		{exp: "fig1, table2,ablation,char"},
		{exp: "fig1,tabel2", rejected: true, names: "tabel2"},
		{exp: "FIG1", rejected: true, names: "FIG1"},
		{exp: "table3,", rejected: true, names: ""},
	} {
		spec := JobSpec{Exp: tc.exp}
		err := spec.Validate()
		switch {
		case !tc.rejected && err != nil:
			t.Errorf("exp %q rejected: %v", tc.exp, err)
		case tc.rejected && (err == nil || !strings.Contains(err.Error(), `unknown experiment "`+tc.names+`"`)):
			t.Errorf("exp %q: error %v, want one naming %q", tc.exp, err, tc.names)
		}
	}
}

func TestJobSpecKeyNormalization(t *testing.T) {
	a := JobSpec{Exp: "fig1 , table2", Step: 1, Instructions: 150000, Warmup: 50000}
	b := JobSpec{Exp: "fig1,table2"}
	if a.Key() != b.Key() {
		t.Fatal("equivalent specs should share one key")
	}
	c := JobSpec{Exp: "fig1,table2", Instructions: 99999}
	if b.Key() == c.Key() {
		t.Fatal("different instruction budgets must not collide")
	}
}

// TestJobSpecStrictDecoding: a field JobSpec does not have, or data after
// the spec's object, gets a 400 that says what is wrong.
func TestJobSpecStrictDecoding(t *testing.T) {
	srv, _, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for body, want := range map[string]string{
		`{"exp":"fig1","instrutions":20000}`: `unknown field "instrutions"`,
		`{"exp":"fig1"} {"exp":"fig2"}`:      "trailing data",
		`{"exp":"fig1"}]`:                    "trailing data",
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), want) {
			t.Errorf("body %q: status %d %q, want 400 naming %q", body, resp.StatusCode, msg, want)
		}
	}
	if _, err := decodeJobSpec(strings.NewReader("{\"exp\":\"fig1\"}\n\t ")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}
