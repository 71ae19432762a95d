package tracerebase

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tracerebase/internal/expstore"
)

// TestCLIFrontEnd drives the rebase binary through its input validation
// and its -bench-json record.
func TestCLIFrontEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the rebase binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "rebase")
	build := exec.Command("go", "build", "-o", bin, "./cmd/rebase")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (stdout, stderr string, code int) {
		cmd := exec.Command(bin, args...)
		var outBuf, errBuf bytes.Buffer
		cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("rebase %v: %v", args, err)
		}
		return outBuf.String(), errBuf.String(), code
	}

	// A misspelled experiment fails before any work, naming the entry; the
	// empty list is valid and renders nothing.
	t.Run("experiment names", func(t *testing.T) {
		for _, tc := range []struct {
			exp      string
			rejected bool
			names    string // the entry the error must name
			printed  bool
		}{
			{exp: "fig1,tabel2", rejected: true, names: "tabel2"},
			{exp: "Fig1", rejected: true, names: "Fig1"},
			{exp: "table1,", rejected: true, names: ""},
			{exp: "table1, table1x", rejected: true, names: "table1x"},
			{exp: ""},
			{exp: "table1", printed: true},
			{exp: " table1 ", printed: true},
		} {
			stdout, stderr, code := run("-exp", tc.exp, "-q", "-no-cache", "-no-trace-store", "-no-exp-store")
			switch {
			case tc.rejected && (code != 1 || stdout != "" || !strings.Contains(stderr, `unknown experiment "`+tc.names+`"`)):
				t.Errorf("-exp %q: exit %d, stdout %q, stderr %q; want exit 1 naming %q",
					tc.exp, code, stdout, stderr, tc.names)
			case !tc.rejected && (code != 0 || (stdout != "") != tc.printed):
				t.Errorf("-exp %q: exit %d, stdout %q, stderr %q", tc.exp, code, stdout, stderr)
			}
		}
	})

	// A flag the chosen mode never reads fails before any work, naming the
	// flag; a removed flag is unknown to the flag parser.
	t.Run("flag combinations", func(t *testing.T) {
		small := []string{"-q", "-instructions", "4000", "-warmup", "1000", "-no-cache", "-no-trace-store", "-no-exp-store"}
		for _, tc := range []struct {
			args  []string
			code  int
			names string // what stderr must contain when code != 0
		}{
			{args: []string{"-cores", "2", "-coschedule", "srvcrypto", "-exp", "fig1"}, code: 1, names: "-exp does not apply to -coschedule"},
			{args: []string{"-cores", "2", "-coschedule", "srvcrypto", "-step", "3"}, code: 1, names: "-step does not apply to -coschedule"},
			{args: []string{"-exp", "", "-sample-period", "10000"}, code: 1, names: "-sample-period needs -sample"},
			{args: []string{"-exp", "", "-sample-detail", "1000"}, code: 1, names: "-sample-detail needs -sample"},
			{args: []string{"-exp", "", "-sample-warm", "0"}, code: 1, names: "-sample-warm needs -sample"},
			{args: []string{"-exp", "", "-mem-limit", "off"}, code: 2, names: "-mem-limit"},
			{args: []string{"-exp", "", "-cache=false"}, code: 2, names: "-cache"},
			{args: []string{"-exp", "", "-trace-store=false"}, code: 2, names: "-trace-store"},
			{args: []string{"-exp", "", "-exp-store=false"}, code: 2, names: "-exp-store"},
			{args: []string{"-selftest", "-instructions", "1000"}, code: 1, names: "-instructions does not apply to -selftest"},
			{args: []string{"-selftest", "-no-cache"}, code: 1, names: "-no-cache does not apply to -selftest"},
			{args: []string{"-selftest", "-step", "9", "-exp", "fig1"}, code: 1, names: "-exp does not apply to -selftest"},
			{args: []string{"-exp", "", "-sample", "-sample-period", "10000", "-sample-detail", "1000", "-sample-warm", "0"}},
			{args: []string{"-cores", "2", "-coschedule", "srvcrypto"}},
		} {
			args := tc.args
			if args[0] != "-selftest" { // the selftest takes none of small's flags
				args = append(append([]string{}, tc.args...), small...)
			}
			stdout, stderr, code := run(args...)
			switch {
			case code != tc.code:
				t.Errorf("rebase %q: exit %d, want %d\n%s", tc.args, code, tc.code, stderr)
			case code != 0 && (stdout != "" || !strings.Contains(stderr, tc.names)):
				t.Errorf("rebase %q: stdout %q, stderr %q; want no output and an error naming %q", tc.args, stdout, stderr, tc.names)
			}
		}
	})

	// `rebase submit` rejects what `rebase` rejects, and each zero the
	// daemon would read as its default, before it sends anything: -url
	// names a port nothing listens on, which only the accepted request
	// reaches.
	t.Run("submit flags", func(t *testing.T) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		url := "http://" + l.Addr().String()
		l.Close()
		for _, tc := range []struct {
			args  []string
			names string // what stderr must contain; "" for an accepted request
		}{
			{args: []string{"-warmup", "0"}, names: "-warmup 0 cannot be submitted"},
			{args: []string{"-sample", "-sample-warm", "0"}, names: "-sample-warm 0 cannot be submitted"},
			{args: []string{"-exp", ""}, names: `-exp "" cannot be submitted`},
			{args: []string{"-exp", "fig1,tabel2"}, names: `unknown experiment "tabel2"`},
			{args: []string{"-step", "0"}, names: "-step must be >= 1"},
			{args: []string{"-instructions", "1000", "-warmup", "1000"}, names: "-warmup 1000 >= -instructions 1000"},
			{args: []string{"-sample", "-sample-detail", "0"}, names: "-sample-detail 0 must be positive"},
			{args: []string{"-exp", "fig1", "-sample", "-sample-warm", "1"}},
		} {
			args := append([]string{"submit", "-q", "-url", url}, tc.args...)
			stdout, stderr, code := run(args...)
			sent := strings.Contains(stderr, "/jobs")
			switch {
			case code != 1 || stdout != "":
				t.Errorf("rebase %q: exit %d, stdout %q, stderr %q; want exit 1 and no output", args, code, stdout, stderr)
			case tc.names == "" && !sent:
				t.Errorf("rebase %q: stderr %q; want the accepted request posted to %s", args, stderr, url)
			case tc.names != "" && (sent || !strings.Contains(stderr, tc.names)):
				t.Errorf("rebase %q: stderr %q; want a rejection naming %q before any request", args, stderr, tc.names)
			}
		}
	})

	// A daemon flag no job can run stops `rebase serve` at startup, naming
	// the flag, instead of failing every job it later accepts.
	t.Run("serve flags", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		cmd := exec.CommandContext(ctx, bin, "serve", "-parallel", "-1", "-addr", "127.0.0.1:0",
			"-cache-dir", filepath.Join(dir, "serve_cache"), "-no-trace-store", "-no-exp-store")
		var errBuf bytes.Buffer
		cmd.Stderr = &errBuf
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); ctx.Err() != nil || !ok || ee.ExitCode() != 1 ||
			!strings.Contains(errBuf.String(), "-parallel") {
			t.Fatalf("rebase serve -parallel -1: %v (timed out: %v), stderr %q; want exit 1 naming -parallel",
				err, ctx.Err() != nil, errBuf.String())
		}
	})

	// Under -q the exp_store block must count the cells this run flushed,
	// not those written before the closing flush. Every key the record
	// has carried stays, so BENCH files remain comparable.
	t.Run("bench-json exp store", func(t *testing.T) {
		cacheDir := filepath.Join(dir, "cache")
		benchPath := filepath.Join(dir, "bench.json")
		_, stderr, code := run("-exp", "fig1,table3", "-step", "27", "-instructions", "4000", "-warmup", "1000",
			"-q", "-cache-dir", cacheDir, "-bench-json", benchPath)
		if code != 0 {
			t.Fatalf("rebase: exit %d\n%s", code, stderr)
		}
		data, err := os.ReadFile(benchPath)
		if err != nil {
			t.Fatal(err)
		}
		var rec struct {
			MaxRSSBytes int64 `json:"max_rss_bytes"`
			Cache       struct{ Misses uint64 }
			ExpStore    struct {
				Appends      uint64 `json:"appends"`
				CellsWritten uint64 `json:"cells_written"`
				LookupHits   uint64 `json:"lookup_hits"`
				LookupMisses uint64 `json:"lookup_misses"`
			} `json:"exp_store"`
		}
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		store, err := expstore.Open(expstore.Config{Dir: filepath.Join(cacheDir, "exp")})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		cells, err := store.ScanCells()
		if err != nil {
			t.Fatal(err)
		}
		if rec.ExpStore.CellsWritten != uint64(len(cells)) || rec.ExpStore.Appends != uint64(len(cells)) ||
			rec.Cache.Misses != uint64(len(cells)) {
			t.Fatalf("bench-json: %d appends, %d cells written, %d cache misses; the store holds %d cells",
				rec.ExpStore.Appends, rec.ExpStore.CellsWritten, rec.Cache.Misses, len(cells))
		}
		if rec.MaxRSSBytes <= 0 {
			t.Fatalf("bench-json: max_rss_bytes %d, want the run's peak RSS", rec.MaxRSSBytes)
		}
		if rec.ExpStore.LookupHits != 0 || rec.ExpStore.LookupMisses != uint64(len(cells)) {
			t.Fatalf("bench-json: %d exp-store lookup hits, %d misses on a cold run; want 0 and %d",
				rec.ExpStore.LookupHits, rec.ExpStore.LookupMisses, len(cells))
		}
		requireBenchKeys(t, data, map[string][]string{
			"": {"experiment", "step", "instructions", "warmup", "parallelism", "num_cpu", "goos", "goarch",
				"go_version", "no_skip", "wall_seconds", "max_rss_bytes", "timestamp", "cache", "cache_tiers", "skip",
				"trace_store", "exp_store"},
			"cache": cacheKeys,
			"trace_store": {"hits", "mem_hits", "disk_hits", "misses", "converts", "peak_mapped_bytes", "corrupt",
				"evictions", "write_errors", "bytes_mapped", "bytes_written"},
			"exp_store": {"appends", "dup_skipped", "blocks_written", "cells_written", "compactions", "corrupt",
				"foreign", "bytes_written", "lookup_hits", "lookup_misses"},
		})

		// A query that matches nothing suggests a sweep only when the store
		// holds no cell of this build.
		for _, tc := range []struct{ storeDir, hint string }{
			{filepath.Join(cacheDir, "exp"), "no cell matches the filters"},
			{filepath.Join(dir, "empty-exp"), "holds no cell of this build; run a sweep first"},
		} {
			stdout, stderr, code := run("query", "-store-dir", tc.storeDir, "trace=nonexistent")
			if code != 0 || !strings.Contains(stderr, tc.hint) || !strings.Contains(stdout, "-- 0 rows") {
				t.Fatalf("query over %s: exit %d\nstdout %q\nstderr %q, want the hint %q", tc.storeDir, code, stdout, stderr, tc.hint)
			}
			if tc.hint == "no cell matches the filters" && strings.Contains(stderr, "sweep") {
				t.Fatalf("query over a filled store suggests a sweep: %q", stderr)
			}
		}
	})

	// A sampled run records its sampling parameters beside the standard
	// blocks of the stores it used.
	t.Run("bench-json sample", func(t *testing.T) {
		benchPath := filepath.Join(dir, "bench_sample.json")
		_, stderr, code := run("-exp", "ablation", "-sample", "-step", "27", "-instructions", "40000", "-warmup", "10000",
			"-q", "-cache-dir", filepath.Join(dir, "cache_sample"), "-bench-json", benchPath)
		if code != 0 {
			t.Fatalf("rebase: exit %d\n%s", code, stderr)
		}
		data, err := os.ReadFile(benchPath)
		if err != nil {
			t.Fatal(err)
		}
		var rec struct {
			Sample struct{ Period, Detail, Warm uint64 }
		}
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		if s := rec.Sample; s.Period == 0 || s.Detail == 0 || s.Detail > s.Period {
			t.Fatalf("bench-json: sample block %+v; want the run's sampling parameters", s)
		}
		requireBenchKeys(t, data, map[string][]string{
			"":       {"sample", "cache", "cache_tiers", "trace_store", "exp_store", "max_rss_bytes", "wall_seconds"},
			"sample": {"period", "detail", "warm"},
			"cache":  cacheKeys,
		})
	})
}

// cacheKeys are the counters -bench-json records for a result cache.
var cacheKeys = []string{"hits", "mem_hits", "disk_hits", "misses", "corrupt", "evictions", "bytes_read", "bytes_written"}

// requireBenchKeys fails unless the -bench-json record holds every key
// listed for its block ("" is the top level).
func requireBenchKeys(t *testing.T, data []byte, want map[string][]string) {
	t.Helper()
	var rec map[string]any
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	for block, keys := range want {
		m := rec
		if block != "" {
			m, _ = rec[block].(map[string]any)
		}
		for _, k := range keys {
			if _, ok := m[k]; !ok {
				t.Errorf("bench-json: block %q has no key %q", block, k)
			}
		}
	}
}
