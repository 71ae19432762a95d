package tracerebase

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

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

	// Under -q the exp_store block must count the cells this run flushed,
	// not those written before the closing flush.
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
			Cache    struct{ Misses uint64 }
			ExpStore struct {
				Appends      uint64 `json:"appends"`
				CellsWritten uint64 `json:"cells_written"`
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
	})
}
