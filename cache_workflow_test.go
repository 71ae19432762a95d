package tracerebase

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestCacheCrossProcess exercises the cell stores across real process
// boundaries: it builds the rebase binary, runs the same small sweep twice
// sequentially against one temp -cache-dir, and asserts the runs produce
// byte-identical stdout while the second run is served entirely from
// disk — the on-disk stores are the only state the two processes share.
// By default the experiment store serves the warm run, so the result cache
// sees no lookup; under -no-exp-store the result cache serves it.
func TestCacheCrossProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the rebase binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "rebase")
	build := exec.Command("go", "build", "-o", bin, "./cmd/rebase")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	run := func(cacheDir string, extra ...string) (stdout, stderr []byte) {
		args := append([]string{"-exp", "fig1", "-step", "27",
			"-instructions", "4000", "-warmup", "1000", "-cache-dir", cacheDir}, extra...)
		cmd := exec.Command(bin, args...)
		var outBuf, errBuf bytes.Buffer
		cmd.Stdout = &outBuf
		cmd.Stderr = &errBuf
		if err := cmd.Run(); err != nil {
			t.Fatalf("rebase: %v\nstderr:\n%s", err, errBuf.Bytes())
		}
		return outBuf.Bytes(), errBuf.Bytes()
	}
	// Every cell resolves before any input work, so a fully cached run
	// never reaches the compiled-trace store.
	noSlabs := regexp.MustCompile(`slabs: 0 hits \(0 mem, 0 disk\), 0 misses, 0 converted, 0\.0 MB peak mapped, 0 corrupt, 0\.0 MB mapped`)

	// Stderr carries the experiment store's and the result cache's lines:
	//   exp-store: N lookup hits, K lookup misses, ...
	//   cache: N hits (M mem, D disk), K misses, ...
	cacheDir := filepath.Join(dir, "cache")
	coldOut, coldErr := run(cacheDir)
	warmOut, warmErr := run(cacheDir)
	if !bytes.Equal(coldOut, warmOut) {
		t.Fatalf("warm run output differs from cold run output\ncold:\n%s\nwarm:\n%s", coldOut, warmOut)
	}
	coldHits, coldMisses := expLookups(t, coldErr)
	if coldHits != 0 || coldMisses == 0 {
		t.Fatalf("cold run: %d exp-store lookup hits, %d misses; want 0 hits and nonzero misses", coldHits, coldMisses)
	}
	if hits, _, misses := cacheCounts(t, coldErr); hits != 0 || misses != coldMisses {
		t.Fatalf("cold run: %d result-cache hits, %d misses; want 0 hits and the store's %d misses", hits, misses, coldMisses)
	}
	warmHits, warmMisses := expLookups(t, warmErr)
	if warmHits != coldMisses || warmMisses != 0 {
		t.Fatalf("warm run: %d exp-store lookup hits, %d misses; want %d hits and 0 misses", warmHits, warmMisses, coldMisses)
	}
	if hits, _, misses := cacheCounts(t, warmErr); hits != 0 || misses != 0 {
		t.Fatalf("warm run: %d result-cache hits, %d misses; the experiment store serves every cell, so want none", hits, misses)
	}
	if !noSlabs.Match(warmErr) {
		t.Fatalf("warm run touched the slab store:\n%s", warmErr)
	}

	// Without the experiment store the result cache serves the warm run.
	cacheDir = filepath.Join(dir, "cache-no-exp")
	coldOut, coldErr = run(cacheDir, "-no-exp-store")
	warmOut, warmErr = run(cacheDir, "-no-exp-store")
	if !bytes.Equal(coldOut, warmOut) {
		t.Fatalf("-no-exp-store: warm run output differs from cold run output\ncold:\n%s\nwarm:\n%s", coldOut, warmOut)
	}
	coldHits, _, coldMisses = cacheCounts(t, coldErr)
	if coldHits != 0 || coldMisses == 0 {
		t.Fatalf("cold run: %d hits, %d misses; want 0 hits and nonzero misses", coldHits, coldMisses)
	}
	warmHits, warmDisk, warmMisses := cacheCounts(t, warmErr)
	if warmHits != coldMisses || warmMisses != 0 {
		t.Fatalf("warm run: %d hits, %d misses; want %d hits and 0 misses", warmHits, warmMisses, coldMisses)
	}
	if warmDisk != warmHits {
		t.Fatalf("warm run: %d of %d hits from disk; a fresh process has no memory layer to hit", warmDisk, warmHits)
	}
	if !noSlabs.Match(warmErr) {
		t.Fatalf("warm run touched the slab store:\n%s", warmErr)
	}
}

// cacheCounts parses the result cache's trailer line.
func cacheCounts(t *testing.T, stderr []byte) (hits, disk, misses int) {
	t.Helper()
	m := regexp.MustCompile(`cache: (\d+) hits \((\d+) mem, (\d+) disk\), (\d+) misses`).FindSubmatch(stderr)
	if m == nil {
		t.Fatalf("no cache summary in stderr:\n%s", stderr)
	}
	hits, _ = strconv.Atoi(string(m[1]))
	disk, _ = strconv.Atoi(string(m[3]))
	misses, _ = strconv.Atoi(string(m[4]))
	return hits, disk, misses
}

// expLookups parses the lookup counts of the experiment store's trailer
// line.
func expLookups(t *testing.T, stderr []byte) (hits, misses int) {
	t.Helper()
	m := regexp.MustCompile(`exp-store: (\d+) lookup hits, (\d+) lookup misses`).FindSubmatch(stderr)
	if m == nil {
		t.Fatalf("no exp-store summary in stderr:\n%s", stderr)
	}
	hits, _ = strconv.Atoi(string(m[1]))
	misses, _ = strconv.Atoi(string(m[2]))
	return hits, misses
}

// TestCacheConcurrentProcesses runs two rebase processes at the same time
// on one -cache-dir, so the result cache, the slab store and the experiment
// store all see two writers at once. Both outputs must equal a run with
// every store off; the experiment store must count each cell once (the two
// writers' duplicate rows collapse in queries); no temp file may be left
// behind; a third run must be served entirely from the experiment store,
// and a fourth, under -no-exp-store, entirely from the result cache.
func TestCacheConcurrentProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the rebase binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "rebase")
	build := exec.Command("go", "build", "-o", bin, "./cmd/rebase")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cacheDir := filepath.Join(dir, "cache")
	sweep := []string{"-exp", "fig1", "-step", "27", "-instructions", "4000", "-warmup", "1000"}
	command := func(args ...string) (*exec.Cmd, *bytes.Buffer, *bytes.Buffer) {
		cmd := exec.Command(bin, args...)
		var outBuf, errBuf bytes.Buffer
		cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
		return cmd, &outBuf, &errBuf
	}
	run := func(args ...string) (stdout, stderr []byte) {
		cmd, outBuf, errBuf := command(args...)
		if err := cmd.Run(); err != nil {
			t.Fatalf("rebase %q: %v\nstderr:\n%s", args, err, errBuf.Bytes())
		}
		return outBuf.Bytes(), errBuf.Bytes()
	}

	want, _ := run(append(sweep, "-no-cache", "-no-trace-store", "-no-exp-store")...)

	var cmds [2]*exec.Cmd
	var outs, errs [2]*bytes.Buffer
	for i := range cmds {
		cmds[i], outs[i], errs[i] = command(append(sweep, "-cache-dir", cacheDir)...)
		if err := cmds[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("concurrent run %d: %v\nstderr:\n%s", i, err, errs[i].Bytes())
		}
		if !bytes.Equal(outs[i].Bytes(), want) {
			t.Errorf("concurrent run %d output differs from the storeless run\ngot:\n%s\nwant:\n%s", i, outs[i].Bytes(), want)
		}
	}

	filepath.WalkDir(cacheDir, func(path string, d os.DirEntry, err error) error {
		if err == nil && strings.HasPrefix(d.Name(), "tmp-") {
			t.Errorf("temp file left behind: %s", path)
		}
		return nil
	})

	// The third run is served entirely from the experiment store; under
	// -no-exp-store a fourth is served entirely from the result cache.
	_, warmErr := run(append(sweep, "-cache-dir", cacheDir)...)
	cells, misses := expLookups(t, warmErr)
	if cells == 0 || misses != 0 {
		t.Fatalf("third run: %d exp-store lookup hits, %d misses; want every cell a hit", cells, misses)
	}
	_, warmErr = run(append(sweep, "-cache-dir", cacheDir, "-no-exp-store")...)
	cacheCells, _, misses := cacheCounts(t, warmErr)
	if cacheCells == 0 || misses != 0 {
		t.Fatalf("-no-exp-store run: %d hits, %d misses; want every cell a hit", cacheCells, misses)
	}

	out, _ := run("query", "-store-dir", filepath.Join(cacheDir, "exp"), "-json", "stat=count")
	var res struct {
		Rows []struct {
			N int `json:"n"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatalf("query output: %v\n%s", err, out)
	}
	for _, n := range []int{cells, cacheCells} {
		if len(res.Rows) != 1 || res.Rows[0].N != n {
			t.Errorf("query stat=count: rows %+v, want one row counting %d cells", res.Rows, n)
		}
	}
}
