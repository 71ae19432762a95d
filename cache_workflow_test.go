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

// TestCacheCrossProcess exercises the result cache across real process
// boundaries: it builds the rebase binary, runs the same small sweep twice
// sequentially against one temp -cache-dir, and asserts the runs produce
// byte-identical stdout while the second run is served entirely from the
// cache — the on-disk store is the only state the two processes share.
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

	cacheDir := filepath.Join(dir, "cache")
	run := func() (stdout, stderr []byte) {
		cmd := exec.Command(bin, "-exp", "fig1", "-step", "27",
			"-instructions", "4000", "-warmup", "1000", "-cache-dir", cacheDir)
		var outBuf, errBuf bytes.Buffer
		cmd.Stdout = &outBuf
		cmd.Stderr = &errBuf
		if err := cmd.Run(); err != nil {
			t.Fatalf("rebase: %v\nstderr:\n%s", err, errBuf.Bytes())
		}
		return outBuf.Bytes(), errBuf.Bytes()
	}

	coldOut, coldErr := run()
	warmOut, warmErr := run()
	if !bytes.Equal(coldOut, warmOut) {
		t.Fatalf("warm run output differs from cold run output\ncold:\n%s\nwarm:\n%s", coldOut, warmOut)
	}

	// Stderr carries the cache summary line:
	//   cache: N hits (M mem, D disk), K misses, ...
	sum := regexp.MustCompile(`cache: (\d+) hits \((\d+) mem, (\d+) disk\), (\d+) misses`)
	parse := func(stderr []byte) (hits, disk, misses int) {
		m := sum.FindSubmatch(stderr)
		if m == nil {
			t.Fatalf("no cache summary in stderr:\n%s", stderr)
		}
		hits, _ = strconv.Atoi(string(m[1]))
		disk, _ = strconv.Atoi(string(m[3]))
		misses, _ = strconv.Atoi(string(m[4]))
		return hits, disk, misses
	}
	coldHits, _, coldMisses := parse(coldErr)
	if coldHits != 0 || coldMisses == 0 {
		t.Fatalf("cold run: %d hits, %d misses; want 0 hits and nonzero misses", coldHits, coldMisses)
	}
	warmHits, warmDisk, warmMisses := parse(warmErr)
	if warmHits != coldMisses || warmMisses != 0 {
		t.Fatalf("warm run: %d hits, %d misses; want %d hits and 0 misses", warmHits, warmMisses, coldMisses)
	}
	if warmDisk != warmHits {
		t.Fatalf("warm run: %d of %d hits from disk; a fresh process has no memory layer to hit", warmDisk, warmHits)
	}
	// Every cell resolves before any input work, so a fully cached run
	// never reaches the compiled-trace store.
	noSlabs := regexp.MustCompile(`slabs: 0 hits \(0 mem, 0 disk\), 0 misses, 0 converted, 0\.0 MB peak mapped, 0 corrupt, 0\.0 MB mapped`)
	if !noSlabs.Match(warmErr) {
		t.Fatalf("warm run touched the slab store:\n%s", warmErr)
	}
}

// TestCacheConcurrentProcesses runs two rebase processes at the same time
// on one -cache-dir, so the result cache, the slab store and the experiment
// store all see two writers at once. Both outputs must equal a run with
// every store off; the experiment store must count each cell once (the two
// writers' duplicate rows collapse in queries); no temp file may be left
// behind; and a third run must be served entirely from the cache.
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

	_, warmErr := run(append(sweep, "-cache-dir", cacheDir)...)
	m := regexp.MustCompile(`cache: (\d+) hits \(\d+ mem, \d+ disk\), (\d+) misses`).FindSubmatch(warmErr)
	if m == nil {
		t.Fatalf("no cache summary in stderr:\n%s", warmErr)
	}
	cells, _ := strconv.Atoi(string(m[1]))
	if misses, _ := strconv.Atoi(string(m[2])); cells == 0 || misses != 0 {
		t.Fatalf("third run: %d hits, %d misses; want every cell a hit", cells, misses)
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
	if len(res.Rows) != 1 || res.Rows[0].N != cells {
		t.Errorf("query stat=count: rows %+v, want one row counting %d cells", res.Rows, cells)
	}
}
