package tracerebase

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
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
	noSlabs := regexp.MustCompile(`slabs: 0 hits \(0 mem, 0 disk\), 0 misses, 0 converted, 0 prefetched, 0 corrupt, 0\.0 MB mapped`)
	if !noSlabs.Match(warmErr) {
		t.Fatalf("warm run touched the slab store:\n%s", warmErr)
	}
}
