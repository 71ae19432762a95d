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

// TestSlabCrossProcess exercises the compiled-trace store across real
// process boundaries: it builds the rebase binary, runs the same small
// sweep twice sequentially with the result cache disabled (so every
// simulation recomputes) against one temp -trace-store-dir, and asserts the
// runs produce byte-identical stdout while the second run converts nothing
// — the slab files on disk are the only state the two processes share.
func TestSlabCrossProcess(t *testing.T) {
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

	slabDir := filepath.Join(dir, "slabs")
	run := func() (stdout, stderr []byte) {
		cmd := exec.Command(bin, "-exp", "fig1", "-step", "27",
			"-instructions", "4000", "-warmup", "1000",
			"-no-cache", "-trace-store-dir", slabDir)
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
		t.Fatalf("slab-warm run output differs from cold run output\ncold:\n%s\nwarm:\n%s", coldOut, warmOut)
	}

	// Stderr carries the slab summary line:
	//   slabs: N hits (M mem, D disk), K misses, C converted, ...
	sum := regexp.MustCompile(`slabs: (\d+) hits \((\d+) mem, (\d+) disk\), (\d+) misses, (\d+) converted`)
	parse := func(stderr []byte) (hits, disk, misses, converts int) {
		m := sum.FindSubmatch(stderr)
		if m == nil {
			t.Fatalf("no slab summary in stderr:\n%s", stderr)
		}
		hits, _ = strconv.Atoi(string(m[1]))
		disk, _ = strconv.Atoi(string(m[3]))
		misses, _ = strconv.Atoi(string(m[4]))
		converts, _ = strconv.Atoi(string(m[5]))
		return hits, disk, misses, converts
	}
	coldHits, _, coldMisses, coldConverts := parse(coldErr)
	if coldHits != 0 || coldConverts == 0 || coldConverts != coldMisses {
		t.Fatalf("cold run: %d hits, %d misses, %d converts; want 0 hits and one convert per miss", coldHits, coldMisses, coldConverts)
	}
	// A single fig1 sweep has one cell per slab, and a slab is mapped only
	// while a cell holds it, so the counts are exact: every slab the cold
	// process converted, the warm one maps from disk exactly once — no
	// mem hits, no misses, no conversions.
	warmHits, warmDisk, warmMisses, warmConverts := parse(warmErr)
	if warmHits != coldConverts || warmDisk != coldConverts || warmMisses != 0 || warmConverts != 0 {
		t.Fatalf("warm run: %d hits (%d disk), %d misses, %d converts; want %d hits, all from disk, 0 misses, 0 converts",
			warmHits, warmDisk, warmMisses, warmConverts, coldConverts)
	}

	// The second process must have found real slab files, not re-written
	// them: the store directory holds one .slab per conversion.
	slabs, err := filepath.Glob(filepath.Join(slabDir, "v*", "*", "*.slab"))
	if err != nil || len(slabs) != coldConverts {
		t.Fatalf("found %d slab files (err %v), want %d", len(slabs), err, coldConverts)
	}
}
