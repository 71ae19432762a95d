package resultcache

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestHasherDeterministic(t *testing.T) {
	mk := func() Key {
		return NewHasher("d").Str("abc").U64(7).I64(-1).F64(3.25).Bool(true).Bytes([]byte{1, 2}).Sum()
	}
	if mk() != mk() {
		t.Fatal("identical field sequences hash differently")
	}
}

// TestHasherUnambiguous: length delimiting must keep adjacent variable-
// width fields from aliasing.
func TestHasherUnambiguous(t *testing.T) {
	a := NewHasher("d").Str("ab").Str("c").Sum()
	b := NewHasher("d").Str("a").Str("bc").Sum()
	if a == b {
		t.Fatal(`("ab","c") and ("a","bc") collide`)
	}
	c := NewHasher("d").Bytes([]byte("ab")).Bytes([]byte("c")).Sum()
	d := NewHasher("d").Bytes([]byte("a")).Bytes([]byte("bc")).Sum()
	if c == d {
		t.Fatal("byte fields alias across boundaries")
	}
}

func TestHasherDomainSeparation(t *testing.T) {
	if NewHasher("x").U64(1).Sum() == NewHasher("y").U64(1).Sum() {
		t.Fatal("domains do not separate key spaces")
	}
}

func TestHasherFieldSensitivity(t *testing.T) {
	base := NewHasher("d").Str("s").U64(1).Bool(false).Sum()
	for name, k := range map[string]Key{
		"string": NewHasher("d").Str("t").U64(1).Bool(false).Sum(),
		"u64":    NewHasher("d").Str("s").U64(2).Bool(false).Sum(),
		"bool":   NewHasher("d").Str("s").U64(1).Bool(true).Sum(),
	} {
		if k == base {
			t.Fatalf("%s field change did not change the key", name)
		}
	}
}

func TestKeyHexRoundTrip(t *testing.T) {
	k := NewHasher("d").Str("roundtrip").Sum()
	parsed, err := ParseKey(k.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != k {
		t.Fatal("hex round trip changed the key")
	}
	if _, err := ParseKey("zz"); err == nil {
		t.Fatal("ParseKey accepted junk")
	}
	if _, err := ParseKey("abcd"); err == nil {
		t.Fatal("ParseKey accepted a short key")
	}
}

// TestFingerprintStable: the fingerprint is computed once, is non-empty,
// and carries one of the three documented forms.
func TestFingerprintStable(t *testing.T) {
	fp := Fingerprint()
	if fp == "" {
		t.Fatal("empty fingerprint")
	}
	if fp != Fingerprint() {
		t.Fatal("fingerprint changed between calls")
	}
	if !strings.HasPrefix(fp, "vcs:") && !strings.HasPrefix(fp, "build:") &&
		!strings.HasPrefix(fp, "bin:") && fp != "unversioned" {
		t.Fatalf("unexpected fingerprint form %q", fp)
	}
}

// TestFingerprintBuildID: an unversioned binary is fingerprinted by its Go
// build ID. Running one binary twice gives one fingerprint; two binaries
// that differ only in an -ldflags=-X value — which a cell key must tell
// apart — give two.
func TestFingerprintBuildID(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries")
	}
	dir := t.TempDir()
	build := func(name, stamp string) string {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-buildvcs=false",
			"-ldflags=-X main.stamp="+stamp, "-o", bin, "./testdata/fingerprint")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build: %v\n%s", err, out)
		}
		return bin
	}
	run := func(bin string) string {
		out, err := exec.Command(bin).Output()
		if err != nil {
			t.Fatalf("%s: %v", bin, err)
		}
		return strings.TrimSpace(string(out))
	}
	a, b := build("a", "one"), build("b", "two")
	fa := run(a)
	if !strings.HasPrefix(fa, "build:") {
		t.Fatalf("unversioned binary fingerprint %q, want the build: form", fa)
	}
	if again := run(a); again != fa {
		t.Fatalf("same binary, two fingerprints: %q, %q", fa, again)
	}
	if fb := run(b); fb == fa {
		t.Fatalf("binaries differing in an -X value share fingerprint %q", fa)
	}
	if id := goBuildID(a); !strings.HasSuffix(id, strings.TrimPrefix(fa, "build:")) {
		t.Fatalf("build ID %q does not end in fingerprint %q", id, fa)
	}
}

// TestGoBuildIDMarkerScan covers goBuildID's path for executables that are
// not ELF: the quoted build-ID marker in the file's first 32 KiB. None of
// these files parses as ELF, so the scan runs on every platform.
func TestGoBuildIDMarkerScan(t *testing.T) {
	const marker = "\xff Go build ID: \""
	pad := strings.Repeat("\x00", 100)
	for _, tc := range []struct {
		name, content, want string
	}{
		{"marker", pad + marker + "act/content\"\n\xff" + pad, "act/content"},
		{"at start", marker + "a/b/c\"", "a/b/c"},
		{"empty id", pad + marker + "\"", ""},
		{"no closing quote", pad + marker + "act/content", ""},
		{"no marker", pad + "Go build ID: \"act/content\"", ""},
		{"past the scanned head", strings.Repeat("\x00", 32<<10) + marker + "x/y\"", ""},
		{"empty file", "", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "exe")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			if got := goBuildID(path); got != tc.want {
				t.Fatalf("goBuildID = %q, want %q", got, tc.want)
			}
		})
	}
	if got := goBuildID(filepath.Join(t.TempDir(), "missing")); got != "" {
		t.Fatalf("missing file: goBuildID = %q", got)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	key := NewHasher("d").Str("rec").Sum()
	payload := []byte("some result bytes")
	rec := encodeRecord(key, payload)
	got, err := decodeRecord(key, rec)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload %q, want %q", got, payload)
	}
	// Every single-byte corruption must be caught.
	for i := range rec {
		mut := append([]byte(nil), rec...)
		mut[i] ^= 0x01
		if _, err := decodeRecord(key, mut); err == nil {
			t.Fatalf("corruption at byte %d undetected", i)
		}
	}
}
