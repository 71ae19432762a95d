// Package resultcache is a content-addressed store for deterministic
// computation results, layered as in-memory map → on-disk sharded store →
// single-flight compute. The whole simulation pipeline is a pure function
// of its canonical inputs (the conformance subsystem proves runs are
// bit-reproducible), so a result keyed on the hash of those inputs can be
// served from disk instead of recomputed — turning warm sweep runs into
// near-instant replays, and giving a future server a substrate for
// deduplicating overlapping requests.
//
// Keys are derived with Hasher, a deterministic canonical encoder: every
// field is written with an unambiguous length- or width-delimited encoding,
// so distinct input tuples cannot collide by concatenation. Callers mix in
// Fingerprint(), which identifies the code that produced the result, and
// SchemaVersion, which identifies the record encoding; either changing
// invalidates every prior key.
package resultcache

import (
	"bytes"
	"crypto/sha256"
	"debug/elf"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"runtime/debug"
	"strings"
	"sync"
)

// SchemaVersion identifies the cache record layout and the semantics of
// the values stored in it. Bump it whenever the stored payload encoding
// changes incompatibly; old entries are then treated as misses.
//
// Version 2: experiment Results are stored in BinaryCodec's fixed
// little-endian layout instead of gob.
const SchemaVersion = 2

// KeySize is the size of a cache key in bytes (SHA-256).
const KeySize = sha256.Size

// Key is a content hash addressing one cached result.
type Key [KeySize]byte

// String returns the lowercase hex form of the key.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the hex form produced by Key.String.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, fmt.Errorf("resultcache: bad key %q: %w", s, err)
	}
	if len(b) != KeySize {
		return k, fmt.Errorf("resultcache: bad key length %d", len(b))
	}
	copy(k[:], b)
	return k, nil
}

// Hasher builds a cache key from a sequence of typed fields. Every write
// is width- or length-delimited, so the encoding of a field sequence is
// unambiguous: ("ab","c") and ("a","bc") hash differently. The zero value
// is not usable; construct with NewHasher.
type Hasher struct {
	h hash.Hash
}

// NewHasher starts a key derivation in the given domain. The domain
// separates key spaces (e.g. "tracerebase/result") so identical field
// sequences hashed for different purposes never collide.
func NewHasher(domain string) *Hasher {
	h := &Hasher{h: sha256.New()}
	h.Str(domain)
	return h
}

func (h *Hasher) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.h.Write(b[:])
}

// Str writes a length-prefixed string field.
func (h *Hasher) Str(s string) *Hasher {
	h.u64(uint64(len(s)))
	io.WriteString(h.h, s)
	return h
}

// Bytes writes a length-prefixed byte-slice field.
func (h *Hasher) Bytes(b []byte) *Hasher {
	h.u64(uint64(len(b)))
	h.h.Write(b)
	return h
}

// U64 writes a fixed-width unsigned field.
func (h *Hasher) U64(v uint64) *Hasher {
	h.u64(v)
	return h
}

// I64 writes a fixed-width signed field.
func (h *Hasher) I64(v int64) *Hasher {
	h.u64(uint64(v))
	return h
}

// F64 writes a float field by its exact IEEE-754 bit pattern.
func (h *Hasher) F64(v float64) *Hasher {
	h.u64(math.Float64bits(v))
	return h
}

// Bool writes a boolean field.
func (h *Hasher) Bool(v bool) *Hasher {
	if v {
		h.u64(1)
	} else {
		h.u64(0)
	}
	return h
}

// Sum finalizes the key. The Hasher may not be written to afterwards.
func (h *Hasher) Sum() Key {
	var k Key
	h.h.Sum(k[:0])
	return k
}

// SumHex finalizes and returns the hex form directly.
func (h *Hasher) SumHex() string { k := h.Sum(); return k.String() }

var (
	fingerprintOnce sync.Once
	fingerprint     string
)

// Fingerprint identifies the code of the running binary for cache
// invalidation. Resolution order:
//
//  1. A clean VCS stamp from debug.ReadBuildInfo ("vcs:<revision>") — the
//     normal case for binaries built from a committed tree.
//  2. The content part of the Go build ID the linker stamped into the
//     executable ("build:<content-id>") — the case for unversioned builds
//     (dirty trees, trees outside git, `go run`, `go test` binaries). The
//     linker derives it from a hash of the linked binary, so any code or
//     -ldflags change yields a different fingerprint, and reading it costs
//     one header read instead of a hash of the whole file.
//  3. A hash of the executable file itself ("bin:<sha256-prefix>") for
//     binaries linked without a build ID (-ldflags=-buildid=).
//  4. The constant "unversioned" when the executable cannot be read (the
//     last resort; such builds share one key space, so stale entries must
//     be cleared manually after code changes).
//
// The result is computed once per process.
func Fingerprint() string {
	fingerprintOnce.Do(func() { fingerprint = computeFingerprint() })
	return fingerprint
}

func computeFingerprint() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var revision, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				revision = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if revision != "" && modified == "false" {
			return "vcs:" + revision
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return "unversioned"
	}
	if id := goBuildID(exe); id != "" {
		// The ID is actionID/contentID pairs; the last part is the
		// content hash of the linked binary.
		return "build:" + id[strings.LastIndexByte(id, '/')+1:]
	}
	if f, err := os.Open(exe); err == nil {
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, f); err == nil {
			return "bin:" + hex.EncodeToString(h.Sum(nil)[:16])
		}
	}
	return "unversioned"
}

// goBuildID reads the Go build ID of the executable at path, or "" when it
// has none. ELF binaries carry it in the "Go" note of .note.go.buildid;
// other formats carry the quoted marker string near the start of the text
// segment, which is what `go tool buildid` reads too.
func goBuildID(path string) string {
	if f, err := elf.Open(path); err == nil {
		defer f.Close()
		sec := f.Section(".note.go.buildid")
		if sec == nil {
			return ""
		}
		note, err := sec.Data()
		if err != nil || len(note) < 16 {
			return ""
		}
		nameSize := f.ByteOrder.Uint32(note[0:])
		descSize := f.ByteOrder.Uint32(note[4:])
		const goNoteType = 4
		if nameSize != 4 || f.ByteOrder.Uint32(note[8:]) != goNoteType ||
			string(note[12:16]) != "Go\x00\x00" || uint64(len(note)) < 16+uint64(descSize) {
			return ""
		}
		return string(note[16 : 16+descSize])
	}
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	head := make([]byte, 32<<10)
	n, _ := io.ReadFull(f, head)
	head = head[:n]
	const marker = "\xff Go build ID: \""
	i := bytes.Index(head, []byte(marker))
	if i < 0 {
		return ""
	}
	id := head[i+len(marker):]
	end := bytes.IndexByte(id, '"')
	if end < 0 {
		return ""
	}
	return string(id[:end])
}
