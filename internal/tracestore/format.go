// Package tracestore is a content-addressed store of converted,
// simulation-ready instruction slabs. Each entry is one whole trace after
// conversion under one converter-option class, persisted in a flat
// fixed-stride binary format that loads zero-copy: the record region is
// page-aligned and laid out exactly as []champtrace.Instruction in memory,
// so opening a slab is an mmap plus a checksum pass — no decode, no
// per-record allocation — and the mapping is shared read-only across
// variants, workers, and (through the page cache) processes.
//
// The store keeps its files in a resultcache.Shards directory, as the
// result cache does: SHA-256 content keys, sharded
// v<version>/<hh>/<key>.slab paths, atomic temp-file+rename writes and
// mtime-seeded LRU eviction under a byte budget. On top it adds mmap and
// reference-counted residency: a slab goes in through Write and comes out
// through Get. Unlike resultcache entries, slabs are keyed WITHOUT the build
// fingerprint — they survive rebuilds — so correctness is gated by explicit
// algorithm versions (core.ConverterVersion, synth.GeneratorVersion,
// FormatVersion) that must be bumped when output can change, backstopped by
// the slab-transparency conformance oracle.
package tracestore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"unsafe"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/frame"
	"tracerebase/internal/resultcache"
)

// Key is the 32-byte content address of a slab, produced by the
// resultcache Hasher over the profile canonical form, the algorithm
// versions, the instruction count, and the converter-option bits.
type Key = resultcache.Key

// FormatVersion identifies the on-disk slab layout. Bump it for any change
// to the header, footer, or record framing; old-version files then read as
// misses and are overwritten in place.
const FormatVersion = 1

const (
	// headerSize is one page: records start page-aligned so the mmap view
	// can be reinterpreted as []champtrace.Instruction with natural
	// alignment.
	headerSize = 4096
	// footerSize is the data CRC plus the end magic.
	footerSize = 8

	headerMagic = "TSLB"
	footerMagic = "TSLE"

	// recordSize is the native in-memory stride of one instruction. The
	// compile-time assertion below pins it to the encoded RecordSize: the
	// struct has no padding, so the memory image IS the file image.
	recordSize = int(unsafe.Sizeof(champtrace.Instruction{}))
)

// The zero-copy contract: champtrace.Instruction's in-memory layout must be
// exactly its 64-byte wire size, with no padding. If a field is ever added
// or reordered this fails to compile instead of silently corrupting slabs.
var _ [champtrace.RecordSize]byte = [unsafe.Sizeof(champtrace.Instruction{})]byte{}

// layoutSig fingerprints the native record layout — field offsets, struct
// size, and byte order — so a slab written on a foreign architecture (or by
// a hypothetical differently-padded build) reads as a miss rather than as
// garbage records. Misses of this kind do not delete the file: the native
// writer atomically replaces it.
var layoutSig = layoutSignature()

func layoutSignature() uint64 {
	var in champtrace.Instruction
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	sig := uint64(offset64)
	mix := func(v uint64) {
		sig ^= v
		sig *= prime64
	}
	mix(uint64(unsafe.Sizeof(in)))
	mix(uint64(unsafe.Offsetof(in.IP)))
	mix(uint64(unsafe.Offsetof(in.IsBranch)))
	mix(uint64(unsafe.Offsetof(in.Taken)))
	mix(uint64(unsafe.Offsetof(in.DestRegs)))
	mix(uint64(unsafe.Offsetof(in.SrcRegs)))
	mix(uint64(unsafe.Offsetof(in.DestMem)))
	mix(uint64(unsafe.Offsetof(in.SrcMem)))
	probe := uint64(0x0102030405060708)
	mix(uint64(*(*byte)(unsafe.Pointer(&probe)))) // endianness: 8 on LE, 1 on BE
	return sig
}

// header is the decoded form of the fixed 4 KiB slab header.
//
// On-disk layout (all integers little-endian):
//
//	[0:4)    magic "TSLB"
//	[4:8)    format version (u32)
//	[8:16)   native layout signature (u64)
//	[16:24)  record count (u64)
//	[24:32)  meta length in bytes (u64)
//	[32:64)  content key (32 bytes)
//	[64:68)  CRC-32C of bytes [0:64) (u32)
//	[68:4096) zero padding to the page boundary
//
// The record region starts at offset 4096 (count × 64 bytes, native
// layout), immediately followed by the gob-encoded converter statistics
// (meta), then the footer: CRC-32C of records+meta (u32) and "TSLE".
type header struct {
	count   int
	metaLen int
	key     Key
}

const headerCRCOff = 64

func encodeHeader(h header) []byte {
	buf := make([]byte, headerSize)
	copy(buf[0:4], headerMagic)
	binary.LittleEndian.PutUint32(buf[4:8], FormatVersion)
	binary.LittleEndian.PutUint64(buf[8:16], layoutSig)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(h.count))
	binary.LittleEndian.PutUint64(buf[24:32], uint64(h.metaLen))
	copy(buf[32:64], h.key[:])
	crc := frame.Checksum(buf[:headerCRCOff])
	binary.LittleEndian.PutUint32(buf[headerCRCOff:headerCRCOff+4], crc)
	return buf
}

// headerVerdict classifies a parsed header.
type headerVerdict int

const (
	headerOK headerVerdict = iota
	// headerCorrupt: the file is damaged (bad magic, bad CRC) — remove it.
	headerCorrupt
	// headerForeign: intact but unusable here (other format version or
	// architecture, or a key mismatch) — treat as a miss, leave the file
	// for the native writer to replace atomically.
	headerForeign
)

func parseHeader(buf []byte, want Key) (header, headerVerdict) {
	var h header
	if len(buf) < headerSize || string(buf[0:4]) != headerMagic {
		return h, headerCorrupt
	}
	crc := frame.Checksum(buf[:headerCRCOff])
	if binary.LittleEndian.Uint32(buf[headerCRCOff:headerCRCOff+4]) != crc {
		return h, headerCorrupt
	}
	if binary.LittleEndian.Uint32(buf[4:8]) != FormatVersion {
		return h, headerForeign
	}
	if binary.LittleEndian.Uint64(buf[8:16]) != layoutSig {
		return h, headerForeign
	}
	h.count = int(binary.LittleEndian.Uint64(buf[16:24]))
	h.metaLen = int(binary.LittleEndian.Uint64(buf[24:32]))
	copy(h.key[:], buf[32:64])
	if h.key != want {
		return h, headerForeign
	}
	return h, headerOK
}

// recordBytes reinterprets a record slab as its raw byte image. The
// compile-time layout assertion above makes this exact.
func recordBytes(recs []champtrace.Instruction) []byte {
	if len(recs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&recs[0])), len(recs)*recordSize)
}

// viewRecords reinterprets the page-aligned record region of a mapping as
// instruction values. The caller has validated count against the file size.
func viewRecords(data []byte, count int) []champtrace.Instruction {
	if count == 0 {
		return nil
	}
	return unsafe.Slice((*champtrace.Instruction)(unsafe.Pointer(&data[headerSize])), count)
}

func encodeMeta(conv core.Stats) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(conv); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeMeta(b []byte) (core.Stats, error) {
	var conv core.Stats
	err := gob.NewDecoder(bytes.NewReader(b)).Decode(&conv)
	return conv, err
}

// fileSize returns the exact byte size a slab file with this header must
// have.
func (h header) fileSize() int64 {
	return int64(headerSize) + int64(h.count)*int64(recordSize) + int64(h.metaLen) + footerSize
}

// metaRegion returns the gob-encoded converter statistics between the
// record region and the footer. Valid only after checkFooter has accepted
// the mapping (which pins the file size to the header's count and metaLen).
func metaRegion(data []byte, h header) []byte {
	metaOff := int64(headerSize) + int64(h.count)*int64(recordSize)
	return data[metaOff : metaOff+int64(h.metaLen)]
}

// checkFooter validates the data CRC and end magic over a complete mapping.
// It sums the body a dropStep at a time and drops each step's pages once
// summed, so the check leaves about one step of the file resident.
func checkFooter(data []byte, h header) bool {
	end := h.fileSize()
	if int64(len(data)) != end {
		return false
	}
	var crc uint32
	for body := data[headerSize : end-footerSize]; len(body) > 0; {
		n := min(len(body), dropStep)
		crc = frame.Update(crc, body[:n])
		dropPages(body[:n])
		body = body[n:]
	}
	if binary.LittleEndian.Uint32(data[end-footerSize:end-4]) != crc {
		return false
	}
	return string(data[end-4:end]) == footerMagic
}

// encodeFooter frames an incrementally-computed data CRC (over
// records+meta) so the writer can stream the body without buffering it.
func encodeFooter(crc uint32) []byte {
	buf := make([]byte, footerSize)
	binary.LittleEndian.PutUint32(buf[0:4], crc)
	copy(buf[4:], footerMagic)
	return buf
}
