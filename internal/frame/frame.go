// Package frame holds the self-validating record framing shared by every
// on-disk store in the tree: the result cache's TRRC records (and their
// HTTP wire form), the compiled-trace slab store's checksums, and the
// experiment store's blocks. A frame binds a payload to the 32-byte
// content key it was stored under — magic, version, embedded key, length,
// and a CRC-32C over the payload — so a renamed, truncated, bit-flipped,
// or misrouted record reads as corrupt instead of as data.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// KeySize is the embedded content-key width (SHA-256).
const KeySize = 32

// ErrCorrupt marks a frame that failed structural validation — truncated,
// checksum mismatch, wrong key, or an unknown version. Callers treat it as
// a miss: the record is discarded and recomputed, never served.
var ErrCorrupt = errors.New("frame: corrupt record")

// castagnoli is the CRC-32C polynomial table every store shares.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C (Castagnoli) of data.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// Update extends a running CRC-32C with data, for writers that stream a
// body without buffering it.
func Update(crc uint32, data []byte) uint32 { return crc32.Update(crc, castagnoli, data) }

// Record layout (all integers little-endian):
//
//	magic   [4]byte  caller-chosen, e.g. "TRRC"
//	version uint32
//	key     [32]byte the record's own content key (guards renamed files)
//	paylen  uint64   payload length
//	payload [paylen]byte
//	crc     uint32   CRC-32C (Castagnoli) of payload
const (
	headerSize  = 4 + 4 + KeySize + 8
	trailerSize = 4
	// MinRecordSize is the smallest well-formed record (empty payload).
	MinRecordSize = headerSize + trailerSize
)

// Encode frames payload as a self-validating record for key under the
// given 4-byte magic and version.
func Encode(magic string, version uint32, key [KeySize]byte, payload []byte) []byte {
	if len(magic) != 4 {
		panic(fmt.Sprintf("frame: magic %q must be 4 bytes", magic))
	}
	buf := make([]byte, headerSize+len(payload)+trailerSize)
	copy(buf[0:4], magic)
	binary.LittleEndian.PutUint32(buf[4:8], version)
	copy(buf[8:8+KeySize], key[:])
	binary.LittleEndian.PutUint64(buf[8+KeySize:headerSize], uint64(len(payload)))
	copy(buf[headerSize:], payload)
	binary.LittleEndian.PutUint32(buf[headerSize+len(payload):], Checksum(payload))
	return buf
}

// Decode validates a record's framing against the expected magic, version,
// and key, and returns the payload (aliasing buf). Any structural problem
// yields an error wrapping ErrCorrupt.
func Decode(magic string, version uint32, key [KeySize]byte, buf []byte) ([]byte, error) {
	if len(buf) < MinRecordSize {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrCorrupt, len(buf), MinRecordSize)
	}
	if string(buf[0:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, buf[0:4])
	}
	if v := binary.LittleEndian.Uint32(buf[4:8]); v != version {
		return nil, fmt.Errorf("%w: record version %d, want %d", ErrCorrupt, v, version)
	}
	var stored [KeySize]byte
	copy(stored[:], buf[8:8+KeySize])
	if stored != key {
		return nil, fmt.Errorf("%w: key mismatch (%x stored)", ErrCorrupt, stored)
	}
	paylen := binary.LittleEndian.Uint64(buf[8+KeySize : headerSize])
	if paylen != uint64(len(buf)-MinRecordSize) {
		return nil, fmt.Errorf("%w: payload length %d, record holds %d", ErrCorrupt, paylen, len(buf)-MinRecordSize)
	}
	payload := buf[headerSize : headerSize+int(paylen)]
	crc := binary.LittleEndian.Uint32(buf[headerSize+int(paylen):])
	if got := Checksum(payload); got != crc {
		return nil, fmt.Errorf("%w: checksum %08x, want %08x", ErrCorrupt, got, crc)
	}
	return payload, nil
}
