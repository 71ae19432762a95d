package expstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"tracerebase/internal/frame"
)

// A block file is one frame record (see package frame):
//
//	magic "EXPR", FormatVersion, schemaKey as the frame key, payload length
//	payload: the cell count as a uvarint, then one row per cell; a row is
//	  the cell's columns in schema order — uint as uvarint, float as 8
//	  little-endian bytes, string as uvarint length then bytes, key as 32
//	  raw bytes
//	CRC-32C of the payload
//
// Every uvarint is in its shortest form, so a block decodes to exactly one
// cell list and re-encodes to the same bytes.
const blockMagic = "EXPR"

// KeyBytes is the width of a cell content key.
const KeyBytes = 32

// blockVerdict sorts a block file, mirroring the tracestore trichotomy.
type blockVerdict int

const (
	blockOK blockVerdict = iota
	// blockCorrupt: truncated or failing its checksum — remove it; the
	// cells reappear on the next sweep.
	blockCorrupt
	// blockForeign: another magic, format version or schema (every v1
	// "EXPB" block) — skip it, never delete it.
	blockForeign
)

// minRowBytes is the shortest encoded row, which bounds the cell count a
// payload can claim.
var minRowBytes = func() int {
	n := 0
	for _, c := range columns {
		switch c.kind {
		case kindFloat:
			n += 8
		case kindKey:
			n += KeyBytes
		default:
			n++ // a uvarint, or an empty string's length
		}
	}
	return n
}()

// EncodeBlock lays out cells as one complete block file image.
func EncodeBlock(cells []Cell) []byte {
	b := binary.AppendUvarint(nil, uint64(len(cells)))
	for i := range cells {
		c := &cells[i]
		for j := range columns {
			col := &columns[j]
			switch col.kind {
			case kindString:
				s := *col.str(c)
				b = binary.AppendUvarint(b, uint64(len(s)))
				b = append(b, s...)
			case kindUint:
				b = binary.AppendUvarint(b, *col.u64(c))
			case kindFloat:
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(*col.f64(c)))
			case kindKey:
				k := col.ckey(c)
				b = append(b, k[:]...)
			}
		}
	}
	return frame.Encode(blockMagic, FormatVersion, schemaKey, b)
}

// DecodeBlock decodes a block image back to its cells, in block order. A
// foreign or corrupt block is an error.
func DecodeBlock(buf []byte) ([]Cell, error) {
	rows, n, _, err := openBlock(buf)
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, n)
	if err := decodeRows(rows, cells, nil); err != nil {
		return nil, err
	}
	return cells, nil
}

// openBlock checks a block image's frame and returns its rows and cell
// count, or the verdict on a block it cannot serve.
func openBlock(buf []byte) (rows []byte, n int, v blockVerdict, err error) {
	const keyOff = 8 // magic, version
	if len(buf) >= 4 && string(buf[:4]) != blockMagic {
		return nil, 0, blockForeign, fmt.Errorf("expstore: foreign block: magic %q", buf[:4])
	}
	if len(buf) >= keyOff && binary.LittleEndian.Uint32(buf[4:8]) != FormatVersion {
		return nil, 0, blockForeign, fmt.Errorf("expstore: foreign block: format version %d", binary.LittleEndian.Uint32(buf[4:8]))
	}
	if len(buf) >= keyOff+KeyBytes && string(buf[keyOff:keyOff+KeyBytes]) != string(schemaKey[:]) {
		return nil, 0, blockForeign, fmt.Errorf("expstore: foreign block: schema %x", buf[keyOff:keyOff+KeyBytes])
	}
	payload, err := frame.Decode(blockMagic, FormatVersion, schemaKey, buf)
	if err != nil {
		return nil, 0, blockCorrupt, err
	}
	count, rows, ok := uvarint(payload)
	if !ok || count == 0 || count > uint64(len(rows)/minRowBytes) {
		return nil, 0, blockCorrupt, fmt.Errorf("%w: bad cell count", frame.ErrCorrupt)
	}
	return rows, int(count), blockOK, nil
}

// uvarint reads one shortest-form uvarint off the front of b.
func uvarint(b []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) { // truncated, overflowing or padded
		return 0, nil, false
	}
	return v, b[n:], true
}

// decodeRows decodes exactly len(dst) rows into dst. Strings are interned
// through intern, when given, so a loaded row set holds each distinct
// trace, variant or build name once. Every read is bounds-checked: this
// path is fuzzed with arbitrary bytes.
func decodeRows(b []byte, dst []Cell, intern map[string]string) error {
	for i := range dst {
		c := &dst[i]
		*c = Cell{}
		for j := range columns {
			col := &columns[j]
			var ok bool
			switch col.kind {
			case kindString:
				var n uint64
				if n, b, ok = uvarint(b); ok && n <= uint64(len(b)) {
					s, seen := intern[string(b[:n])]
					if !seen {
						s = string(b[:n])
						if intern != nil {
							intern[s] = s
						}
					}
					*col.str(c), b = s, b[n:]
				} else {
					ok = false
				}
			case kindUint:
				*col.u64(c), b, ok = uvarint(b)
			case kindFloat:
				if ok = len(b) >= 8; ok {
					*col.f64(c), b = math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:]
				}
			case kindKey:
				if ok = len(b) >= KeyBytes; ok {
					*col.ckey(c), b = Key(b[:KeyBytes]), b[KeyBytes:]
				}
			}
			if !ok {
				return fmt.Errorf("%w: row %d: bad %s", frame.ErrCorrupt, i, col.name)
			}
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("%w: %d bytes after the last row", frame.ErrCorrupt, len(b))
	}
	return nil
}
