package ivstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"mica/internal/stats"
)

// Shard file layout (all integers little-endian):
//
//	offset 0   magic "MICAIVS1" (8 bytes)
//	offset 8   encoding byte (0 = float32, the only one)
//	offset 9   3 reserved bytes (zero)
//	offset 12  rows  uint32
//	offset 16  cols  uint32
//	offset 20  insts: rows x uint64 (per-interval instruction counts)
//	then       payload, column-major ("columnar"): cols blocks of
//	           rows x float32
//	end        crc32 (IEEE) over every preceding byte, uint32
//
// The columnar layout keeps same-metric values adjacent on disk.
// Decoding validates the magic, the encoding byte, the exact file
// length implied by the header (computed in 64-bit arithmetic, so
// oversized or truncated headers fail before any allocation) and the
// trailing CRC; a corrupt file is always an error, never a panic.

const (
	shardMagic     = "MICAIVS1"
	shardHdrSize   = 20
	encByteFloat32 = 0
)

// payloadSize returns the payload byte count for a rows x cols shard,
// and whether that count is representable without uint64 overflow — a
// crafted header whose implied size wraps around must be rejected, not
// allowed to alias a small file's length.
func payloadSize(rows, cols uint64) (uint64, bool) {
	hi, lo := bits.Mul64(rows, cols)
	if hi != 0 {
		return 0, false
	}
	hi, lo = bits.Mul64(lo, 4)
	return lo, hi == 0
}

// encodeShard serializes one shard.
func encodeShard(insts []uint64, vecs *stats.Matrix) []byte {
	rows, cols := uint64(vecs.Rows), uint64(vecs.Cols)
	payload, _ := payloadSize(rows, cols) // real matrices cannot overflow
	size := shardHdrSize + 8*rows + payload + 4
	buf := make([]byte, 0, size)
	buf = append(buf, shardMagic...)
	buf = append(buf, encByteFloat32, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cols))
	for _, n := range insts {
		buf = binary.LittleEndian.AppendUint64(buf, n)
	}
	for j := 0; j < vecs.Cols; j++ {
		for i := 0; i < vecs.Rows; i++ {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(vecs.At(i, j))))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeShard parses and validates one shard file, returning the
// per-interval instruction counts and the row-major float64 vector
// matrix.
func decodeShard(raw []byte) (insts []uint64, vecs *stats.Matrix, err error) {
	if len(raw) < shardHdrSize+4 {
		return nil, nil, fmt.Errorf("shard truncated at %d bytes", len(raw))
	}
	if string(raw[:8]) != shardMagic {
		return nil, nil, fmt.Errorf("bad shard magic %q", raw[:8])
	}
	if enc := raw[8]; enc != encByteFloat32 {
		return nil, nil, fmt.Errorf("unknown shard encoding byte %d", enc)
	}
	rows := uint64(binary.LittleEndian.Uint32(raw[12:16]))
	cols := uint64(binary.LittleEndian.Uint32(raw[16:20]))
	if rows == 0 || cols == 0 {
		return nil, nil, fmt.Errorf("empty shard (%d rows x %d cols)", rows, cols)
	}
	// rows and cols come off the wire as uint32, so 8*rows below cannot
	// overflow; the payload product can, and payloadSize reports it.
	payload, ok := payloadSize(rows, cols)
	if !ok || payload > math.MaxUint64-(shardHdrSize+8*rows+4) {
		return nil, nil, fmt.Errorf("shard header implies an impossible size (%d rows x %d cols)", rows, cols)
	}
	want := shardHdrSize + 8*rows + payload + 4
	if uint64(len(raw)) != want {
		return nil, nil, fmt.Errorf("shard is %d bytes, header implies %d (%d rows x %d cols)",
			len(raw), want, rows, cols)
	}
	body, sum := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, nil, fmt.Errorf("shard checksum %08x does not match stored %08x", got, sum)
	}

	insts = make([]uint64, rows)
	off := uint64(shardHdrSize)
	for i := range insts {
		insts[i] = binary.LittleEndian.Uint64(raw[off : off+8])
		off += 8
	}
	vecs = stats.NewMatrix(int(rows), int(cols))
	for j := uint64(0); j < cols; j++ {
		for i := uint64(0); i < rows; i++ {
			bits := binary.LittleEndian.Uint32(raw[off : off+4])
			vecs.Set(int(i), int(j), float64(math.Float32frombits(bits)))
			off += 4
		}
	}
	return insts, vecs, nil
}
