// On-disk trace format.
//
// A trace file is a versioned, CRC32-checked container for one Event
// stream, packed so that the dominant cost of replay is the observer,
// not the decode. The layout:
//
//	header:  magic "MICATRC\x00" (8) | version u32le | reserved u32le (0)
//	blocks:  length u32le | crc32(payload) u32le | payload
//	trailer: 0xFFFFFFFF u32le | total events u64le
//
// Each block payload is
//
//	uvarint nStatic | nStatic static records | uvarint nEvents | events
//
// A static record defines one static instruction, keyed by its code
// index (PC = isa.CodeBase + 4*index), the first time the stream
// touches it:
//
//	uvarint pcIndex | op u8 | flags u8 | NSrc source regs | dst reg if any
//
// A trace holds at most 1<<14 static records in all.
// flags packs HasDst (bit 0) and NSrc (bits 1-2); the remaining bits
// must be zero. Everything else an Event carries — Class, MemSize,
// Conditional, the dependence-carrying operand views — is derived from
// the opcode and the operand registers at decode time, exactly as the
// VM derives it from isa.InstMeta, so the replayed events are
// bit-identical to the recorded ones.
//
// An event record is a reference to its static record plus only the
// dynamic bits of that instruction kind:
//
//	zigzag uvarint delta of the static id (runs of the same loop body
//	  encode in one byte each)
//	loads/stores: zigzag uvarint delta of MemAddr against the previous
//	  memory access (strided access patterns encode in 1-2 bytes)
//	conditional branches: uvarint t — 0 is not-taken (the target is the
//	  fall-through, implied), t-1 the zigzag delta of the taken target's
//	  code index against fall-through
//	unconditional branches and jumps: zigzag uvarint delta of the
//	  target's code index against fall-through
//
// Sequence numbers are implicit (events are stored in order, starting
// at 0) and branch fall-through addresses are derived from the static
// record, so the common straight-line instruction costs one byte.
package trace

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"mica/internal/isa"
)

// Magic identifies a trace file; Version is the current format
// version. Decoders reject other versions with an error naming the
// file, matching the version-mismatch contract of the ivstore
// manifest.
const (
	Magic   = "MICATRC\x00"
	Version = 1
)

const (
	headerLen = 16
	// endMarker in the block-length slot terminates the block sequence.
	endMarker = 0xFFFFFFFF
	// maxBlockLen bounds a single block payload so corrupt headers
	// cannot demand absurd allocations.
	maxBlockLen = 1 << 24
	// maxPCIndex bounds static code indexes (16M instructions of code).
	maxPCIndex = 1 << 24
	// maxStatics bounds a trace's static records, so a crafted trace
	// cannot grow the per-instruction state of its consumers (the PPM
	// analyzer keeps counter blocks per static branch) without limit.
	// The registry's largest program executes 82 static instructions.
	maxStatics = 1 << 14
	// blockTarget is the payload size the Writer flushes at.
	blockTarget = 64 << 10
)

// Static-instruction kinds, derived from the opcode format; they select
// which dynamic fields an event record carries.
const (
	kindPlain  = iota // no dynamic fields beyond the sequence number
	kindMem           // loads/stores: MemAddr
	kindCond          // conditional branches: Taken + Target
	kindUncond        // unconditional branches, jumps: Target
)

// staticFlags packs the static-record flag byte.
func staticFlags(hasDst bool, nsrc uint8) uint8 {
	f := nsrc << 1
	if hasDst {
		f |= 1
	}
	return f
}

// buildStatic validates one static instruction's encodable fields and
// returns the replay template — a fully derived Event with the dynamic
// fields zeroed — plus its kind. Writer and Reader both build templates
// through here, which is what makes recording self-verifying: the
// Writer compares every incoming event against the template the Reader
// will reconstruct.
func buildStatic(pcIndex uint64, op isa.Op, src [3]isa.Reg, nsrc uint8, dst isa.Reg, hasDst bool) (Event, uint8, error) {
	if pcIndex > maxPCIndex {
		return Event{}, 0, fmt.Errorf("code index %d out of range", pcIndex)
	}
	if op == isa.OpInvalid || int(op) >= isa.NumOps {
		return Event{}, 0, fmt.Errorf("invalid opcode %d", uint8(op))
	}
	if nsrc > uint8(len(src)) {
		return Event{}, 0, fmt.Errorf("source register count %d out of range", nsrc)
	}
	for i := uint8(0); i < nsrc; i++ {
		if !src[i].Valid() {
			return Event{}, 0, fmt.Errorf("invalid source register %d", uint8(src[i]))
		}
	}
	if hasDst && !dst.Valid() {
		return Event{}, 0, fmt.Errorf("invalid destination register %d", uint8(dst))
	}
	if !hasDst {
		dst = isa.RegInvalid
	}
	tmpl := Event{
		PC:          isa.PCForIndex(int(pcIndex)),
		Op:          op,
		Class:       op.Class(),
		Src:         src,
		NSrc:        nsrc,
		Dst:         dst,
		HasDst:      hasDst,
		MemSize:     op.MemSize(),
		Conditional: op.IsConditional(),
	}
	tmpl.DeriveDeps()
	kind := uint8(kindPlain)
	switch op.Format() {
	case isa.FmtMem:
		kind = kindMem
	case isa.FmtBranch:
		if tmpl.Conditional {
			kind = kindCond
		} else {
			kind = kindUncond
		}
	case isa.FmtJump:
		kind = kindUncond
	}
	return tmpl, kind, nil
}

// zigzag maps signed deltas onto small unsigned varints.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// checkHeader validates the fixed file header, naming the trace in
// every error. name is the path (or an upload label) for diagnostics.
func checkHeader(data []byte, name string) error {
	if len(data) < headerLen {
		return fmt.Errorf("trace: %s: truncated header (%d bytes)", name, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return fmt.Errorf("trace: %s: not a trace file (bad magic)", name)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != Version {
		return fmt.Errorf("trace: %s: trace format version %d, want %d", name, v, Version)
	}
	if r := binary.LittleEndian.Uint32(data[12:]); r != 0 {
		return fmt.Errorf("trace: %s: nonzero reserved header field %#x", name, r)
	}
	return nil
}

// appendHeader appends the fixed file header to buf.
func appendHeader(buf []byte) []byte {
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	return binary.LittleEndian.AppendUint32(buf, 0)
}

// SaveBytes durably writes an already encoded trace to path using the
// same tmp -> fsync -> rename protocol the Writer (and ivstore) use,
// after checking that the bytes carry a current trace header. It is how
// the serving layer persists validated uploads.
func SaveBytes(path string, data []byte) error {
	if err := checkHeader(data, path); err != nil {
		return err
	}
	return writeFileDurable(path, data)
}

// writeFileDurable writes data to path via a temporary file in the same
// directory, fsyncing the file before the rename and the directory
// after, so a crash leaves either the old content or the new, never a
// torn file under the committed name.
func writeFileDurable(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a preceding rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
