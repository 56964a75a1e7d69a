package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"mica/internal/isa"
)

// Reader replays a recorded trace as a Source. It mirrors the VM's Run
// contract exactly — budget <= 0 is unlimited, ErrBudget when the
// budget stops delivery, nil when the trace ends (the replayed
// program's halt), sequence numbers continuing across calls — so every
// pipeline built on Source behaves identically over a Reader and a
// live machine.
//
// The whole file is held in memory (traces are megabytes; uploads are
// size-bounded) and decoded incrementally, so opening is cheap, replay
// touches no I/O, and Reset rewinds for a second pass without reopening
// the file. A Reader is not safe for concurrent use; replay passes that
// need independent cursors open the file twice.
//
// Decoding is defensive: lengths, CRCs, register numbers, opcodes and
// indexes are validated before use, so corrupt, truncated or oversized
// inputs return errors and never panic (FuzzTraceDecode pins this).
// Decode errors are sticky — once the stream is bad, every further Run
// fails.
type Reader struct {
	name string
	data []byte

	// Static instruction state, grown as blocks define records.
	templates []Event
	kinds     []uint8
	base      []uint64 // fall-through code index per static

	off     int // next block header offset in data
	evOff   int // next event byte in the current block
	evEnd   int // end of the current block's event bytes
	evLeft  int // events remaining in the current block
	seen    uint64
	retired uint64
	done    bool

	prevStatic  uint32
	prevMemAddr uint64

	err error
}

// Open reads the trace file at path into memory and prepares it for
// replay. Only the header is validated here; block checksums are
// verified as replay reaches them.
func Open(path string) (*Reader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return NewReader(data, path)
}

// NewReader prepares an in-memory encoded trace for replay. name labels
// the trace in error messages (Open passes the file path; the serving
// layer passes an upload label).
func NewReader(data []byte, name string) (*Reader, error) {
	if err := checkHeader(data, name); err != nil {
		return nil, err
	}
	return &Reader{name: name, data: data, off: headerLen}, nil
}

// Name returns the label the trace was opened under.
func (r *Reader) Name() string { return r.name }

// Retired returns the number of events replayed so far.
func (r *Reader) Retired() uint64 { return r.retired }

// Reset rewinds the reader to the start of the trace for another
// replay pass.
func (r *Reader) Reset() {
	r.templates = r.templates[:0]
	r.kinds = r.kinds[:0]
	r.base = r.base[:0]
	r.off = headerLen
	r.evOff, r.evEnd, r.evLeft = 0, 0, 0
	r.seen, r.retired = 0, 0
	r.done = false
	r.prevStatic, r.prevMemAddr = 0, 0
	r.err = nil
}

// corrupt builds and stickies a decode error.
func (r *Reader) corrupt(format string, args ...any) error {
	err := fmt.Errorf("trace: %s: %s", r.name, fmt.Sprintf(format, args...))
	if r.err == nil {
		r.err = err
	}
	return err
}

// Run implements Source, replaying up to budget events into obs.
func (r *Reader) Run(budget uint64, obs Observer) (uint64, error) {
	if r.err != nil {
		return 0, r.err
	}
	var (
		n    uint64
		ev   Event
		d    = r.data
		i    = r.evOff
		prev = r.prevStatic
	)
	defer func() {
		r.evOff = i
		r.prevStatic = prev
		r.retired += n
		metEventsDecoded.Add(float64(n))
	}()
	for {
		if budget > 0 && n >= budget {
			return n, ErrBudget
		}
		if r.evLeft == 0 {
			r.evOff = i
			if err := r.nextBlock(); err != nil {
				return n, err
			}
			i = r.evOff
			if r.done {
				return n, nil
			}
			continue
		}

		v, sz := binary.Uvarint(d[i:r.evEnd])
		if sz <= 0 {
			return n, r.corrupt("truncated event record at byte %d", i)
		}
		i += sz
		id := int64(prev) + unzigzag(v)
		if id < 0 || id >= int64(len(r.templates)) {
			return n, r.corrupt("event references undefined static record %d", id)
		}
		prev = uint32(id)

		ev = r.templates[id]
		ev.Seq = r.retired + n
		switch r.kinds[id] {
		case kindMem:
			v, sz = binary.Uvarint(d[i:r.evEnd])
			if sz <= 0 {
				return n, r.corrupt("truncated memory-address delta at byte %d", i)
			}
			i += sz
			r.prevMemAddr += uint64(unzigzag(v))
			ev.MemAddr = r.prevMemAddr
		case kindCond:
			v, sz = binary.Uvarint(d[i:r.evEnd])
			if sz <= 0 {
				return n, r.corrupt("truncated branch record at byte %d", i)
			}
			i += sz
			if v == 0 {
				ev.Target = isa.PCForIndex(int(r.base[id]))
			} else {
				t := int64(r.base[id]) + unzigzag(v-1)
				if t < 0 || t > maxPCIndex {
					return n, r.corrupt("branch target index %d out of range", t)
				}
				ev.Taken = true
				ev.Target = isa.PCForIndex(int(t))
			}
		case kindUncond:
			v, sz = binary.Uvarint(d[i:r.evEnd])
			if sz <= 0 {
				return n, r.corrupt("truncated jump record at byte %d", i)
			}
			i += sz
			t := int64(r.base[id]) + unzigzag(v)
			if t < 0 || t > maxPCIndex {
				return n, r.corrupt("jump target index %d out of range", t)
			}
			ev.Taken = true
			ev.Target = isa.PCForIndex(int(t))
		}
		if obs != nil {
			obs.Observe(&ev)
		}
		r.evLeft--
		n++
	}
}

// nextBlock frames and validates the next block (or the trailer),
// parsing its static records and positioning the event cursor.
func (r *Reader) nextBlock() error {
	if r.evOff != r.evEnd {
		return r.corrupt("block has %d trailing bytes after its events", r.evEnd-r.evOff)
	}
	d := r.data
	if r.off+4 > len(d) {
		return r.corrupt("truncated block header at byte %d", r.off)
	}
	bl := binary.LittleEndian.Uint32(d[r.off:])
	if bl == endMarker {
		if r.off+12 > len(d) {
			return r.corrupt("truncated trailer at byte %d", r.off)
		}
		total := binary.LittleEndian.Uint64(d[r.off+4:])
		if r.off+12 != len(d) {
			return r.corrupt("%d trailing bytes after trailer", len(d)-r.off-12)
		}
		if total != r.seen {
			return r.corrupt("trailer claims %d events, stream holds %d", total, r.seen)
		}
		r.done = true
		return nil
	}
	if bl > maxBlockLen {
		return r.corrupt("block length %d exceeds limit %d", bl, maxBlockLen)
	}
	if r.off+8+int(bl) > len(d) {
		return r.corrupt("truncated block at byte %d (%d byte payload)", r.off, bl)
	}
	want := binary.LittleEndian.Uint32(d[r.off+4:])
	payload := d[r.off+8 : r.off+8+int(bl)]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return r.corrupt("block at byte %d fails its checksum (%08x != %08x)", r.off, got, want)
	}
	r.off += 8 + int(bl)
	metBytesRead.Add(float64(8 + int(bl)))

	p := 0
	nStatic, sz := binary.Uvarint(payload)
	if sz <= 0 {
		return r.corrupt("unreadable static-record count")
	}
	p += sz
	// Each static record is at least 3 bytes, so the count is bounded
	// by the payload; reject inflated counts before growing anything.
	if nStatic > uint64(len(payload)-p)/3+1 {
		return r.corrupt("static-record count %d exceeds block size", nStatic)
	}
	if uint64(len(r.templates))+nStatic > maxStatics {
		return r.corrupt("more than %d static records", maxStatics)
	}
	for s := uint64(0); s < nStatic; s++ {
		pcIndex, sz := binary.Uvarint(payload[p:])
		if sz <= 0 {
			return r.corrupt("truncated static record %d", s)
		}
		p += sz
		if p+2 > len(payload) {
			return r.corrupt("truncated static record %d", s)
		}
		op := isa.Op(payload[p])
		flags := payload[p+1]
		p += 2
		if flags&^0b111 != 0 {
			return r.corrupt("static record %d has unknown flags %#x", s, flags)
		}
		hasDst := flags&1 != 0
		nsrc := flags >> 1
		var src [3]isa.Reg
		if p+int(nsrc) > len(payload) {
			return r.corrupt("truncated static record %d", s)
		}
		for i := uint8(0); i < nsrc; i++ {
			src[i] = isa.Reg(payload[p])
			p++
		}
		dst := isa.RegInvalid
		if hasDst {
			if p >= len(payload) {
				return r.corrupt("truncated static record %d", s)
			}
			dst = isa.Reg(payload[p])
			p++
		}
		tmpl, kind, err := buildStatic(pcIndex, op, src, nsrc, dst, hasDst)
		if err != nil {
			return r.corrupt("static record %d: %v", s, err)
		}
		r.templates = append(r.templates, tmpl)
		r.kinds = append(r.kinds, kind)
		r.base = append(r.base, pcIndex+1)
	}

	nEvents, sz := binary.Uvarint(payload[p:])
	if sz <= 0 {
		return r.corrupt("unreadable event count")
	}
	p += sz
	if nEvents > uint64(len(payload)-p) {
		return r.corrupt("event count %d exceeds block size", nEvents)
	}
	r.evOff = r.off - int(bl) + p
	r.evEnd = r.off
	r.evLeft = int(nEvents)
	r.seen += nEvents
	return nil
}

// Validate decodes an in-memory encoded trace end to end with no
// observer attached, returning the number of events it holds. The
// serving layer runs every upload through it before accepting the
// trace.
func Validate(data []byte) (uint64, error) {
	r, err := NewReader(data, "upload")
	if err != nil {
		return 0, err
	}
	return r.Run(0, nil)
}
