package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"mica/internal/isa"
)

// Writer is a recording Observer: attach it to any Source (typically a
// VM run, possibly alongside profilers via Multi) and it streams the
// events into the on-disk trace format. The file is written through the
// tmp -> fsync -> rename protocol, so the committed name only ever
// holds a complete trace; until Close succeeds nothing exists at path.
//
// Writer verifies as it encodes: every event is compared against the
// exact Event the Reader will reconstruct, so a stream that is not
// representable (static instruction metadata changing under one PC,
// non-sequential sequence numbers, invalid registers) is rejected at
// record time instead of replaying wrong. Observe cannot return an
// error, so failures are sticky and surface from Close.
type Writer struct {
	path string
	tmp  string
	f    *os.File
	bw   *bufio.Writer

	statics   map[uint64]uint32 // pcIndex -> static id
	templates []Event
	kinds     []uint8
	base      []uint64 // fall-through code index (pcIndex+1) per static

	staticBuf []byte // encoded static records pending in this block
	eventBuf  []byte // encoded event records pending in this block
	nStatics  int    // static records pending in this block
	nEvents   int    // events pending in this block

	prevStatic  uint32
	prevMemAddr uint64
	count       uint64

	err    error
	closed bool
}

// NewWriter creates a trace writer targeting path. The data goes to
// path+".tmp" until Close renames it into place.
func NewWriter(path string) (*Writer, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{
		path:    path,
		tmp:     tmp,
		f:       f,
		bw:      bufio.NewWriterSize(f, 256<<10),
		statics: make(map[uint64]uint32),
	}
	if _, err := w.bw.Write(appendHeader(nil)); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	return w, nil
}

// Events returns the number of events recorded so far.
func (w *Writer) Events() uint64 { return w.count }

// fail records the first error; later events are dropped.
func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Observe implements Observer, encoding one event.
func (w *Writer) Observe(ev *Event) {
	if w.err != nil || w.closed {
		return
	}
	if ev.Seq != w.count {
		w.fail(fmt.Errorf("trace: %s: event sequence %d, want %d (record from a fresh source)", w.path, ev.Seq, w.count))
		return
	}
	if ev.PC < isa.CodeBase || (ev.PC-isa.CodeBase)%isa.InstBytes != 0 {
		w.fail(fmt.Errorf("trace: %s: event %d at non-code address %#x", w.path, ev.Seq, ev.PC))
		return
	}
	pcIndex := (ev.PC - isa.CodeBase) / isa.InstBytes
	id, ok := w.statics[pcIndex]
	if !ok {
		var err error
		id, err = w.addStatic(pcIndex, ev)
		if err != nil {
			w.fail(fmt.Errorf("trace: %s: event %d: %w", w.path, ev.Seq, err))
			return
		}
	}

	// Reconstruct the event exactly as the Reader will and require the
	// input to match: the template plus this kind's dynamic fields.
	expected := w.templates[id]
	expected.Seq = ev.Seq
	kind := w.kinds[id]
	switch kind {
	case kindMem:
		expected.MemAddr = ev.MemAddr
	case kindCond:
		expected.Taken = ev.Taken
		if ev.Taken {
			expected.Target = ev.Target
		} else {
			expected.Target = isa.PCForIndex(int(w.base[id]))
		}
	case kindUncond:
		expected.Taken = true
		expected.Target = ev.Target
	}
	if expected != *ev {
		w.fail(fmt.Errorf("trace: %s: event %d at pc %#x does not match its static instruction record", w.path, ev.Seq, ev.PC))
		return
	}

	w.eventBuf = binary.AppendUvarint(w.eventBuf, zigzag(int64(id)-int64(w.prevStatic)))
	w.prevStatic = id
	switch kind {
	case kindMem:
		w.eventBuf = binary.AppendUvarint(w.eventBuf, zigzag(int64(ev.MemAddr-w.prevMemAddr)))
		w.prevMemAddr = ev.MemAddr
	case kindCond:
		if !ev.Taken {
			w.eventBuf = append(w.eventBuf, 0)
		} else {
			d, err := w.targetDelta(id, ev)
			if err != nil {
				return
			}
			w.eventBuf = binary.AppendUvarint(w.eventBuf, zigzag(d)+1)
		}
	case kindUncond:
		d, err := w.targetDelta(id, ev)
		if err != nil {
			return
		}
		w.eventBuf = binary.AppendUvarint(w.eventBuf, zigzag(d))
	}
	w.count++
	w.nEvents++
	if len(w.eventBuf)+len(w.staticBuf) >= blockTarget {
		w.flushBlock()
	}
}

// targetDelta encodes a taken-branch target as a code-index delta
// against the fall-through; it fails the writer on non-code targets.
func (w *Writer) targetDelta(id uint32, ev *Event) (int64, error) {
	if ev.Target < isa.CodeBase || (ev.Target-isa.CodeBase)%isa.InstBytes != 0 {
		err := fmt.Errorf("trace: %s: event %d branches to non-code address %#x", w.path, ev.Seq, ev.Target)
		w.fail(err)
		return 0, err
	}
	tIdx := (ev.Target - isa.CodeBase) / isa.InstBytes
	if tIdx > maxPCIndex {
		err := fmt.Errorf("trace: %s: event %d branch target index %d out of range", w.path, ev.Seq, tIdx)
		w.fail(err)
		return 0, err
	}
	return int64(tIdx) - int64(w.base[id]), nil
}

// addStatic registers the static instruction behind ev and appends its
// encoded record to the pending block.
func (w *Writer) addStatic(pcIndex uint64, ev *Event) (uint32, error) {
	if len(w.templates) >= maxStatics {
		return 0, fmt.Errorf("more than %d static instructions", maxStatics)
	}
	dst := ev.Dst
	if !ev.HasDst {
		dst = isa.RegInvalid
	}
	tmpl, kind, err := buildStatic(pcIndex, ev.Op, ev.Src, ev.NSrc, dst, ev.HasDst)
	if err != nil {
		return 0, err
	}
	id := uint32(len(w.templates))
	w.statics[pcIndex] = id
	w.templates = append(w.templates, tmpl)
	w.kinds = append(w.kinds, kind)
	w.base = append(w.base, pcIndex+1)

	w.nStatics++
	w.staticBuf = binary.AppendUvarint(w.staticBuf, pcIndex)
	w.staticBuf = append(w.staticBuf, uint8(ev.Op), staticFlags(ev.HasDst, ev.NSrc))
	for i := uint8(0); i < ev.NSrc; i++ {
		w.staticBuf = append(w.staticBuf, uint8(ev.Src[i]))
	}
	if ev.HasDst {
		w.staticBuf = append(w.staticBuf, uint8(ev.Dst))
	}
	return id, nil
}

// flushBlock frames the pending statics and events as one CRC-checked
// block and hands it to the buffered file.
func (w *Writer) flushBlock() {
	if w.err != nil || (len(w.staticBuf) == 0 && w.nEvents == 0) {
		return
	}
	payload := binary.AppendUvarint(nil, uint64(w.nStatics))
	payload = append(payload, w.staticBuf...)
	payload = binary.AppendUvarint(payload, uint64(w.nEvents))
	payload = append(payload, w.eventBuf...)

	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		w.fail(err)
		return
	}
	if _, err := w.bw.Write(payload); err != nil {
		w.fail(err)
		return
	}
	w.staticBuf = w.staticBuf[:0]
	w.eventBuf = w.eventBuf[:0]
	w.nStatics = 0
	w.nEvents = 0
}

// Discard abandons the recording and removes the temporary file. It is
// safe to call after a failed run instead of Close.
func (w *Writer) Discard() {
	if w.closed {
		return
	}
	w.closed = true
	w.f.Close()
	os.Remove(w.tmp)
}

// Close flushes the final block, writes the trailer, fsyncs and renames
// the file into place (fsyncing the directory after). If any event
// failed to encode, Close removes the temporary file and returns that
// error; path is untouched.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.flushBlock()
	if w.err != nil {
		w.Discard()
		return w.err
	}
	w.closed = true
	var trailer [12]byte
	binary.LittleEndian.PutUint32(trailer[:4], endMarker)
	binary.LittleEndian.PutUint64(trailer[4:], w.count)
	_, err := w.bw.Write(trailer[:])
	if err == nil {
		err = w.bw.Flush()
	}
	if err == nil {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(w.tmp, w.path)
	}
	if err == nil {
		err = syncDir(filepath.Dir(w.path))
	}
	if err != nil {
		os.Remove(w.tmp)
		w.err = err
	}
	return err
}

// Record runs src to completion (or through budget instructions) while
// recording every event to path, and returns the number of events
// recorded. Hitting the budget is the normal way to bound a trace and
// is not an error; any other source failure discards the partial file.
func Record(src Source, path string, budget uint64) (uint64, error) {
	w, err := NewWriter(path)
	if err != nil {
		return 0, err
	}
	n, err := src.Run(budget, w)
	if err != nil && !errors.Is(err, ErrBudget) {
		w.Discard()
		return n, err
	}
	if err := w.Close(); err != nil {
		return n, err
	}
	return n, nil
}
