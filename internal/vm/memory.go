// Package vm implements the interpreter for the synthetic ISA. The VM is
// the reproduction's execution substrate: it runs assembled programs over a
// sparse paged memory and streams one trace.Event per retired instruction
// to registered observers, standing in for ATOM instrumentation of Alpha
// binaries.
package vm

import (
	"encoding/binary"

	"mica/internal/flathash"
)

// pageBits is log2 of the VM memory page size.
const pageBits = 12

// PageSize is the VM memory page size in bytes.
const PageSize = 1 << pageBits

const pageMask = PageSize - 1

// noPage is the µTLB tag for "no page cached"; no valid page number can
// reach it (it would need a 76-bit address space).
const noPage = ^uint64(0)

// Memory is a sparse, demand-allocated paged memory. Reads of unmapped
// pages return zeroes without allocating; writes allocate pages. All
// multi-byte accesses are little-endian and may straddle page boundaries.
//
// Page lookup is two-level: a single-entry page cache (µTLB) catches the
// sequential-access common case with one compare, and behind it a flat
// open-addressed table maps page numbers to slots in a page arena —
// no built-in map traffic anywhere on the access path.
type Memory struct {
	// lastPN/lastPage cache the most recently resolved mapped page.
	lastPN   uint64
	lastPage *[PageSize]byte

	// pageIndex maps a page number to 1 + its index in pages.
	pageIndex *flathash.U64Map
	pages     []*[PageSize]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{lastPN: noPage, pageIndex: flathash.NewU64Map(0)}
}

// Reset drops all mapped pages.
func (m *Memory) Reset() {
	m.lastPN, m.lastPage = noPage, nil
	m.pageIndex = flathash.NewU64Map(0)
	clear(m.pages) // release the page memory, not just the slots
	m.pages = m.pages[:0]
}

// MappedPages returns the number of pages currently allocated.
func (m *Memory) MappedPages() int { return len(m.pages) }

func (m *Memory) page(addr uint64, alloc bool) *[PageSize]byte {
	pn := addr >> pageBits
	if pn == m.lastPN {
		return m.lastPage
	}
	return m.pageSlow(pn, alloc)
}

func (m *Memory) pageSlow(pn uint64, alloc bool) *[PageSize]byte {
	if off, ok := m.pageIndex.Get(pn); ok {
		p := m.pages[off-1]
		m.lastPN, m.lastPage = pn, p
		return p
	}
	if !alloc {
		return nil
	}
	p := new([PageSize]byte)
	m.pages = append(m.pages, p)
	m.pageIndex.Put(pn, uint64(len(m.pages)))
	m.lastPN, m.lastPage = pn, p
	return p
}

// ByteAt reads one byte.
func (m *Memory) ByteAt(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// Read fills buf from memory starting at addr.
func (m *Memory) Read(addr uint64, buf []byte) {
	for len(buf) > 0 {
		off := addr & pageMask
		n := PageSize - off
		if uint64(len(buf)) < n {
			n = uint64(len(buf))
		}
		if p := m.page(addr, false); p != nil {
			copy(buf[:n], p[off:off+n])
		} else {
			for i := uint64(0); i < n; i++ {
				buf[i] = 0
			}
		}
		buf = buf[n:]
		addr += n
	}
}

// Write copies buf into memory starting at addr.
func (m *Memory) Write(addr uint64, buf []byte) {
	for len(buf) > 0 {
		off := addr & pageMask
		n := PageSize - off
		if uint64(len(buf)) < n {
			n = uint64(len(buf))
		}
		copy(m.page(addr, true)[off:off+n], buf[:n])
		buf = buf[n:]
		addr += n
	}
}

// ReadUint reads an unsigned little-endian integer of the given width
// (1, 2, 4 or 8 bytes).
func (m *Memory) ReadUint(addr uint64, size int) uint64 {
	// Fast path: access within one page.
	off := addr & pageMask
	if p := m.page(addr, false); p != nil && off+uint64(size) <= PageSize {
		switch size {
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		}
	}
	var buf [8]byte
	m.Read(addr, buf[:size])
	switch size {
	case 1:
		return uint64(buf[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(buf[:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(buf[:]))
	case 8:
		return binary.LittleEndian.Uint64(buf[:])
	}
	panic("vm: bad access size")
}

// WriteUint writes an unsigned little-endian integer of the given width.
func (m *Memory) WriteUint(addr uint64, size int, v uint64) {
	off := addr & pageMask
	if off+uint64(size) <= PageSize {
		p := m.page(addr, true)
		switch size {
		case 1:
			p[off] = byte(v)
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
			return
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
			return
		}
	}
	var buf [8]byte
	switch size {
	case 1:
		buf[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(buf[:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(buf[:], v)
	default:
		panic("vm: bad access size")
	}
	m.Write(addr, buf[:size])
}
