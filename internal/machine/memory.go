package machine

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/mem"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift

	// The page index is two-level: the high bits of the page number pick a
	// chunk (via a small map), the low chunkBits pick the page within it.
	// One chunk spans 4 MiB of address space, so each canonical region
	// (heap, per-thread stacks, text) lands in a handful of chunks and the
	// chunk cache below almost always hits.
	chunkBits = 10
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

type pageChunk [chunkSize]*[pageSize]byte

// memory is the sparse byte-addressed backing store of the simulated
// machine. Pages are allocated on first touch; unmapped reads return
// zeroes, matching anonymous mappings.
//
// Lookup is a last-page cache, then a last-chunk cache, then the two-level
// index — the common load/store never touches the chunk map.
type memory struct {
	chunks map[uint64]*pageChunk

	// Two-entry page cache: threads alternate between a working-set page
	// and a shared page (or data and stack), so one entry thrashes.
	lastPageNo  uint64
	lastPage    *[pageSize]byte
	prevPageNo  uint64
	prevPage    *[pageSize]byte
	lastChunkNo uint64
	lastChunk   *pageChunk
}

func newMemory() *memory {
	return &memory{
		chunks:      make(map[uint64]*pageChunk),
		lastPageNo:  ^uint64(0),
		prevPageNo:  ^uint64(0),
		lastChunkNo: ^uint64(0),
	}
}

// page resolves the page containing a, allocating it (and its chunk) on
// first touch when create is set; without create, unmapped pages are nil.
func (m *memory) page(a mem.Addr, create bool) *[pageSize]byte {
	pn := uint64(a) >> pageShift
	if pn == m.lastPageNo {
		return m.lastPage
	}
	if pn == m.prevPageNo {
		m.prevPageNo, m.lastPageNo = m.lastPageNo, m.prevPageNo
		m.prevPage, m.lastPage = m.lastPage, m.prevPage
		return m.lastPage
	}
	p := m.pageSlow(pn, create)
	if p != nil {
		m.prevPageNo, m.prevPage = m.lastPageNo, m.lastPage
		m.lastPageNo, m.lastPage = pn, p
	}
	return p
}

// pageSlow is the chunk-index walk behind the page caches.
func (m *memory) pageSlow(pn uint64, create bool) *[pageSize]byte {
	cn := pn >> chunkBits
	ch := m.lastChunk
	if cn != m.lastChunkNo {
		ch = m.chunks[cn]
		if ch == nil {
			if !create {
				return nil
			}
			ch = new(pageChunk)
			m.chunks[cn] = ch
		}
		m.lastChunkNo = cn
		m.lastChunk = ch
	}
	p := ch[pn&chunkMask]
	if p == nil {
		if !create {
			return nil
		}
		p = new([pageSize]byte)
		ch[pn&chunkMask] = p
	}
	return p
}

// load reads size bytes (1, 2, 4 or 8) little-endian, zero-extended.
func (m *memory) load(a mem.Addr, size uint8) uint64 {
	off := uint64(a) & (pageSize - 1)
	if off+uint64(size) <= pageSize {
		var p *[pageSize]byte
		if uint64(a)>>pageShift == m.lastPageNo {
			p = m.lastPage // skip even the page() call
		} else if p = m.page(a, false); p == nil {
			return 0
		}
		return getWord(p[off:], size)
	}
	// Page-crossing access: byte at a time.
	var v uint64
	for i := uint8(0); i < size; i++ {
		v |= uint64(m.loadByte(a+mem.Addr(i))) << (8 * i)
	}
	return v
}

func (m *memory) loadByte(a mem.Addr) byte {
	p := m.page(a, false)
	if p == nil {
		return 0
	}
	return p[uint64(a)&(pageSize-1)]
}

// store writes size bytes little-endian.
func (m *memory) store(a mem.Addr, size uint8, v uint64) {
	off := uint64(a) & (pageSize - 1)
	if off+uint64(size) <= pageSize {
		var p *[pageSize]byte
		if uint64(a)>>pageShift == m.lastPageNo {
			p = m.lastPage
		} else {
			p = m.page(a, true)
		}
		putWord(p[off:], size, v)
		return
	}
	for i := uint8(0); i < size; i++ {
		m.storeByte(a+mem.Addr(i), byte(v>>(8*i)))
	}
}

func (m *memory) storeByte(a mem.Addr, b byte) {
	m.page(a, true)[uint64(a)&(pageSize-1)] = b
}

// putWord stores the low size bytes of v little-endian at b[0:size].
func putWord(b []byte, size uint8, v uint64) {
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 1:
		b[0] = byte(v)
	default:
		for i := uint8(0); i < size; i++ {
			b[i] = byte(v >> (8 * i))
		}
	}
}

// getWord loads size bytes little-endian from b[0:size], zero-extended.
func getWord(b []byte, size uint8) uint64 {
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(b)
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 1:
		return uint64(b[0])
	}
	var v uint64
	for i := uint8(0); i < size; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// storeLine writes the bytes of data that mask selects into line l: the
// masked write-back behind Sheriff commits and SSB flushes. A line never
// spans pages; an empty mask writes (and maps) nothing.
func (m *memory) storeLine(l mem.Line, data *[mem.LineSize]byte, mask uint64) {
	if mask == 0 {
		return
	}
	off := uint64(l) & (pageSize - 1)
	dst := m.page(mem.Addr(l), true)[off : off+mem.LineSize]
	if mask == ^uint64(0) {
		copy(dst, data[:])
		return
	}
	for b := mask; b != 0; b &= b - 1 {
		i := bits.TrailingZeros64(b)
		dst[i] = data[i]
	}
}
