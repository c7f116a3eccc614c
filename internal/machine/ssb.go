package machine

import (
	"math/bits"

	"repro/internal/mem"
)

// ssbEntry buffers the written bytes of one cache line. The bitmap records
// which bytes are valid, which is how the paper's SSB handles unaligned and
// partial accesses (§5.1).
type ssbEntry struct {
	data [mem.LineSize]byte
	mask uint64 // bit i set ⇒ data[i] holds a buffered byte
}

// SSB is the per-thread software store buffer installed by LASERREPAIR.
// It is a coalescing buffer: one entry per cache line, FIFO in first-touch
// order. Coalescing alone would violate TSO on flush, which is why flushes
// execute inside one hardware transaction (§5.5).
//
// An access that stays inside one line — the common case — costs one
// entry lookup and moves whole words; only line-crossing accesses go byte
// by byte. Entries live in a slice parallel to the first-touch order, so
// a Clear keeps their storage for the next buffering epoch.
type SSB struct {
	index map[mem.Line]int32 // line → position in ents and order
	ents  []ssbEntry         // ents[i] buffers line order[i]
	order []mem.Line         // first-touch order, for deterministic flushing
}

// NewSSB returns an empty store buffer.
func NewSSB() *SSB {
	return &SSB{index: make(map[mem.Line]int32)}
}

// Active reports whether any stores are buffered; while inactive,
// instrumented code takes the cheap path (§5.2: after a flush, operations
// no longer need the SSB until another store uses it).
func (s *SSB) Active() bool { return len(s.order) > 0 }

// Len returns the number of buffered cache lines.
func (s *SSB) Len() int { return len(s.order) }

// find returns the position of line l's entry, or -1.
func (s *SSB) find(l mem.Line) int32 {
	if i, ok := s.index[l]; ok {
		return i
	}
	return -1
}

// entry returns line l's entry, appending an empty one on first touch.
func (s *SSB) entry(l mem.Line) *ssbEntry {
	i := s.find(l)
	if i < 0 {
		i = int32(len(s.order))
		s.ents = append(s.ents, ssbEntry{})
		s.order = append(s.order, l)
		s.index[l] = i
	}
	return &s.ents[i]
}

// inLine reports whether an access of size bytes at addr stays inside one
// line and has a size the word path handles (1 to 8 bytes).
func inLine(addr mem.Addr, size uint8) bool {
	return mem.Offset(addr)+uint(size) <= mem.LineSize && size-1 < 8
}

// sizeMask is the byte mask of a size-byte access at line offset 0.
func sizeMask(size uint8) uint64 { return 1<<size - 1 }

// Put buffers a store of size bytes of v at addr (little-endian),
// possibly spanning two lines.
func (s *SSB) Put(addr mem.Addr, size uint8, v uint64) {
	if !inLine(addr, size) {
		for i := uint8(0); i < size; i++ {
			a := addr + mem.Addr(i)
			e := s.entry(mem.LineOf(a))
			off := mem.Offset(a)
			e.data[off] = byte(v >> (8 * i))
			e.mask |= 1 << off
		}
		return
	}
	e := s.entry(mem.LineOf(addr))
	off := mem.Offset(addr)
	putWord(e.data[off:], size, v)
	e.mask |= sizeMask(size) << off
}

// Get assembles a load of size bytes at addr, taking each byte from the
// buffer when present and from backing otherwise; backing loads size
// bytes at an address, little-endian. It returns the value and whether
// any byte came from the buffer.
func (s *SSB) Get(addr mem.Addr, size uint8, backing func(mem.Addr, uint8) uint64) (v uint64, hit bool) {
	if !inLine(addr, size) {
		for i := uint8(0); i < size; i++ {
			a := addr + mem.Addr(i)
			var b byte
			if j := s.find(mem.LineOf(a)); j >= 0 && s.ents[j].mask&(1<<mem.Offset(a)) != 0 {
				b = s.ents[j].data[mem.Offset(a)]
				hit = true
			} else {
				b = byte(backing(a, 1))
			}
			v |= uint64(b) << (8 * i)
		}
		return v, hit
	}
	i := s.find(mem.LineOf(addr))
	if i < 0 {
		return backing(addr, size), false
	}
	e := &s.ents[i]
	off := mem.Offset(addr)
	want := sizeMask(size)
	switch have := e.mask >> off & want; have {
	case 0:
		return backing(addr, size), false
	case want:
		return getWord(e.data[off:], size), true
	default:
		// Partial hit: buffered bytes over the backing word.
		var sel uint64
		for b := have; b != 0; b &= b - 1 {
			sel |= 0xFF << (8 * bits.TrailingZeros64(b))
		}
		return backing(addr, size)&^sel | getWord(e.data[off:], size)&sel, true
	}
}

// GetLocal assembles a load only when every requested byte is buffered,
// reporting ok=false otherwise. The private-segment engine uses it
// for private-memory (Sheriff) execution outside the thread's own
// private ranges: a full-hit load is provably thread-local, while any
// byte served from shared memory there could observe another thread's
// commit and must retire in the global serial order.
func (s *SSB) GetLocal(addr mem.Addr, size uint8) (v uint64, ok bool) {
	if !inLine(addr, size) {
		for i := uint8(0); i < size; i++ {
			a := addr + mem.Addr(i)
			j := s.find(mem.LineOf(a))
			if j < 0 || s.ents[j].mask&(1<<mem.Offset(a)) == 0 {
				return 0, false
			}
			v |= uint64(s.ents[j].data[mem.Offset(a)]) << (8 * i)
		}
		return v, true
	}
	i := s.find(mem.LineOf(addr))
	if i < 0 {
		return 0, false
	}
	e := &s.ents[i]
	off := mem.Offset(addr)
	if want := sizeMask(size); e.mask>>off&want != want {
		return 0, false
	}
	return getWord(e.data[off:], size), true
}

// ContainsLine reports whether the buffer holds bytes of the given line;
// the inserted alias checks of §5.3 use this.
func (s *SSB) ContainsLine(l mem.Line) bool { return s.find(l) >= 0 }

// Lines returns the buffered lines in first-touch order. The returned
// slice is owned by the SSB.
func (s *SSB) Lines() []mem.Line { return s.order }

// Entry returns the buffered bytes and validity mask for a line.
func (s *SSB) Entry(l mem.Line) (data [mem.LineSize]byte, mask uint64, ok bool) {
	i := s.find(l)
	if i < 0 {
		return data, 0, false
	}
	return s.ents[i].data, s.ents[i].mask, true
}

// Clear empties the buffer after a flush.
func (s *SSB) Clear() {
	clear(s.index)
	s.ents = s.ents[:0]
	s.order = s.order[:0]
}
