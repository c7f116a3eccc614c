package machine

import "repro/internal/mem"

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
type SSB struct {
	entries map[mem.Line]*ssbEntry
	order   []mem.Line // first-touch order, for deterministic flushing
}

// NewSSB returns an empty store buffer.
func NewSSB() *SSB {
	return &SSB{entries: make(map[mem.Line]*ssbEntry)}
}

// Active reports whether any stores are buffered; while inactive,
// instrumented code takes the cheap path (§5.2: after a flush, operations
// no longer need the SSB until another store uses it).
func (s *SSB) Active() bool { return len(s.entries) > 0 }

// Len returns the number of buffered cache lines.
func (s *SSB) Len() int { return len(s.entries) }

// Put buffers a store of size bytes of v at addr (little-endian),
// possibly spanning two lines.
func (s *SSB) Put(addr mem.Addr, size uint8, v uint64) {
	for i := uint8(0); i < size; i++ {
		a := addr + mem.Addr(i)
		line := mem.LineOf(a)
		e := s.entries[line]
		if e == nil {
			e = new(ssbEntry)
			s.entries[line] = e
			s.order = append(s.order, line)
		}
		off := mem.Offset(a)
		e.data[off] = byte(v >> (8 * i))
		e.mask |= 1 << off
	}
}

// Get assembles a load of size bytes at addr, taking each byte from the
// buffer when present and from backing otherwise. It returns the value and
// whether any byte came from the buffer.
func (s *SSB) Get(addr mem.Addr, size uint8, backing func(mem.Addr) byte) (v uint64, hit bool) {
	for i := uint8(0); i < size; i++ {
		a := addr + mem.Addr(i)
		var b byte
		if e := s.entries[mem.LineOf(a)]; e != nil && e.mask&(1<<mem.Offset(a)) != 0 {
			b = e.data[mem.Offset(a)]
			hit = true
		} else {
			b = backing(a)
		}
		v |= uint64(b) << (8 * i)
	}
	return v, hit
}

// GetLocal assembles a load only when every requested byte is buffered,
// reporting ok=false otherwise. The private-segment engine uses it
// for private-memory (Sheriff) execution: a full-hit load is provably
// thread-local, while any byte served from shared memory could observe
// another thread's commit and must retire in the global serial order.
func (s *SSB) GetLocal(addr mem.Addr, size uint8) (v uint64, ok bool) {
	for i := uint8(0); i < size; i++ {
		a := addr + mem.Addr(i)
		e := s.entries[mem.LineOf(a)]
		if e == nil || e.mask&(1<<mem.Offset(a)) == 0 {
			return 0, false
		}
		v |= uint64(e.data[mem.Offset(a)]) << (8 * i)
	}
	return v, true
}

// ContainsLine reports whether the buffer holds bytes of the given line;
// the inserted alias checks of §5.3 use this.
func (s *SSB) ContainsLine(l mem.Line) bool {
	_, ok := s.entries[l]
	return ok
}

// Lines returns the buffered lines in first-touch order. The returned
// slice is owned by the SSB.
func (s *SSB) Lines() []mem.Line { return s.order }

// Entry returns the buffered bytes and validity mask for a line.
func (s *SSB) Entry(l mem.Line) (data [mem.LineSize]byte, mask uint64, ok bool) {
	e := s.entries[l]
	if e == nil {
		return data, 0, false
	}
	return e.data, e.mask, true
}

// Clear empties the buffer after a flush.
func (s *SSB) Clear() {
	clear(s.entries)
	s.order = s.order[:0]
}
