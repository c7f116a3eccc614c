package machine

import (
	"slices"
	"testing"

	"repro/internal/mem"
)

// The SSB fuzz target drives random operation sequences against a plain
// byte-map reference model. Addresses fall in a window that straddles a
// page boundary, so accesses cover aligned, unaligned, line-crossing and
// page-crossing shapes.
const (
	ssbWindow = mem.Addr(0x10000 - 0x100)
	ssbSpan   = 0x200
)

// ssbModel is the reference: buffered bytes plus the first-touch line
// order. A line can be present with no bytes (a restored empty entry).
type ssbModel struct {
	bytes map[mem.Addr]byte
	lines []mem.Line
}

func (m *ssbModel) touch(l mem.Line) {
	if !slices.Contains(m.lines, l) {
		m.lines = append(m.lines, l)
	}
}

func (m *ssbModel) mask(l mem.Line) uint64 {
	var mask uint64
	for i := 0; i < mem.LineSize; i++ {
		if _, ok := m.bytes[mem.Addr(l)+mem.Addr(i)]; ok {
			mask |= 1 << i
		}
	}
	return mask
}

// backingByte is the fuzz target's backing memory: a fixed function of
// the address, so every byte not in the buffer has a known value.
func backingByte(a mem.Addr) byte { return byte(a*0x9d ^ a>>7) }

func backingLoad(a mem.Addr, size uint8) uint64 {
	var v uint64
	for i := uint8(0); i < size; i++ {
		v |= uint64(backingByte(a+mem.Addr(i))) << (8 * i)
	}
	return v
}

// fuzzReader hands out the fuzz input byte by byte, zeros once spent.
type fuzzReader struct{ data []byte }

func (r *fuzzReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *fuzzReader) u64(n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(r.byte()) << (8 * i)
	}
	return v
}

// check compares every observable of s against the model: length, line
// order, per-line masks and bytes, and line membership over the window.
func (m *ssbModel) check(t *testing.T, s *SSB) {
	t.Helper()
	if s.Len() != len(m.lines) || s.Active() != (len(m.lines) > 0) {
		t.Fatalf("Len/Active = %d/%v, model holds %d lines", s.Len(), s.Active(), len(m.lines))
	}
	if !slices.Equal(s.Lines(), m.lines) {
		t.Fatalf("Lines() = %#x, want %#x", s.Lines(), m.lines)
	}
	for _, l := range m.lines {
		data, mask, ok := s.Entry(l)
		if !ok || mask != m.mask(l) {
			t.Fatalf("Entry(%#x) = mask %#x ok %v, want mask %#x", l, mask, ok, m.mask(l))
		}
		for i := 0; i < mem.LineSize; i++ {
			if b, buffered := m.bytes[mem.Addr(l)+mem.Addr(i)]; buffered && data[i] != b {
				t.Fatalf("Entry(%#x) byte %d = %#x, want %#x", l, i, data[i], b)
			}
		}
	}
	for a := ssbWindow; a < ssbWindow+ssbSpan+mem.LineSize; a += mem.LineSize {
		l := mem.LineOf(a)
		if want := slices.Contains(m.lines, l); s.ContainsLine(l) != want {
			t.Fatalf("ContainsLine(%#x) = %v, want %v", l, !want, want)
		}
		if _, _, ok := s.Entry(l); ok != slices.Contains(m.lines, l) {
			t.Fatalf("Entry(%#x) ok = %v", l, ok)
		}
	}
}

// runSSBOps decodes data into SSB operations, applies each to a fresh
// buffer and to the model, and checks the results.
func runSSBOps(t *testing.T, data []byte) {
	r := &fuzzReader{data: data}
	s := NewSSB()
	m := &ssbModel{bytes: map[mem.Addr]byte{}}
	for len(r.data) > 0 {
		op := r.byte() % 8
		addr := ssbWindow + mem.Addr(r.u64(2)%ssbSpan)
		size := [4]uint8{1, 2, 4, 8}[r.byte()%4]
		switch op {
		case 0, 1: // Put
			v := r.u64(8)
			s.Put(addr, size, v)
			for i := uint8(0); i < size; i++ {
				a := addr + mem.Addr(i)
				m.touch(mem.LineOf(a))
				m.bytes[a] = byte(v >> (8 * i))
			}
		case 2: // Get
			var want uint64
			wantHit := false
			for i := uint8(0); i < size; i++ {
				b, ok := m.bytes[addr+mem.Addr(i)]
				if ok {
					wantHit = true
				} else {
					b = backingByte(addr + mem.Addr(i))
				}
				want |= uint64(b) << (8 * i)
			}
			if v, hit := s.Get(addr, size, backingLoad); v != want || hit != wantHit {
				t.Fatalf("Get(%#x, %d) = %#x hit %v, want %#x hit %v", addr, size, v, hit, want, wantHit)
			}
		case 3: // GetLocal
			var want uint64
			wantOK := true
			for i := uint8(0); i < size; i++ {
				b, ok := m.bytes[addr+mem.Addr(i)]
				wantOK = wantOK && ok
				want |= uint64(b) << (8 * i)
			}
			if !wantOK {
				want = 0
			}
			if v, ok := s.GetLocal(addr, size); v != want || ok != wantOK {
				t.Fatalf("GetLocal(%#x, %d) = %#x ok %v, want %#x ok %v", addr, size, v, ok, want, wantOK)
			}
		case 4: // ContainsLine
			l := mem.LineOf(addr)
			if got, want := s.ContainsLine(l), slices.Contains(m.lines, l); got != want {
				t.Fatalf("ContainsLine(%#x) = %v, want %v", l, got, want)
			}
		case 5: // Clear
			s.Clear()
			m = &ssbModel{bytes: map[mem.Addr]byte{}}
		case 6: // snapshot round trip, in place
			s.setEntries(captureSSB(s))
		case 7: // restore arbitrary entries: consecutive window lines from addr
			var lines []SSBLine
			m = &ssbModel{bytes: map[mem.Addr]byte{}}
			for n := 1 + int(size)%3; n > 0; n-- {
				l := mem.LineOf(addr) + mem.Line(len(lines)*mem.LineSize)
				e := SSBLine{Line: l, Mask: r.u64(8)}
				for i := range e.Data {
					e.Data[i] = byte(int(l) + 3*i)
				}
				lines = append(lines, e)
				m.touch(l)
				for i := 0; i < mem.LineSize; i++ {
					if e.Mask&(1<<i) != 0 {
						m.bytes[mem.Addr(l)+mem.Addr(i)] = e.Data[i]
					}
				}
			}
			s.setEntries(lines)
		}
		if op == 4 || op >= 6 {
			m.check(t, s)
		}
	}
	m.check(t, s)
}

// FuzzSSB checks the store buffer against the byte-map model. The
// checked-in corpus under testdata/fuzz/FuzzSSB runs with every go test.
func FuzzSSB(f *testing.F) {
	f.Add([]byte{
		0, 0x3c, 0, 3, 1, 2, 3, 4, 5, 6, 7, 8, // 8-byte Put crossing a line
		2, 0x38, 0, 3, // Get over the buffered and backing bytes
		3, 0x40, 0, 1, // GetLocal inside the buffered bytes
		2, 0xfd, 0, 2, // Get crossing the page boundary
	})
	f.Add([]byte{1, 0x11, 0, 0, 0xaa, 2, 0x10, 0, 2, 5, 0, 0, 0, 4, 0x10, 0, 0})
	f.Add([]byte{7, 0x80, 0, 1, 0xff, 0, 0, 0, 0, 0, 0, 0x80, 6, 0, 0, 0, 2, 0x80, 0, 3})
	f.Fuzz(runSSBOps)
}

// TestSSBPartialHitMergesBackingWord pins the word-path merge: a load
// that finds some of its bytes buffered takes the rest from one backing
// word load and reports a hit.
func TestSSBPartialHitMergesBackingWord(t *testing.T) {
	s := NewSSB()
	s.Put(0x1002, 2, 0xbbaa)
	calls := 0
	v, hit := s.Get(0x1000, 8, func(a mem.Addr, size uint8) uint64 {
		calls++
		if a != 0x1000 || size != 8 {
			t.Fatalf("backing(%#x, %d), want one 8-byte load at 0x1000", a, size)
		}
		return 0x1122334455667788
	})
	if want := uint64(0x11223344bbaa7788); v != want || !hit || calls != 1 {
		t.Fatalf("Get = %#x hit %v after %d backing loads, want %#x hit true after 1", v, hit, calls, want)
	}
	if _, ok := s.GetLocal(0x1000, 8); ok {
		t.Fatal("GetLocal succeeded on a partially buffered word")
	}
	if v, ok := s.GetLocal(0x1002, 2); !ok || v != 0xbbaa {
		t.Fatalf("GetLocal(0x1002, 2) = %#x ok %v", v, ok)
	}
}
