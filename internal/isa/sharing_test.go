package isa

import (
	"testing"

	"repro/internal/mem"
)

// analysisProg builds the canonical worker shape: a counted loop indexing
// a thread-private slice through a mask, a constant-addressed shared
// counter, a pointer-chasing load (statically unknown), and a helper call
// that must not clobber the thread's base registers.
func analysisProg() *Program {
	b := NewBuilder().At("a.c", 1)
	b.Func("worker")
	b.Li(20, 0)
	b.Label("loop")
	b.AluI(And, 21, 20, 1023) // idx = ctr & 1023
	b.AluI(Shl, 21, 21, 3)
	b.Add(22, 1, 21)     // r22 = priv + idx*8
	b.Load(23, 22, 0, 8) // private load          (idx 4)
	b.Load(24, 0, 0, 8)  // shared counter load   (idx 5)
	b.AddI(24, 24, 1)
	b.Store(0, 0, 24, 8) // shared counter store  (idx 7)
	b.Load(25, 23, 0, 8) // pointer chase: unknown (idx 8)
	b.Call("helper")
	b.Store(22, 0, 23, 8) // private store after call (idx 10)
	b.AddI(20, 20, 1)
	b.BranchI(Lt, 20, 1000, "loop")
	b.Halt()
	b.Func("helper")
	b.AluI(Add, 28, 28, 1)
	b.Ret()
	return b.Build()
}

func TestSharingClassification(t *testing.T) {
	p := analysisProg()
	priv := mem.Range{Start: mem.HeapBase + 0x10000, End: mem.HeapBase + 0x12000}
	seeds := []ThreadSeed{{
		Entry: 0,
		Regs: map[Reg]int64{
			0:  int64(mem.HeapBase), // shared counter
			1:  int64(priv.Start),   // private slice
			SP: int64(mem.StackBase + 0xff00),
		},
		Private: []mem.Range{priv},
	}}
	sh := AnalyzeSharing(p, seeds)
	want := map[int]SharingClass{
		4:  SharePrivate, // masked index into the private slice
		5:  ShareShared,  // constant shared address
		7:  ShareShared,
		8:  ShareUnknown, // address from a loaded value
		10: SharePrivate, // base registers survive the helper call
	}
	for idx, cls := range want {
		if got := sh.Class(0, idx); got != cls {
			t.Errorf("instr %d (%s): class %v, want %v", idx, p.Instrs[idx].String(), got, cls)
		}
	}
	// Local and sync opcodes classify by opcode.
	for i := range p.Instrs {
		switch p.Instrs[i].Op {
		case OpMovImm, OpALU, OpBranch, OpCall, OpRet:
			if sh.Class(0, i) != SharePrivate {
				t.Errorf("instr %d (%s): local op not private", i, p.Instrs[i].String())
			}
		case OpHalt:
			if sh.Class(0, i) != ShareShared {
				t.Errorf("halt not shared")
			}
		}
	}
	if f := sh.PrivateFraction(0); f <= 0.5 {
		t.Errorf("private fraction = %v, want > 0.5 for this loop", f)
	}
}

// TestSharingNoRanges: with no private ranges every memory op is provably
// shared and locals stay private.
func TestSharingNoRanges(t *testing.T) {
	p := analysisProg()
	sh := AnalyzeSharing(p, []ThreadSeed{{Entry: 0, Regs: map[Reg]int64{}}})
	for _, idx := range []int{4, 5, 7, 8, 10} {
		if got := sh.Class(0, idx); got != ShareShared {
			t.Errorf("instr %d: %v, want shared (no private ranges)", idx, got)
		}
	}
}

// TestSharingAtomics: atomics classify by their address like loads and
// stores, so the engine can skip the private-line probe for a lock word
// the analysis proves shared, and must keep it for one it cannot place.
func TestSharingAtomics(t *testing.T) {
	b := NewBuilder().At("at.c", 1)
	b.Func("worker")
	b.Li(9, 1)
	b.FetchAdd(8, 0, 0, 9, 8)  // constant shared counter  (idx 1)
	b.FetchAdd(8, 1, 16, 9, 8) // inside the private slice (idx 2)
	b.Load(3, 0, 8, 8)
	b.CAS(8, 3, 0, 9, 9, 8) // address from a loaded value (idx 4)
	b.Halt()
	p := b.Build()
	priv := mem.Range{Start: mem.HeapBase + 0x10000, End: mem.HeapBase + 0x12000}
	seed := ThreadSeed{
		Regs:    map[Reg]int64{0: int64(mem.HeapBase), 1: int64(priv.Start)},
		Private: []mem.Range{priv},
	}
	sh := AnalyzeSharing(p, []ThreadSeed{seed})
	for idx, cls := range map[int]SharingClass{1: ShareShared, 2: SharePrivate, 4: ShareUnknown} {
		if got := sh.Class(0, idx); got != cls {
			t.Errorf("instr %d (%s): class %v, want %v", idx, p.Instrs[idx].String(), got, cls)
		}
	}
	// Without private ranges nothing can be private.
	sh = AnalyzeSharing(p, []ThreadSeed{{Regs: seed.Regs}})
	for _, idx := range []int{1, 2, 4} {
		if got := sh.Class(0, idx); got != ShareShared {
			t.Errorf("instr %d: %v, want shared (no private ranges)", idx, got)
		}
	}
}

// TestSharingPerThread: the same PC classifies differently per thread
// when the base register points into that thread's own slice.
func TestSharingPerThread(t *testing.T) {
	p := analysisProg()
	mk := func(tid int) ThreadSeed {
		base := mem.HeapBase + 0x10000 + mem.Addr(tid)*0x2000
		return ThreadSeed{
			Entry:   0,
			Regs:    map[Reg]int64{0: int64(mem.HeapBase), 1: int64(base)},
			Private: []mem.Range{{Start: base, End: base + 0x2000}},
		}
	}
	sh := AnalyzeSharing(p, []ThreadSeed{mk(0), mk(1)})
	for tid := 0; tid < 2; tid++ {
		if got := sh.Class(tid, 4); got != SharePrivate {
			t.Errorf("thread %d: private load classified %v", tid, got)
		}
	}
}

// TestSharingEntryAsCallee: when the thread's entry function is also
// reachable as a call target, the startup-register facts do not hold for
// the call-context invocation — any classification the two contexts
// disagree on must degrade to the runtime check.
func TestSharingEntryAsCallee(t *testing.T) {
	priv := mem.Range{Start: mem.HeapBase + 0x10000, End: mem.HeapBase + 0x12000}
	b := NewBuilder().At("rec.c", 1)
	b.Func("worker")
	b.Load(23, 1, 0, 8) // r1: shared under the seed, unknown as a callee (idx 0)
	b.AluI(Add, 24, 24, 1)
	b.BranchI(Ge, 24, 2, "out")
	b.Li(1, int64(priv.Start)) // the recursive call sees r1 inside the private range
	b.Call("worker")
	b.Label("out")
	b.Halt()
	p := b.Build()
	sh := AnalyzeSharing(p, []ThreadSeed{{
		Entry:   0,
		Regs:    map[Reg]int64{1: int64(mem.HeapBase)}, // outside the range
		Private: []mem.Range{priv},
	}})
	if got := sh.Class(0, 0); got != ShareUnknown {
		t.Errorf("entry-as-callee load classified %v, want unknown (seed says shared, callee context says private)", got)
	}
}

// TestStackAddrEscapes: storing a stack-derived value disqualifies the
// stacks; plain SP-relative traffic does not.
func TestStackAddrEscapes(t *testing.T) {
	stacks := []mem.Range{}
	for i := 0; i < 2; i++ {
		base, top, _ := mem.StackFor(i)
		stacks = append(stacks, mem.Range{Start: base, End: top})
	}

	clean := NewBuilder().At("s.c", 1)
	clean.Func("w")
	clean.AluI(Sub, 4, SP, 64)
	clean.Store(4, 0, 5, 8) // store *to* the stack: fine
	clean.Load(6, 4, 0, 8)
	clean.Halt()
	if StackAddrEscapes(clean.Build(), nil, stacks) {
		t.Error("SP-relative load/store flagged as escape")
	}

	leak := NewBuilder().At("s.c", 1)
	leak.Func("w")
	leak.AluI(Sub, 4, SP, 64)
	leak.Li(7, int64(mem.HeapBase))
	leak.Store(7, 0, 4, 8) // store the stack *address* to the heap
	leak.Halt()
	if !StackAddrEscapes(leak.Build(), nil, stacks) {
		t.Error("stack address stored to heap not flagged")
	}

	imm := NewBuilder().At("s.c", 1)
	imm.Func("w")
	_, _, sp := mem.StackFor(1)
	imm.Li(4, int64(sp)) // a literal foreign stack address
	imm.Load(5, 4, 0, 8)
	imm.Halt()
	if !StackAddrEscapes(imm.Build(), nil, stacks) {
		t.Error("stack-range immediate not flagged")
	}

	// A startup register inside a stack taints it: storing that value
	// escapes.
	seedLeak := NewBuilder().At("s.c", 1)
	seedLeak.Func("w")
	seedLeak.Li(7, int64(mem.HeapBase))
	seedLeak.Store(7, 0, 2, 8)
	seedLeak.Halt()
	base0, _, _ := mem.StackFor(0)
	seeds := []ThreadSeed{{Regs: map[Reg]int64{2: int64(base0 + 128)}}}
	if !StackAddrEscapes(seedLeak.Build(), seeds, stacks) {
		t.Error("seeded stack pointer stored to heap not flagged")
	}
}

// TestIntervalSoundness spot-checks the transfer functions the
// classification leans on hardest.
func TestIntervalSoundness(t *testing.T) {
	mask := aluInterval(And, topVal, constVal(4095))
	if mask.top || mask.lo != 0 || mask.hi != 4095 {
		t.Errorf("top & 4095 = %+v", mask)
	}
	shifted := aluInterval(Shl, mask, constVal(3))
	if shifted.top || shifted.lo != 0 || shifted.hi != 4095<<3 {
		t.Errorf("[0,4095] << 3 = %+v", shifted)
	}
	sum := aluInterval(Add, constVal(1000), shifted)
	if sum.top || sum.lo != 1000 || sum.hi != 1000+4095<<3 {
		t.Errorf("1000 + [0,32760] = %+v", sum)
	}
	if v := aluInterval(Mul, constVal(7), constVal(-3)); v.lo != -21 || v.hi != -21 {
		t.Errorf("const mul = %+v", v)
	}
	if v := aluInterval(Div, constVal(7), constVal(0)); v.lo != 0 || v.hi != 0 {
		t.Errorf("div by zero must fold to 0, got %+v", v)
	}
	if v := aluInterval(Mul, topVal, constVal(3)); !v.top {
		t.Errorf("top*3 must stay top, got %+v", v)
	}
}
