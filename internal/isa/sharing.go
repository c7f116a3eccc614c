package isa

import (
	"repro/internal/mem"
)

// This file is the static sharing analysis behind the machine's intra-run
// parallel execution engine: a per-(thread, instruction) classification of
// every PC as provably-private, provably-shared, or unknown. It
// generalizes the scheduler's original ad-hoc "provably thread-local"
// run-ahead check (a per-opcode table) into a precomputed per-program
// table that also covers memory instructions, by abstract interpretation
// of register contents over each function's CFG seeded with the thread's
// startup registers and the workload's thread-private allocation ranges.

// SharingClass is the lattice of the analysis.
type SharingClass uint8

// Classes. The zero value is Unknown so an unclassified instruction is
// always handled by the engine's runtime address check.
const (
	// ShareUnknown: the instruction may touch memory whose privacy is
	// not statically decidable; the engine checks the effective address
	// against the thread's private ranges at run time.
	//
	// Atomics (CAS, fetch-add) are classified by their address like
	// loads and stores, but the engine always retires them serially: the
	// class only tells it whether the address can be private at all.
	ShareUnknown SharingClass = iota
	// SharePrivate: the instruction provably touches only the executing
	// thread's private state (registers, control flow, or memory inside
	// the thread's declared private ranges).
	SharePrivate
	// ShareShared: the instruction is globally visible — it provably
	// touches memory outside the thread's private ranges, or it is a
	// fence, halt or SSB operation. The engine retires it serially, in
	// exact min-clock order.
	ShareShared
)

var shareNames = [...]string{"unknown", "private", "shared"}

// String names the class.
func (c SharingClass) String() string {
	if int(c) < len(shareNames) {
		return shareNames[c]
	}
	return "SharingClass(?)"
}

// LocalOps marks the opcodes that touch only thread-local state
// (registers, pc, call stack, the core clock and global counters that are
// pure sums) — never shared memory, the coherence directory, the SSB/txn
// machinery or a probe. This is the per-opcode core of the analysis; the
// serial scheduler's run-ahead uses it directly, and AnalyzeSharing
// refines the remaining memory opcodes per thread.
var LocalOps = [...]bool{
	OpNop:        true,
	OpMovImm:     true,
	OpMov:        true,
	OpALU:        true,
	OpBranch:     true,
	OpJump:       true,
	OpCall:       true,
	OpRet:        true,
	OpPause:      true,
	OpIO:         true,
	OpAliasCheck: false,
	OpSSBFlush:   false,
}

// ThreadSeed is the per-thread input of the analysis: where the thread
// starts, its startup registers (absent registers are zero, exactly as
// the machine initializes them), and the address ranges only this thread
// ever touches — its stack (when stack addresses provably do not escape)
// plus the workload's declared thread-private allocations. Ranges must be
// line-aligned and mutually disjoint across threads.
type ThreadSeed struct {
	Entry   int
	Regs    map[Reg]int64
	Private []mem.Range
}

// Sharing is the precomputed classification table for one program.
type Sharing struct {
	rows [][]SharingClass
}

// Row returns the per-instruction class row of thread tid. The slice is
// shared; callers must not modify it.
func (s *Sharing) Row(tid int) []SharingClass { return s.rows[tid] }

// Class returns the classification of instruction idx for thread tid.
func (s *Sharing) Class(tid, idx int) SharingClass { return s.rows[tid][idx] }

// PrivateFraction returns the fraction of instructions classified
// provably-private for thread tid — a cheap static signal for how much a
// workload can benefit from intra-run parallelism.
func (s *Sharing) PrivateFraction(tid int) float64 {
	row := s.rows[tid]
	if len(row) == 0 {
		return 0
	}
	n := 0
	for _, c := range row {
		if c == SharePrivate {
			n++
		}
	}
	return float64(n) / float64(len(row))
}

// interval is the abstract value of one register: every concrete value
// the register may hold lies in [lo, hi], unless top is set.
type interval struct {
	lo, hi int64
	top    bool
}

var topVal = interval{top: true}

func constVal(v int64) interval { return interval{lo: v, hi: v} }

func (a interval) isConst() bool { return !a.top && a.lo == a.hi }

func joinVal(a, b interval) interval {
	if a.top || b.top {
		return topVal
	}
	if b.lo < a.lo {
		a.lo = b.lo
	}
	if b.hi > a.hi {
		a.hi = b.hi
	}
	return a
}

// aluConst mirrors the machine interpreter's ALU semantics exactly
// (wrapping arithmetic, zero-divisor guard, masked shifts) so constant
// folding never disagrees with execution.
func aluConst(k ALUKind, a, b int64) int64 {
	switch k {
	case Add:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return a * b
	case Div:
		if b == 0 {
			return 0
		}
		return a / b
	case And:
		return a & b
	case Or:
		return a | b
	case Xor:
		return a ^ b
	case Shl:
		return a << (uint64(b) & 63)
	case Shr:
		return int64(uint64(a) >> (uint64(b) & 63))
	}
	return 0
}

// bitCeil returns the smallest 2^k-1 mask covering v (v must be >= 0).
func bitCeil(v int64) int64 {
	m := int64(0)
	for m < v {
		m = m<<1 | 1
	}
	return m
}

// aluInterval is the sound interval transfer function of one ALU op.
func aluInterval(k ALUKind, a, b interval) interval {
	if a.isConst() && b.isConst() {
		return constVal(aluConst(k, a.lo, b.lo))
	}
	switch k {
	case Add:
		if a.top || b.top {
			return topVal
		}
		lo, ok1 := addNoOv(a.lo, b.lo)
		hi, ok2 := addNoOv(a.hi, b.hi)
		if !ok1 || !ok2 {
			return topVal
		}
		return interval{lo: lo, hi: hi}
	case Sub:
		if a.top || b.top {
			return topVal
		}
		lo, ok1 := subNoOv(a.lo, b.hi)
		hi, ok2 := subNoOv(a.hi, b.lo)
		if !ok1 || !ok2 {
			return topVal
		}
		return interval{lo: lo, hi: hi}
	case And:
		// x & m for a constant non-negative mask is always in [0, m],
		// whatever x is — the pattern every workload indexes with.
		if b.isConst() && b.lo >= 0 {
			return interval{lo: 0, hi: b.lo}
		}
		if a.isConst() && a.lo >= 0 {
			return interval{lo: 0, hi: a.lo}
		}
		if !a.top && a.lo >= 0 {
			return interval{lo: 0, hi: a.hi}
		}
		return topVal
	case Or, Xor:
		if a.top || b.top || a.lo < 0 || b.lo < 0 {
			return topVal
		}
		m := bitCeil(a.hi)
		if m2 := bitCeil(b.hi); m2 > m {
			m = m2
		}
		return interval{lo: 0, hi: m}
	case Shl:
		if a.top || !b.isConst() || a.lo < 0 {
			return topVal
		}
		k := uint64(b.lo) & 63
		if k >= 63 || a.hi > (1<<62)>>k {
			return topVal
		}
		return interval{lo: a.lo << k, hi: a.hi << k}
	case Shr:
		if a.top || !b.isConst() || a.lo < 0 {
			return topVal
		}
		k := uint64(b.lo) & 63
		return interval{lo: int64(uint64(a.lo) >> k), hi: int64(uint64(a.hi) >> k)}
	case Div:
		if a.top || !b.isConst() {
			return topVal
		}
		c := b.lo
		if c == 0 {
			return constVal(0)
		}
		if c > 0 {
			return interval{lo: a.lo / c, hi: a.hi / c}
		}
		return interval{lo: a.hi / c, hi: a.lo / c}
	}
	return topVal
}

func addNoOv(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

func subNoOv(a, b int64) (int64, bool) {
	d := a - b
	if (b < 0 && d < a) || (b > 0 && d > a) {
		return 0, false
	}
	return d, true
}

// regState is the abstract register file. Only the architectural
// registers are tracked; programs touching higher register numbers make
// the analysis bail out conservatively.
type regState [NumRegs]interval

// join merges o into s in place and reports whether s changed. With
// widen set, every register the merge would change goes to top instead —
// the loop-variable hammer that guarantees fixpoint convergence after a
// few passes while leaving loop-invariant bases (the thread's data
// pointers) intact.
func (s *regState) join(o *regState, widen bool) bool {
	changed := false
	for i := range s {
		j := joinVal(s[i], o[i])
		if j != s[i] {
			if widen {
				j = topVal
			}
			s[i] = j
			changed = true
		}
	}
	return changed
}

// AnalyzeSharing classifies every instruction of p for each seeded
// thread. The classification is sound with respect to the seeds: if the
// declared private ranges really are touched only by their owning thread,
// then a SharePrivate instruction only ever addresses the executing
// thread's private ranges, and a ShareShared memory instruction never
// does.
func AnalyzeSharing(p *Program, seeds []ThreadSeed) *Sharing {
	sh := &Sharing{rows: make([][]SharingClass, len(seeds))}
	if regsTooWide(p) {
		for t := range seeds {
			sh.rows[t] = baselineRow(p, len(seeds[t].Private) == 0)
		}
		return sh
	}
	a := &analyzer{p: p, clob: clobberSets(p), cfgs: make(map[int]*CFG)}
	for t, seed := range seeds {
		sh.rows[t] = a.thread(seed)
	}
	return sh
}

// analyzer holds the facts every thread's analysis of one program
// shares: callee clobber sets, per-function CFGs and the opcode baseline
// rows. Computing them once instead of per thread keeps machine
// construction cheap.
type analyzer struct {
	p    *Program
	clob map[int]*[NumRegs]bool
	cfgs map[int]*CFG      // by function start
	base [2][]SharingClass // baselineRow(p, noRanges), by noRanges

	// Per-block dataflow buffers, reused by every function call.
	in     []regState
	have   []bool
	visits []int
}

// baseline returns a fresh copy of the opcode baseline row.
func (a *analyzer) baseline(noRanges bool) []SharingClass {
	i := 0
	if noRanges {
		i = 1
	}
	if a.base[i] == nil {
		a.base[i] = baselineRow(a.p, noRanges)
	}
	return append([]SharingClass(nil), a.base[i]...)
}

func (a *analyzer) cfg(fn Func) *CFG {
	g := a.cfgs[fn.Start]
	if g == nil {
		g = BuildCFG(a.p, fn)
		a.cfgs[fn.Start] = g
	}
	return g
}

// regsTooWide reports whether any instruction names a register outside
// the architectural file; builders never emit one, but the analysis must
// not index out of its tracked state if a synthetic program does.
func regsTooWide(p *Program) bool {
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs || in.Rs3 >= NumRegs {
			return true
		}
	}
	return false
}

// baselineRow classifies by opcode only: local ops are private,
// synchronization/SSB ops shared, and plain memory ops unknown — or
// provably shared when the thread declared no private ranges at all
// (nothing it touches can be private, so the runtime check is pointless).
func baselineRow(p *Program, noRanges bool) []SharingClass {
	row := make([]SharingClass, len(p.Instrs))
	for i := range p.Instrs {
		row[i] = opcodeClass(p.Instrs[i].Op, noRanges)
	}
	return row
}

func opcodeClass(op Op, noRanges bool) SharingClass {
	switch op {
	case OpLoad, OpStore, OpCAS, OpFetchAdd:
		if noRanges {
			return ShareShared
		}
		return ShareUnknown
	case OpFence, OpHalt, OpSSBLoad, OpSSBStore, OpSSBFlush, OpAliasCheck:
		return ShareShared
	default:
		if int(op) < len(LocalOps) && LocalOps[op] {
			return SharePrivate
		}
		return ShareShared
	}
}

// clobberSets computes, for every function (keyed by its start index),
// the registers it (or any callee, transitively) may write. Calls
// transfer only these registers to top, so a worker loop's thread-base
// registers survive a barrier or lock call — the pattern behind every
// barrier-phased workload.
func clobberSets(p *Program) map[int]*[NumRegs]bool {
	sets := make(map[int]*[NumRegs]bool, len(p.Funcs))
	calls := make(map[int][]int, len(p.Funcs))
	for _, fn := range p.Funcs {
		w := new([NumRegs]bool)
		for i := fn.Start; i < fn.End; i++ {
			in := &p.Instrs[i]
			switch in.Op {
			case OpMovImm, OpMov, OpALU, OpLoad, OpCAS, OpFetchAdd, OpSSBLoad:
				w[in.Rd] = true
			case OpCall:
				if callee, ok := p.FuncAt(in.Target); ok {
					calls[fn.Start] = append(calls[fn.Start], callee.Start)
				}
			}
		}
		sets[fn.Start] = w
	}
	for changed := true; changed; {
		changed = false
		for start, callees := range calls {
			w := sets[start]
			for _, callee := range callees {
				cw := sets[callee]
				if cw == nil {
					continue
				}
				for r := range cw {
					if cw[r] && !w[r] {
						w[r] = true
						changed = true
					}
				}
			}
		}
	}
	return sets
}

// thread produces the class row of one thread: the opcode baseline
// refined, for every Load/Store reachable from the thread's entry, by the
// interval each address register provably stays in.
func (a *analyzer) thread(seed ThreadSeed) []SharingClass {
	p := a.p
	row := a.baseline(len(seed.Private) == 0)
	if len(seed.Private) == 0 {
		return row
	}
	entryFn, ok := p.FuncAt(seed.Entry)
	if !ok {
		return row
	}
	// The worklist of functions reachable from the thread's entry; the
	// entry function is seeded with the startup register file, callees
	// with an all-top state (their classification still benefits from
	// locally-computed constants).
	todo := []Func{entryFn}
	seen := map[string]bool{entryFn.Name: true}
	entryCalled := false
	for len(todo) > 0 {
		fn := todo[0]
		todo = todo[1:]
		var entry regState
		start := fn.Start
		if fn.Name == entryFn.Name {
			// Registers the spec does not set start at zero, exactly as
			// the machine initializes a thread.
			for r, v := range seed.Regs {
				if int(r) < NumRegs {
					entry[r] = constVal(v)
				}
			}
			start = seed.Entry
		} else {
			for i := range entry {
				entry[i] = topVal
			}
		}
		callees := a.function(fn, start, &entry, seed.Private, row)
		for _, c := range callees {
			if c.Name == entryFn.Name {
				entryCalled = true
			}
			if !seen[c.Name] {
				seen[c.Name] = true
				todo = append(todo, c)
			}
		}
	}
	if entryCalled {
		// The entry function is also reachable as a callee (recursion or
		// a dispatch loop), where the startup-register facts do not hold.
		// Re-analyze it with an all-top entry state and keep, per
		// instruction, only what both analyses agree on — a disagreement
		// degrades to the runtime check.
		alt := a.baseline(false)
		var top regState
		for i := range top {
			top[i] = topVal
		}
		a.function(entryFn, entryFn.Start, &top, seed.Private, alt)
		for i := entryFn.Start; i < entryFn.End; i++ {
			if row[i] != alt[i] {
				row[i] = ShareUnknown
			}
		}
	}
	return row
}

// maxBlockVisits bounds fixpoint iteration per block before widening.
const maxBlockVisits = 8

// function runs the interval dataflow over one function's CFG, refining
// row in place for the memory instructions it can decide, and returns
// the functions it calls.
func (a *analyzer) function(fn Func, entryIdx int, entry *regState, priv []mem.Range, row []SharingClass) []Func {
	p := a.p
	g := a.cfg(fn)
	if len(g.Blocks) == 0 {
		return nil
	}
	entryBlock := g.BlockOf(entryIdx)
	if g.Blocks[entryBlock].Start != entryIdx {
		// A mid-block entry would need path-sensitive seeding; leave the
		// opcode baseline in place (sound: Unknown falls back to the
		// runtime check).
		return nil
	}
	n := len(g.Blocks)
	if cap(a.in) < n {
		a.in, a.have, a.visits = make([]regState, n), make([]bool, n), make([]int, n)
	}
	// in[b] is read only once have[b] is set, so it needs no clearing.
	in, have, visits := a.in[:n], a.have[:n], a.visits[:n]
	clear(have)
	clear(visits)
	in[entryBlock] = *entry
	have[entryBlock] = true
	work := []int{entryBlock}
	var callees []Func
	calleeSeen := map[string]bool{}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		st := in[b]
		blk := &g.Blocks[b]
		start := blk.Start
		if b == entryBlock && entryIdx > start {
			start = entryIdx
		}
		for i := start; i < blk.End; i++ {
			inr := &p.Instrs[i]
			switch inr.Op {
			case OpLoad, OpStore, OpCAS, OpFetchAdd:
				row[i] = classifyMem(inr, &st, priv)
			}
			transfer(p, inr, &st, a.clob)
			if inr.Op == OpCall {
				if callee, ok := p.FuncAt(inr.Target); ok && !calleeSeen[callee.Name] {
					calleeSeen[callee.Name] = true
					callees = append(callees, callee)
				}
			}
		}
		for _, s := range blk.Succs {
			if !have[s] {
				in[s] = st
				have[s] = true
			} else if !in[s].join(&st, visits[s]+1 > maxBlockVisits) {
				continue
			}
			visits[s]++
			work = append(work, s)
		}
	}
	return callees
}

// transfer applies one instruction's effect to the abstract registers.
func transfer(p *Program, in *Instr, st *regState, clob map[int]*[NumRegs]bool) {
	switch in.Op {
	case OpMovImm:
		st[in.Rd] = constVal(in.Imm)
	case OpMov:
		st[in.Rd] = st[in.Rs1]
	case OpALU:
		b := st[in.Rs2]
		if in.UseImm {
			b = constVal(in.Imm)
		}
		st[in.Rd] = aluInterval(in.ALU, st[in.Rs1], b)
	case OpLoad, OpSSBLoad, OpCAS, OpFetchAdd:
		st[in.Rd] = topVal
	case OpCall:
		var w *[NumRegs]bool
		if callee, ok := p.FuncAt(in.Target); ok {
			w = clob[callee.Start]
		}
		if w == nil {
			// Unknown callee: every register is clobbered.
			for i := range st {
				st[i] = topVal
			}
			return
		}
		for r := range w {
			if w[r] {
				st[r] = topVal
			}
		}
	}
}

// classifyMem decides one load, store or atomic given the abstract
// address register.
func classifyMem(in *Instr, st *regState, priv []mem.Range) SharingClass {
	base := st[in.Rs1]
	if base.top {
		return ShareUnknown
	}
	off := in.Imm
	if in.Op == OpStore && in.UseImm {
		// StoreI: the base register carries the full effective address.
		off = 0
	}
	lo, ok1 := addNoOv(base.lo, off)
	hi, ok2 := addNoOv(base.hi, off)
	if !ok1 || !ok2 {
		return ShareUnknown
	}
	hi, ok2 = addNoOv(hi, int64(in.Size)-1)
	if !ok2 || lo < 0 {
		return ShareUnknown
	}
	a, b := mem.Addr(lo), mem.Addr(hi)
	inside := false
	overlapping := false
	for _, r := range priv {
		if a >= r.Start && b < r.End {
			inside = true
			break
		}
		if a < r.End && r.Start <= b {
			overlapping = true
		}
	}
	switch {
	case inside:
		return SharePrivate
	case overlapping:
		return ShareUnknown
	default:
		return ShareShared
	}
}

// StackAddrEscapes reports whether a stack address can become visible to
// another thread: a register that may hold a stack address (the stack
// pointer, a startup register pointing into a stack, or anything computed
// from one) is stored to memory as a value, or a stack address appears as
// an instruction immediate. When it returns false, thread stacks are
// provably thread-private — no other thread can ever name an address in
// them — and the engine may treat them as private ranges.
//
// The taint analysis is whole-program and flow-insensitive, which is
// conservative: a single escaping store anywhere disqualifies every
// stack. Loads are untainted — if no tainted value is ever stored, no
// load can observe a stack address, which is exactly the property being
// established.
func StackAddrEscapes(p *Program, seeds []ThreadSeed, stacks []mem.Range) bool {
	inStack := func(v int64) bool {
		for _, r := range stacks {
			if r.Contains(mem.Addr(v)) {
				return true
			}
		}
		return false
	}
	var tainted [256]bool
	tainted[SP] = true
	for _, s := range seeds {
		for r, v := range s.Regs {
			if inStack(v) {
				tainted[r] = true
			}
		}
	}
	// One pass collects the register-to-register flows and rejects any
	// literal stack address in the text: anyone can materialize it, so
	// stacks are not private.
	type flow struct{ dst, a, b Reg }
	var flows []flow
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch in.Op {
		case OpMovImm:
			if inStack(in.Imm) {
				return true
			}
		case OpMov:
			flows = append(flows, flow{in.Rd, in.Rs1, in.Rs1})
		case OpALU:
			if in.UseImm {
				if inStack(in.Imm) {
					return true
				}
				flows = append(flows, flow{in.Rd, in.Rs1, in.Rs1})
			} else {
				flows = append(flows, flow{in.Rd, in.Rs1, in.Rs2})
			}
		case OpStore, OpSSBStore:
			if in.UseImm && inStack(in.Imm) {
				return true
			}
		}
	}
	// Taint only grows, so the stores can be checked once, against the
	// fixpoint. Loads yield clean values under the no-escape premise.
	for changed := true; changed; {
		changed = false
		for _, f := range flows {
			if (tainted[f.a] || tainted[f.b]) && !tainted[f.dst] {
				tainted[f.dst] = true
				changed = true
			}
		}
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch in.Op {
		case OpStore, OpSSBStore:
			if !in.UseImm && tainted[in.Rs2] {
				return true
			}
		case OpCAS:
			if tainted[in.Rs2] || tainted[in.Rs3] {
				return true
			}
		case OpFetchAdd:
			if tainted[in.Rs2] {
				return true
			}
		}
	}
	return false
}
