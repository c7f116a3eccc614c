package machine

import (
	"fmt"
	"sort"

	"repro/internal/coherence"
	"repro/internal/isa"
	"repro/internal/mem"
)

// This file is the private-segment engine: the scheduler New picks for
// any input that declares thread-private data (see New for the rule). It
// produces byte-identical results to the serial batch interpreter, which
// stays the reference the equivalence tests compare against.
//
// The paper's own premise (§3) is what it exploits: the overwhelming
// majority of instructions touch only thread-private state. The engine
// splits execution into *local segments* — maximal runs of provably- or
// checked-private instructions — and *global events* — shared-memory
// accesses, atomics, fences, SSB operations, halts. Local segments
// commute with everything other cores do: they touch only the thread's
// registers, control flow, and cache lines no other thread ever names, so
// their costs and side effects are independent of interleaving. The
// engine therefore runs a picked core's whole segment back to back,
// without re-entering the scheduler per instruction, and retires the
// global events one at a time in exactly the serial scheduler's
// lowest-clock-first order (ties to the lowest core id). Every
// globally-visible transition — coherence traffic, HITMs, probe
// callbacks, SSB flush transactions — happens in that total order, which
// is why statistics, reports and event streams come out bit-identical.
// Everything runs on the caller's goroutine.
//
// Private lines never enter the shared coherence directory. A line that
// only one thread ever touches has a trivial MESI life: MissMemory on
// first access, HitLocal forever after. Each thread tracks its private
// lines in a local first-touch bitmap (privSet) and charges exactly those
// outcomes; the directory's HITM/Upgrade machinery is provably
// unreachable for such lines. Both the segment path and the serial
// retirement path route accesses through the same line-ownership test
// (Machine.access), so a line is accounted in exactly one place for the
// whole run.
//
// Under the private-memory (Sheriff) model, plain stores always stay in
// the thread's overlay and run in segments. A plain load runs in a
// segment when every byte hits the overlay, or when it lies inside one
// of the thread's own private ranges; there it reads overlay-or-memory.
// That read is exact: memory changes only at commits, which write just
// the bytes the committing thread stored, and at atomics; no other
// thread stores into a correctly declared range (ValidateSharing checks
// commits and atomics for exactly this), and the owner's own commits
// are global events retired in its program order. So the value is the
// same under every interleaving. Any other load that misses the overlay
// can observe another thread's commit and retires serially.
//
// Program hot-swaps (LASERREPAIR) are the one global event that does not
// commute with private *memory* instructions: the rewriter turns stores
// into SSB stores and prefixes loads with alias checks, so a private
// access run ahead of a swap could miss its post-swap instrumentation.
// Swaps can only occur mid-run once a rewrite is already installed
// (alias checks exist only in rewritten code), so the engine runs
// memory-carrying segments only while the original program is installed
// (progGen == 0) and degrades to register-only segments afterwards —
// exactly the serial scheduler's original run-ahead rule.
type engine struct {
	m        *Machine
	sharing  *isa.Sharing
	priv     []*privSet // per thread; nil for threads with no private ranges
	state    []coreState
	validate bool
}

// serialStepThreshold is the predicted private-run length below which a
// core is cheaper to drive with plain serial stepping (to the exact
// serial-scheduler batch limit) than with segment bookkeeping: shared-
// heavy workloads degrade to the serial scheduler's behaviour instead of
// paying engine overhead per event. It is also every core's starting
// prediction, so the first segment's measured length decides.
const serialStepThreshold = 24

// probeInterval is how often (in scheduler turns) a serial-stepped core
// re-measures its private-run length with a real segment, so a phase
// change back to private-heavy execution is noticed.
const probeInterval = 64

type coreState struct {
	// stopped: the core's local segment has run; its next instruction
	// (a global event, or anything after a target boundary) has not
	// executed yet.
	stopped bool
	// ema predicts the next segment's instruction count from recent
	// history, per core, so a contended core degrades to serial
	// stepping while a compute-bound sibling keeps running segments.
	ema   float64
	probe int
}

// resetPolicy puts every core's scheduling policy back to its starting
// state. The policy never changes a result, only how the engine gets it.
func (e *engine) resetPolicy() {
	for c := range e.state {
		e.state[c] = coreState{ema: serialStepThreshold}
	}
}

// privRange is one line-aligned thread-private range plus the first-touch
// bitmap that stands in for the coherence directory: a single-owner MESI
// line is MissMemory on first access and HitLocal on every later one,
// regardless of the read/write mix.
type privRange struct {
	start, end mem.Addr
	bits       []uint64
}

// touch marks the line as cached by its owner and reports whether this
// was the first access.
func (r *privRange) touch(line mem.Line) bool {
	idx := uint64(mem.Addr(line)-r.start) >> mem.LineShift
	w, b := idx>>6, uint64(1)<<(idx&63)
	if r.bits[w]&b != 0 {
		return false
	}
	r.bits[w] |= b
	return true
}

// privSet is one thread's private ranges with a one-entry MRU cache; hot
// loops hammer a single range, so the common lookup is two compares.
type privSet struct {
	ranges []privRange
	last   int
}

func newPrivSet(rs []mem.Range) *privSet {
	if len(rs) == 0 {
		return nil
	}
	ps := &privSet{ranges: make([]privRange, len(rs))}
	for i, r := range rs {
		lines := uint64(r.End-r.Start) >> mem.LineShift
		ps.ranges[i] = privRange{start: r.Start, end: r.End, bits: make([]uint64, (lines+63)/64)}
	}
	return ps
}

// find returns the range containing a, or nil, updating the MRU index.
func (ps *privSet) find(a mem.Addr) *privRange {
	if ps == nil {
		return nil
	}
	if r := &ps.ranges[ps.last]; a >= r.start && a < r.end {
		return r
	}
	for i := range ps.ranges {
		if r := &ps.ranges[i]; a >= r.start && a < r.end {
			ps.last = i
			return r
		}
	}
	return nil
}

// contains is the lookup for another thread's set: it leaves the MRU
// index alone.
func (ps *privSet) contains(a mem.Addr) bool {
	if ps == nil {
		return false
	}
	for i := range ps.ranges {
		if a >= ps.ranges[i].start && a < ps.ranges[i].end {
			return true
		}
	}
	return false
}

// newEngine wires the engine into a freshly built machine. The caller has
// already decided the input is eligible (declared private data, several
// threads, at most one thread per core).
func newEngine(m *Machine, specs []ThreadSpec) *engine {
	threads := len(specs)
	ranges := canonicalRanges(m.cfg.PrivateData, threads)

	// Thread stacks are private only if no stack address can reach
	// another thread: no tainted value is ever stored, no stack-range
	// literal appears in the text, and no thread starts with a register
	// into a foreign stack.
	stacks := make([]mem.Range, threads)
	for t := range stacks {
		base, top, _ := mem.StackFor(t)
		stacks[t] = mem.Range{Start: base, End: top}
	}
	seeds := make([]isa.ThreadSeed, threads)
	for t, s := range specs {
		regs := make(map[isa.Reg]int64, len(s.Regs)+1)
		_, _, sp := mem.StackFor(t)
		regs[isa.SP] = int64(sp)
		for r, v := range s.Regs {
			regs[r] = v
		}
		seeds[t] = isa.ThreadSeed{Entry: s.Entry, Regs: regs}
	}
	stackSafe := !isa.StackAddrEscapes(m.prog, seeds, stacks)
	if stackSafe {
	check:
		for t := range seeds {
			for _, v := range seeds[t].Regs {
				for u, sr := range stacks {
					if u != t && sr.Contains(mem.Addr(v)) {
						stackSafe = false
						break check
					}
				}
			}
		}
	}
	for t := range seeds {
		rs := append([]mem.Range(nil), ranges[t]...)
		if stackSafe {
			rs = append(rs, stacks[t])
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].Start < rs[j].Start })
		seeds[t].Private = rs
	}

	e := &engine{
		m:        m,
		sharing:  isa.AnalyzeSharing(m.prog, seeds),
		priv:     make([]*privSet, threads),
		state:    make([]coreState, m.cfg.Cores),
		validate: m.cfg.ValidateSharing,
	}
	for t := range seeds {
		e.priv[t] = newPrivSet(seeds[t].Private)
	}
	e.resetPolicy()
	return e
}

// canonicalRanges line-aligns and sorts the declared per-thread private
// ranges and panics if any two threads' ranges share a cache line — an
// overlapping declaration is a workload construction bug that would
// silently corrupt the simulation, exactly like an overlapping memory
// map.
func canonicalRanges(decl [][]mem.Range, threads int) [][]mem.Range {
	out := make([][]mem.Range, threads)
	type owned struct {
		r mem.Range
		t int
	}
	var all []owned
	for t := 0; t < threads && t < len(decl); t++ {
		for _, r := range decl[t] {
			r = r.LineAligned()
			if r.Empty() {
				continue
			}
			out[t] = append(out[t], r)
			all = append(all, owned{r, t})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].r.Start < all[j].r.Start })
	for i := 1; i < len(all); i++ {
		if all[i-1].r.End > all[i].r.Start {
			panic(fmt.Sprintf("machine: private ranges overlap: thread %d [%#x,%#x) vs thread %d [%#x,%#x)",
				all[i-1].t, all[i-1].r.Start, all[i-1].r.End, all[i].t, all[i].r.Start, all[i].r.End))
		}
	}
	return out
}

// privAccess charges a thread-private access without touching the shared
// coherence directory. ok is false when the line is not private to t, in
// which case the caller proceeds through the directory. Both engines'
// outcome sequences for a single-owner line are identical (MissMemory
// then HitLocal), so statistics match the serial scheduler exactly.
func (e *engine) privAccess(t *thread, addr mem.Addr) (uint64, bool) {
	line := mem.LineOf(addr)
	r := e.priv[t.id].find(mem.Addr(line))
	if r == nil {
		if e.validate {
			e.checkForeign(t.id, line)
		}
		return 0, false
	}
	m := e.m
	m.stats.MemAccesses++
	if r.touch(line) {
		m.coh.Counts[coherence.MissMemory]++
		return CostMissMemory, true
	}
	m.coh.Counts[coherence.HitLocal]++
	return CostMemHitLocal, true
}

// checkForeign panics when a thread touches a line declared private to a
// different thread — the declaration soundness check behind
// Config.ValidateSharing. Tests run the stock workloads with it enabled.
func (e *engine) checkForeign(tid int, line mem.Line) {
	for id, ps := range e.priv {
		if id != tid && ps.contains(mem.Addr(line)) {
			panic(fmt.Sprintf("machine: thread %d accessed line %#x declared private to thread %d",
				tid, uint64(line), id))
		}
	}
}

// runFor is the engine's replacement for the serial scheduler loop. The
// flow per picked core: honor the target and cycle cap, resolve SSB-flush
// transaction windows, then either serial-step an event-dense core,
// retire one global event (stepOne), or run the core's next local
// segment.
func (e *engine) runFor(target uint64) (bool, error) {
	m := e.m
	live := 0
	for _, t := range m.threads {
		if !t.halted {
			live++
		}
	}
	hard := min(target, m.cfg.MaxCycles+1)
	for live > 0 {
		// pickCoreAndLimit applies the serial scheduler's exact pick rule
		// (lowest clock, ties to the lowest core id).
		c, limit := m.pickCoreAndLimit(target)
		if c < 0 {
			break
		}
		if m.clock[c] >= target {
			m.finishStats()
			return false, nil
		}
		if m.clock[c] > m.cfg.MaxCycles {
			m.finishStats()
			return false, ErrTimeout
		}
		t := m.curThread[c]
		// Resolve or wait out a pending SSB-flush transaction, exactly
		// as the serial loop does.
		if t.txn != nil {
			if m.clock[c] >= t.txn.end {
				m.resolveTxn(t, c)
			} else {
				m.clock[c] = t.txn.end
			}
			continue
		}
		st := &e.state[c]
		// Event-dense core: private runs too short for segment
		// bookkeeping to pay off. Drive it with the serial batch
		// interpreter itself — same pick rule, same batch bounds — with
		// loads and stores routed through the private-line tables. The
		// probe countdown periodically lets the segment machinery run
		// one round anyway, so a workload entering a private-heavy phase
		// re-measures its run length and promotes itself back.
		if st.ema < serialStepThreshold && st.probe > 0 {
			st.probe--
			if m.runBatch(t, c, limit, hard, true) {
				live--
			}
			st.stopped = false // the batch retired any pending event
			continue
		}
		if st.stopped {
			// The next instruction is a global event (or the first
			// instruction after a target boundary): retire exactly one
			// instruction through the routed access path, then go back
			// to segment mode.
			st.stopped = false
			if m.stepOne(t, c) {
				live--
			}
			continue
		}
		e.runSegment(t, c, hard)
	}
	m.finishStats()
	return true, nil
}

// runSegment executes core c's local segment: private (or
// runtime-checked private) instructions of t back to back until the next
// global event or the hard clock bound. It touches only the thread's own
// state and the thread's private lines, so it commutes with everything
// other cores do; it then folds its counts into the machine and the
// core's run-length prediction.
func (e *engine) runSegment(t *thread, c int, hard uint64) {
	m := e.m
	instrs := m.prog.Instrs
	row := e.sharing.Row(t.id)
	ps := e.priv[t.id]
	clk := m.clock[c]
	extraInstr := m.cfg.ExtraInstrCycles
	extraLoad := m.cfg.ExtraLoadCycles
	priv := m.cfg.PrivateMemory
	load := m.data.load
	// Private memory instructions run in segments only while the
	// original program is installed (see the file comment).
	allowMem := m.progGen == 0
	var steps, memAcc, miss, hit uint64
loop:
	for clk < hard {
		in := &instrs[t.pc]
		cost := extraInstr
		next := t.pc + 1
		switch in.Op {
		case isa.OpNop:
			cost += CostNop
		case isa.OpMovImm:
			t.regs[in.Rd] = in.Imm
			cost += CostALU
		case isa.OpMov:
			t.regs[in.Rd] = t.regs[in.Rs1]
			cost += CostALU
		case isa.OpALU:
			b := t.regs[in.Rs2]
			if in.UseImm {
				b = in.Imm
			}
			t.regs[in.Rd] = aluOp(in.ALU, t.regs[in.Rs1], b)
			cost += CostALU
		case isa.OpLoad:
			if !allowMem {
				break loop
			}
			addr := mem.Addr(t.regs[in.Rs1] + in.Imm)
			if priv {
				// Sheriff mode: a load is thread-local when it lies
				// inside one of the thread's own private ranges, or
				// when every byte hits the thread's overlay. Anywhere
				// else a missing byte falls back to shared memory,
				// whose contents depend on the global order of other
				// threads' commits — such loads (including every
				// spin-wait on a flag another thread publishes) retire
				// serially. See the file comment for why the private
				// ranges are exact.
				var v uint64
				var ok bool
				if r := ps.find(addr); r != nil && addr+mem.Addr(in.Size) <= r.end {
					v, _ = t.overlay.Get(addr, in.Size, load)
				} else if v, ok = t.overlay.GetLocal(addr, in.Size); !ok {
					break loop
				}
				t.regs[in.Rd] = int64(v)
				cost += CostMemHitLocal + extraLoad
				break
			}
			if row[t.pc] == isa.ShareShared {
				break loop
			}
			r := ps.find(addr)
			if r == nil || addr+mem.Addr(in.Size) > r.end {
				break loop
			}
			if r.touch(mem.LineOf(addr)) {
				miss++
				cost += CostMissMemory + extraLoad
			} else {
				hit++
				cost += CostMemHitLocal + extraLoad
			}
			memAcc++
			t.regs[in.Rd] = int64(m.data.load(addr, in.Size))
		case isa.OpStore:
			if !allowMem {
				break loop
			}
			addr := mem.Addr(t.regs[in.Rs1] + in.Imm)
			v := uint64(t.regs[in.Rs2])
			if in.UseImm {
				addr = mem.Addr(t.regs[in.Rs1])
				v = uint64(in.Imm)
			}
			if priv {
				t.overlay.Put(addr, in.Size, v)
				cost += CostMemHitLocal
				break
			}
			if row[t.pc] == isa.ShareShared {
				break loop
			}
			r := ps.find(addr)
			if r == nil || addr+mem.Addr(in.Size) > r.end {
				break loop
			}
			if r.touch(mem.LineOf(addr)) {
				miss++
				cost += CostMissMemory
			} else {
				hit++
				cost += CostMemHitLocal
			}
			memAcc++
			m.data.store(addr, in.Size, v)
		case isa.OpBranch:
			b := t.regs[in.Rs2]
			if in.UseImm {
				b = in.Imm
			}
			if condHolds(in.Cond, t.regs[in.Rs1], b) {
				next = in.Target
			}
			cost += CostBranch
		case isa.OpJump:
			next = in.Target
			cost += CostBranch
		case isa.OpCall:
			t.callStack = append(t.callStack, t.pc+1)
			next = in.Target
			cost += CostCall
		case isa.OpRet:
			if len(t.callStack) == 0 {
				panic(fmt.Sprintf("machine: ret with empty call stack at %d", t.pc))
			}
			next = t.callStack[len(t.callStack)-1]
			t.callStack = t.callStack[:len(t.callStack)-1]
			cost += CostRet
		case isa.OpPause:
			cost += CostPause
		case isa.OpIO:
			cost += uint64(in.Imm)
		default:
			// Atomics, fences, SSB operations, alias checks, halt: all
			// globally visible; the scheduler retires them.
			break loop
		}
		clk += cost
		steps++
		t.pc = next
	}
	m.clock[c] = clk
	m.stats.Instructions += steps
	m.stats.MemAccesses += memAcc
	m.coh.Counts[coherence.MissMemory] += miss
	m.coh.Counts[coherence.HitLocal] += hit
	st := &e.state[c]
	st.ema = (3*st.ema + float64(steps)) / 4
	st.probe = probeInterval
	st.stopped = true
}

// stepOne executes exactly one instruction of t on core c — the engine's
// serial retirement of a global event (and of the first instruction after
// a target boundary, whatever it is). It is the routed batch interpreter
// driven with zero bounds: the batch loop always retires one instruction
// before checking them, so the semantics — memory routing, probe timing,
// halt handling — are runBatch's own, with no second interpreter copy to
// keep in sync. Returns true when the thread halted (the thread is
// removed from its queue, as in the serial batch loop).
func (m *Machine) stepOne(t *thread, c int) bool {
	return m.runBatch(t, c, 0, 0, true)
}
