package machine

import (
	"slices"

	"repro/internal/coherence"
	"repro/internal/isa"
	"repro/internal/mem"
)

// access runs the coherence transaction for one access, charges the probe
// for HITM events, and aborts any remote SSB-flush transactions that hold
// the line (the HTM conflict-detection path). in is the instruction at
// t.pc. NOTE: runBatch's OpLoad and OpStore arms repeat this body inline
// (the compiler declines to inline it, and the call frame is measurable
// there) — any change to the sequence below must be mirrored in both
// arms.
func (m *Machine) access(t *thread, c int, in *isa.Instr, addr mem.Addr, write bool) uint64 {
	// Under the private-segment engine, lines private to the
	// executing thread never enter the shared directory; the engine
	// charges their (trivial, single-owner) MESI outcomes from the
	// thread-local first-touch table instead, on every path — segments
	// and serial retirement alike — so each line is accounted in exactly
	// one place for the whole run. Private lines can neither HITM nor
	// conflict with an SSB-flush transaction (transactions buffer only
	// lines their own thread wrote), so skipping those steps is exact.
	// While the original program is installed, a PC the sharing analysis
	// proved shared skips the private-table probe (validation still
	// probes, to check foreign lines); SSB operations, whose PCs the
	// class row does not cover, exist only after a rewrite.
	if e := m.eng; e != nil && (m.progGen != 0 || e.validate || e.sharing.Row(t.id)[t.pc] != isa.ShareShared) {
		if cost, ok := e.privAccess(t, addr); ok {
			return cost
		}
	}
	m.stats.MemAccesses++
	res := m.coh.Access(c, addr, write)
	if m.activeTxns > 0 {
		m.abortConflictingTxns(t, addr)
	}
	if res.Result.IsHITM() {
		m.noteHITM(t, c, in, addr, write, res)
	}
	return costTable[res.Result&7]
}

// abortConflictingTxns aborts any remote in-flight SSB-flush transaction
// holding the line of addr (HTM conflict detection, §5.5).
func (m *Machine) abortConflictingTxns(t *thread, addr mem.Addr) {
	line := mem.LineOf(addr)
	for _, other := range m.threads {
		if other == t || other.txn == nil || other.txn.aborted {
			continue
		}
		for _, tl := range other.txn.lines {
			if tl == line {
				other.txn.aborted = true
				break
			}
		}
	}
}

// noteHITM records a HITM in the ground-truth PC counts and charges the
// probe (PEBS assist / driver interrupt cycles).
func (m *Machine) noteHITM(t *thread, c int, in *isa.Instr, addr mem.Addr, write bool, res coherence.Access) {
	m.hitmPCs.bump(in.PC)
	if m.cfg.Probe != nil {
		extra := m.cfg.Probe.OnHITM(HITMEvent{
			Core:       c,
			Thread:     t.id,
			InstrIndex: t.pc,
			PC:         in.PC,
			Addr:       addr,
			IsLoad:     !write,
			Size:       in.Size,
			Now:        m.clock[c],
		})
		m.clock[c] += extra
		m.stats.ProbeCycles += extra
	}
}

// memLoad implements OpLoad in both the normal and private-memory modes.
func (m *Machine) memLoad(t *thread, c int, in *isa.Instr, addr mem.Addr) (uint64, uint64) {
	if m.cfg.PrivateMemory {
		v, _ := t.overlay.Get(addr, in.Size, m.data.load)
		return v, CostMemHitLocal
	}
	cost := m.access(t, c, in, addr, false)
	return m.data.load(addr, in.Size), cost
}

// memStore implements OpStore in both modes.
func (m *Machine) memStore(t *thread, c int, in *isa.Instr, addr mem.Addr, v uint64) uint64 {
	if m.cfg.PrivateMemory {
		t.overlay.Put(addr, in.Size, v)
		return CostMemHitLocal
	}
	cost := m.access(t, c, in, addr, true)
	m.data.store(addr, in.Size, v)
	return cost
}

// execCAS implements the atomic compare-and-swap; under private memory it
// is a commit point operating on shared memory directly.
func (m *Machine) execCAS(t *thread, c int, in *isa.Instr) uint64 {
	addr := mem.Addr(t.regs[in.Rs1] + in.Imm)
	var cost uint64
	if m.cfg.PrivateMemory {
		m.checkPrivateWrite(t, mem.LineOf(addr))
		cost = m.commitOverlay(t, c) + CostMemHitLocal + CostAtomicExtra
	} else {
		cost = m.access(t, c, in, addr, true) + CostAtomicExtra
		cost += m.fencePoint(t, c)
	}
	old := m.data.load(addr, in.Size)
	if old == truncate(uint64(t.regs[in.Rs2]), in.Size) {
		m.data.store(addr, in.Size, uint64(t.regs[in.Rs3]))
		t.regs[in.Rd] = 1
	} else {
		t.regs[in.Rd] = 0
	}
	return cost
}

// execFetchAdd implements the atomic fetch-and-add.
func (m *Machine) execFetchAdd(t *thread, c int, in *isa.Instr) uint64 {
	addr := mem.Addr(t.regs[in.Rs1] + in.Imm)
	var cost uint64
	if m.cfg.PrivateMemory {
		m.checkPrivateWrite(t, mem.LineOf(addr))
		cost = m.commitOverlay(t, c) + CostMemHitLocal + CostAtomicExtra
	} else {
		cost = m.access(t, c, in, addr, true) + CostAtomicExtra
		cost += m.fencePoint(t, c)
	}
	old := m.data.load(addr, in.Size)
	m.data.store(addr, in.Size, old+uint64(t.regs[in.Rs2]))
	t.regs[in.Rd] = int64(old)
	return cost
}

func truncate(v uint64, size uint8) uint64 {
	if size >= 8 {
		return v
	}
	return v & (1<<(8*size) - 1)
}

// fencePoint implements TSO fence obligations: the SSB must be flushed
// (§5.4); under private memory a fence is a commit point. Fences drain the
// buffer synchronously (the fence cannot retire until the flush commits),
// unlike the windowed transaction used by scheduled OpSSBFlush sites.
func (m *Machine) fencePoint(t *thread, c int) uint64 {
	if m.cfg.PrivateMemory {
		return m.commitOverlay(t, c)
	}
	if t.ssb != nil && t.ssb.Active() {
		cost := uint64(CostSSBFlushBase) + uint64(t.ssb.Len())*CostSSBFlushLine
		m.applySSB(t, c)
		t.ssb.Clear()
		m.stats.Flushes++
		return cost
	}
	return 0
}

// commitOverlay publishes a thread's private writes at a synchronization
// point (the Sheriff execution model) and charges the diff/commit cost:
// a base cost plus one per distinct dirty page.
func (m *Machine) commitOverlay(t *thread, c int) uint64 {
	ov := t.overlay
	writes := m.commitWrites[:0]
	pages := m.commitPages[:0]
	for i, l := range ov.order {
		m.checkPrivateWrite(t, l)
		e := &ov.ents[i]
		m.data.storeLine(l, &e.data, e.mask)
		writes = append(writes, LineWrite{Line: l, Mask: e.mask})
		// First-touch order keeps a page's lines mostly adjacent, so
		// dropping consecutive repeats leaves little to sort.
		if pg := uint64(l) / pageSize; len(pages) == 0 || pages[len(pages)-1] != pg {
			pages = append(pages, pg)
		}
	}
	if len(pages) > 1 {
		slices.Sort(pages)
		pages = slices.Compact(pages)
	}
	m.commitWrites, m.commitPages = writes, pages
	cost := uint64(CostCommitBase) + uint64(len(pages))*CostCommitDirtyPage
	if m.cfg.OnCommit != nil {
		cost += m.cfg.OnCommit(t.id, writes, m.clock[c])
	}
	ov.Clear()
	m.stats.Commits++
	m.stats.CommitCycles += cost
	return cost
}

// checkPrivateWrite is ValidateSharing under the Sheriff model: there,
// plain accesses never reach the private-line tables, so the write side
// is checked where it becomes global — at commits and atomics. It panics
// when thread t publishes a write to a line declared private to another
// thread, the declaration the engine's in-segment private-range loads
// rest on.
func (m *Machine) checkPrivateWrite(t *thread, l mem.Line) {
	if e := m.eng; e != nil && e.validate {
		e.checkForeign(t.id, l)
	}
}

// ssbStore implements OpSSBStore (Figure 6, top): the store is buffered in
// the thread-private SSB instead of becoming globally visible.
func (m *Machine) ssbStore(t *thread, c int, in *isa.Instr, addr mem.Addr, v uint64) uint64 {
	if t.ssb == nil {
		t.ssb = NewSSB()
	}
	cost := uint64(CostSSBOp)
	if !t.ssb.Active() {
		cost = CostSSBIdle + CostSSBOp // first store re-activates the buffer
	}
	t.ssb.Put(addr, in.Size, v)
	m.stats.SSBStores++
	if t.ssb.Len() > SSBCapacity {
		// Pre-emptive flush to stay within HTM capacity (§5.5).
		cost += m.startFlush(t, c)
	}
	return cost
}

// ssbLoad implements OpSSBLoad (Figure 6, bottom): the load consults the
// SSB and falls back to shared memory for unbuffered bytes.
func (m *Machine) ssbLoad(t *thread, c int, in *isa.Instr, addr mem.Addr) (uint64, uint64) {
	m.stats.SSBLoads++
	if t.ssb == nil || !t.ssb.Active() {
		cost := m.access(t, c, in, addr, false)
		return m.data.load(addr, in.Size), cost + CostSSBIdle
	}
	v, hit := t.ssb.Get(addr, in.Size, m.data.load)
	cost := uint64(CostSSBOp)
	if !hit {
		// Entirely from shared memory: a normal coherent load.
		cost += m.access(t, c, in, addr, false)
	}
	return v, cost
}

// startFlush begins the HTM transaction that publishes the SSB (§5.5).
// The transaction occupies a time window during which remote accesses to
// buffered lines abort it; resolution happens in resolveTxn.
func (m *Machine) startFlush(t *thread, c int) uint64 {
	if t.ssb == nil || !t.ssb.Active() {
		return CostSSBIdle
	}
	n := uint64(t.ssb.Len())
	dur := uint64(CostSSBFlushBase) + n*CostSSBFlushLine
	t.txn = &txnState{lines: append([]mem.Line(nil), t.ssb.Lines()...), end: m.clock[c] + dur}
	m.activeTxns++
	return 0 // time passes via the transaction window
}

// resolveTxn completes or retries a flush transaction whose window ended.
func (m *Machine) resolveTxn(t *thread, c int) {
	txn := t.txn
	if txn.aborted {
		m.stats.FlushAborts++
		txn.attempts++
		if txn.attempts >= HTMMaxRetries {
			// Serialized fallback: apply immediately at a higher cost.
			m.stats.HTMFallbacks++
			m.clock[c] += CostHTMFallback
			m.applySSB(t, c)
			t.ssb.Clear()
			t.txn = nil
			m.activeTxns--
			m.stats.Flushes++
			return
		}
		// Retry with backoff: a fresh window, twice as long.
		dur := (uint64(CostSSBFlushBase) + uint64(len(txn.lines))*CostSSBFlushLine) << uint(txn.attempts)
		txn.aborted = false
		txn.end = m.clock[c] + dur
		return
	}
	m.applySSB(t, c)
	t.ssb.Clear()
	t.txn = nil
	m.activeTxns--
	m.stats.Flushes++
}

// applySSB writes every buffered line to shared memory through the
// coherence model. Within a committed transaction the writes are strongly
// atomic — no remote thread observes a prefix (§5.5).
func (m *Machine) applySSB(t *thread, c int) {
	s := t.ssb
	for i, l := range s.order {
		// One coherence transaction per line; use the flush site as PC.
		in := &m.prog.Instrs[t.pc]
		m.clock[c] += m.access(t, c, in, mem.Addr(l), true)
		m.data.storeLine(l, &s.ents[i].data, s.ents[i].mask)
	}
}

// execAliasCheck validates speculative alias analysis (§5.3): if the
// checked address aliases a buffered line, the SSB is flushed through the
// fallback path and the repair controller is notified so it can fall back
// to conservative instrumentation.
func (m *Machine) execAliasCheck(t *thread, c int, in *isa.Instr) uint64 {
	addr := mem.Addr(t.regs[in.Rs1] + in.Imm)
	cost := uint64(CostAliasCheck)
	if t.ssb != nil && t.ssb.Active() && t.ssb.ContainsLine(mem.LineOf(addr)) {
		m.stats.AliasMisses++
		cost += CostHTMFallback
		m.applySSB(t, c)
		t.ssb.Clear()
		m.stats.Flushes++
		if m.cfg.OnAliasMiss != nil {
			m.cfg.OnAliasMiss(t.id, in.PC)
		}
	}
	return cost
}
