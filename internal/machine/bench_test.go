package machine

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// benchProg builds a 4-thread workload with the access mix the simulator
// spends its time on during the evaluation: each thread streams through a
// private buffer with loads, stores and ALU work, and every iteration also
// writes its slot of one falsely shared cache line, so the HITM ping-pong
// is constant but not the only traffic. The loop is effectively infinite
// so the benchmark can draw as many instructions as it needs.
func benchProg() (*isa.Program, []ThreadSpec) {
	b := isa.NewBuilder().At("bench.c", 1)
	entries := make([]int, 4)
	for tid := 0; tid < 4; tid++ {
		b.Func(fmt.Sprintf("worker%d", tid))
		entries[tid] = b.Pos()
		b.Li(1, 0)
		loop := fmt.Sprintf("loop%d", tid)
		b.Label(loop)
		// Private working set: buf[i & 127] update (reg 4 scratch).
		b.AluI(isa.And, 4, 1, 127)
		b.AluI(isa.Shl, 4, 4, 3)
		b.Add(4, 4, 2)
		b.Load(5, 4, 0, 8)
		b.Add(5, 5, 1)
		b.Store(4, 0, 5, 8)
		// Falsely shared line: this thread's 8-byte slot.
		b.Store(0, 0, 1, 8)
		// Per-thread filler de-phases the threads, as in real workloads
		// where sibling threads never run in perfect lockstep.
		for f := 0; f < tid; f++ {
			b.AluI(isa.Xor, 6, 6, int64(f)+1)
		}
		b.AddI(1, 1, 1)
		b.BranchI(isa.Lt, 1, 1<<60, loop)
		b.Halt()
	}
	prog := b.Build()
	specs := make([]ThreadSpec, 4)
	for i := range specs {
		specs[i] = ThreadSpec{
			Entry: entries[i],
			Regs: map[isa.Reg]int64{
				0: int64(mem.HeapBase + mem.Addr(i*8)),            // shared-line slot
				2: int64(mem.HeapBase + 0x1000 + mem.Addr(i)<<12), // private buffer
			},
		}
	}
	return prog, specs
}

// BenchmarkMachineStep measures the end-to-end per-instruction cost of the
// simulator — scheduler, interpreter, coherence and memory — on a contended
// 4-thread workload. One op is one simulated instruction.
func BenchmarkMachineStep(b *testing.B) {
	prog, specs := benchProg()
	m := New(prog, Config{Cores: 4, MaxCycles: 1 << 62}, specs)
	var target uint64
	const slice = 1 << 16
	b.ReportAllocs()
	b.ResetTimer()
	for m.stats.Instructions < uint64(b.N) {
		target += slice
		if _, err := m.RunFor(target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemoryLoadStore measures the raw backing-store path: one op is
// one 8-byte store plus one 8-byte load. It must run at 0 allocs/op.
func BenchmarkMemoryLoadStore(b *testing.B) {
	m := newMemory()
	// Touch a few pages across the canonical regions up front.
	addrs := [8]mem.Addr{}
	for i := range addrs {
		base := mem.HeapBase
		if i%2 == 1 {
			base = mem.StackBase
		}
		addrs[i] = base + mem.Addr(i)*pageSize + mem.Addr(i*8)
		m.store(addrs[i], 8, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		a := addrs[i&7]
		m.store(a, 8, uint64(i))
		sink += m.load(a, 8)
	}
	_ = sink
}

// BenchmarkSheriffStep measures the Sheriff (private-memory) execution
// model on the private-segment engine: four threads stream through their
// declared private buffers with loads, stores and ALU work, and commit at
// a shared fetch-add every 256 iterations, so loads keep finding their
// bytes sometimes in the overlay and sometimes only in memory. One op is
// one simulated instruction; ns/instr is the exact per-instruction cost.
func BenchmarkSheriffStep(b *testing.B) {
	bld := isa.NewBuilder().At("sheriff_bench.c", 1)
	bld.Func("worker")
	bld.Li(1, 0)
	bld.Label("loop")
	bld.AluI(isa.And, 4, 1, 511)
	bld.AluI(isa.Shl, 4, 4, 3)
	bld.Add(4, 4, 2)
	bld.Load(5, 4, 0, 8)
	bld.Load(6, 4, 4096, 4)
	bld.Add(5, 5, 6)
	bld.AddI(5, 5, 1)
	bld.Store(4, 0, 5, 8)
	bld.AluI(isa.And, 6, 1, 255)
	bld.BranchI(isa.Ne, 6, 0, "skip")
	bld.Li(7, 1)
	bld.FetchAdd(8, 0, 0, 7, 8) // commit point
	bld.Label("skip")
	bld.AddI(1, 1, 1)
	bld.BranchI(isa.Lt, 1, 1<<60, "loop")
	bld.Halt()
	prog := bld.Build()
	specs := make([]ThreadSpec, 4)
	priv := make([][]mem.Range, 4)
	for i := range specs {
		base := mem.HeapBase + 0x10000 + mem.Addr(i)*0x4000
		specs[i] = ThreadSpec{Regs: map[isa.Reg]int64{0: int64(mem.HeapBase), 2: int64(base)}}
		priv[i] = []mem.Range{{Start: base, End: base + 0x4000}}
	}
	m := New(prog, Config{Cores: 4, PrivateMemory: true, PrivateData: priv, MaxCycles: 1 << 62}, specs)
	if !m.IntraRunParallel() {
		b.Fatal("engine not engaged")
	}
	var target uint64
	const slice = 1 << 16
	b.ReportAllocs()
	b.ResetTimer()
	for m.stats.Instructions < uint64(b.N) {
		target += slice
		if _, err := m.RunFor(target); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(m.stats.Instructions), "ns/instr")
}
