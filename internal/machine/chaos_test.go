package machine

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// chaosProg builds a two-thread program whose first thread loops over
// private ALU work and then executes a deliberately corrupted
// instruction; the second thread runs the same loop and halts cleanly.
// corrupt rewrites one instruction of the built program in place.
func chaosProg(iters int64, corrupt func(in *isa.Instr)) (*isa.Program, []ThreadSpec) {
	b := isa.NewBuilder().At("chaos.c", 1)
	b.Func("boom")
	b.Li(1, 0)
	b.Label("loop").Line(2)
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, iters, "loop")
	b.Nop() // the instruction chaos tests corrupt (index 4)
	b.Halt()
	prog := b.Build()
	corrupt(&prog.Instrs[4])
	return prog, []ThreadSpec{{Entry: 0}, {Entry: 0}}
}

// A panicking workload on the serial scheduler must come back as a
// *PanicError, not unwind into the caller.
func TestRunPanicContainedSerial(t *testing.T) {
	prog, specs := chaosProg(100, func(in *isa.Instr) { in.Op = isa.Op(250) })
	m := New(prog, Config{Cores: 2}, specs)
	_, err := m.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run() = %v, want *PanicError", err)
	}
	if !strings.Contains(pe.Error(), "machine: panic during run") {
		t.Errorf("PanicError = %q, want the contained-panic message", pe)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
}

// The same containment under the private-segment engine: the panic
// surfaces from RunFor as a *PanicError (a corrupted opcode is a global
// event, retired serially), and the engine leaves no goroutine behind.
func TestEnginePanicContainedAndJoined(t *testing.T) {
	prog, specs := chaosProg(50_000, func(in *isa.Instr) { in.Op = isa.Op(250) })
	base := runtime.NumGoroutine()
	decl := [][]mem.Range{{{Start: mem.HeapBase, End: mem.HeapBase + 64}}}
	m := New(prog, Config{Cores: 2, PrivateData: decl}, specs)
	if !m.IntraRunParallel() {
		t.Fatal("engine not engaged")
	}
	_, err := m.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run() = %v, want *PanicError", err)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines after a contained panic: %d, want <= %d", n, base)
	}
}
