package laser_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/workload"
	"repro/laser"
)

// panicImage builds a two-thread image that loops over private ALU work
// and then executes a corrupted instruction — the interpreter panics
// mid-run, which the session must contain as a returned error.
func panicImage(iters int64) *workload.Image {
	b := isa.NewBuilder().At("chaos.c", 1)
	b.Func("boom")
	b.Li(1, 0)
	b.Label("loop").Line(2)
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, iters, "loop")
	b.Nop()
	b.Halt()
	prog := b.Build()
	prog.Instrs[4].Op = isa.Op(250)
	return &workload.Image{
		Prog:    prog,
		Specs:   []machine.ThreadSpec{{Entry: 0}, {Entry: 0}},
		Threads: 2,
	}
}

// spinImage builds a two-thread image that loops long enough for a
// context cancellation to land mid-run.
func spinImage(iters int64) *workload.Image {
	b := isa.NewBuilder().At("chaos.c", 1)
	b.Func("spin")
	b.Li(1, 0)
	b.Label("loop").Line(2)
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, iters, "loop")
	b.Halt()
	prog := b.Build()
	return &workload.Image{
		Prog:    prog,
		Specs:   []machine.ThreadSpec{{Entry: 0}, {Entry: 0}},
		Threads: 2,
	}
}

// waitGoroutines polls until the goroutine count returns to at most
// base, failing with a full stack dump if it never does.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d running, want <= %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A panicking workload inside Session.Run must come back as a returned
// *machine.PanicError — never unwind into the caller — and leave no
// goroutine behind. The session is terminal afterwards.
func TestSessionContainsWorkloadPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := laser.Attach(panicImage(50_000))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(context.Background())
	var pe *machine.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run() error = %v, want *machine.PanicError", err)
	}
	if res == nil {
		t.Fatal("Run() returned no partial result alongside the panic error")
	}
	// Terminal: further steps report done without re-running anything.
	if done, err := s.Step(); !done || err != nil {
		t.Fatalf("Step() after contained panic = (%v, %v), want (true, nil)", done, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

// Close racing a live Run(ctx) from another goroutine — the laserd
// DELETE-while-running path — must be race-free and idempotent: the
// driving goroutine observes ErrClosed at its next step boundary, and
// no goroutine survives.
func TestSessionCloseRacesRun(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := laser.Attach(spinImage(5_000_000))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := s.Run(context.Background())
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	// Several concurrent closers: idempotence under the race, not just
	// in sequence.
	for i := 0; i < 4; i++ {
		go s.Close()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, laser.ErrClosed) {
			t.Fatalf("Run() after concurrent Close = %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run() did not return after concurrent Close")
	}
	waitGoroutines(t, base)
}

// An abandoned session — events queued on the Events channel, consumer
// gone — is what a TTL reaper finds. Close would wait forever for the
// vanished consumer to drain; Detach must discard the queue, close the
// channel, and leave no goroutine behind.
func TestSessionDetachAbandonedConsumer(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := laser.Attach(spinImage(300_000))
	if err != nil {
		t.Fatal(err)
	}
	ch := s.Events() // registered, never drained: events pile up queued
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Detach(); err != nil {
		t.Fatal(err)
	}
	// The channel must close promptly even though nothing was consumed.
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				waitGoroutines(t, base)
				return
			}
			// A straggler the pump had already committed to sending is
			// fine; keep draining until the close.
		case <-deadline:
			t.Fatal("Events channel still open after Detach")
		}
	}
}

// Detach must also release a stream that was first closed gracefully
// but whose consumer never drained it — the Close-then-reap sequence.
func TestSessionDetachAfterClose(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := laser.Attach(spinImage(300_000))
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Events()
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // graceful: queue retained for a consumer
		t.Fatal(err)
	}
	if err := s.Detach(); err != nil { // reaper: consumer never came
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

// An observer-only session (laserd's shape: events captured by callback,
// Events never called) must leave nothing behind after Close regardless
// of how it ended.
func TestSessionObserverOnlyNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	n := 0
	s, err := laser.Attach(spinImage(300_000),
		laser.WithObserver(func(laser.Event) { n++ }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("observer saw no events")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

// Cancelling Run's context mid-run must return the context error with a
// partial result and leave no goroutine behind.
func TestSessionRunCancelNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := laser.Attach(spinImage(5_000_000))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Run(ctx)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run() after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run() did not return after cancellation")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}
