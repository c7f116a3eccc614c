package machine_test

// Machine-level snapshot round-trips for the execution model the laser
// session does not cover: Sheriff-style private memory, where threads
// run on copy-on-write overlays and publish at commit points. The
// detector hangs off OnCommit and is external to the machine, so the
// interrupted run shares one detector between the pre-capture machine
// and its restored successor — exactly how a durable service would
// resume an attached observer.

import (
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/baseline/sheriff"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/workload"
)

func TestMachineSnapshotRoundTripSheriff(t *testing.T) {
	scale := 0.2
	if testing.Short() {
		scale = 0.08
	}
	for _, w := range workload.All() {
		if w.Sheriff != sheriff.OK {
			continue
		}
		w := w
		t.Run(w.Name, func(t *testing.T) {
			// The serial reference (no declared private data), then the
			// private-segment engine.
			for _, engine := range []bool{false, true} {
				img := w.Build(workload.Options{Scale: scale})
				var priv [][]mem.Range
				if engine {
					priv = img.PrivateRanges()
				}
				newMachine := func(det *sheriff.Detector) *machine.Machine {
					m := machine.New(img.Prog, machine.Config{
						Cores: 4, PrivateMemory: true, OnCommit: det.OnCommit,
						MaxCycles: 1 << 38, PrivateData: priv,
					}, img.Specs)
					img.Init(m)
					return m
				}

				// Reference: uninterrupted run.
				detA := sheriff.NewDetector(sheriff.Detect, sheriff.DefaultConfig(), img.ResolveLine)
				mA := newMachine(detA)
				statsA, err := mA.Run()
				if err != nil {
					t.Fatal(err)
				}
				finalA := mA.CaptureState()

				// Interrupted twin: run to a mid-run cycle target, capture,
				// throw the machine away, restore onto a fresh one sharing
				// the same detector, and finish. Commit penalties can push
				// the final clock far past the cycle at which the last
				// thread halts, so a target below Stats.Cycles may still
				// complete the run — halve until the cut is mid-run.
				h := fnv.New32a()
				h.Write([]byte(w.Name))
				if engine {
					h.Write([]byte{1})
				}
				target := uint64(h.Sum32())%statsA.Cycles + 1

				var mB *machine.Machine
				var detB *sheriff.Detector
				for {
					detB = sheriff.NewDetector(sheriff.Detect, sheriff.DefaultConfig(), img.ResolveLine)
					mB = newMachine(detB)
					done, err := mB.RunFor(target)
					if err != nil {
						t.Fatal(err)
					}
					if !done {
						break
					}
					if target <= 64 {
						t.Fatalf("machine completes within %d cycles; cannot interrupt", target)
					}
					target /= 2
				}
				snap := mB.CaptureState()

				mC := newMachine(detB)
				if err := mC.RestoreState(snap); err != nil {
					t.Fatal(err)
				}
				statsC, err := mC.Run()
				if err != nil {
					t.Fatal(err)
				}
				finalC := mC.CaptureState()

				if !reflect.DeepEqual(statsA, statsC) {
					t.Fatalf("engine %v: stats diverged after restore:\nreference: %+v\nrestored:  %+v", engine, statsA, statsC)
				}
				if !reflect.DeepEqual(detA.Findings(), detB.Findings()) {
					t.Fatalf("engine %v: sheriff findings diverged:\n%v\nvs\n%v", engine, detA.Findings(), detB.Findings())
				}
				if !reflect.DeepEqual(finalA, finalC) {
					t.Fatalf("engine %v: final machine snapshots diverged", engine)
				}
			}
		})
	}
}

// TestRestoreRejectsUnalignedBufferedLine: buffered lines are written
// back a whole line at a time, so a snapshot naming a line address with
// offset bits set is malformed and must be refused, not panic later.
func TestRestoreRejectsUnalignedBufferedLine(t *testing.T) {
	b := isa.NewBuilder().At("r.c", 1)
	b.Func("worker")
	b.Halt()
	prog := b.Build()
	cfg := machine.Config{Cores: 2, PrivateMemory: true}
	specs := []machine.ThreadSpec{{}, {}}
	st := machine.New(prog, cfg, specs).CaptureState()
	st.Threads[1].Overlay = []machine.SSBLine{{Line: mem.Line(mem.HeapBase + 4090), Mask: 1}}
	if err := machine.New(prog, cfg, specs).RestoreState(st); err == nil {
		t.Fatal("restore accepted an unaligned buffered line")
	}
}
