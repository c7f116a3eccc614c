package laser

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/baseline/sheriff"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/workload"
)

// engineRun is what the equivalence tests compare between the serial
// reference and the private-segment engine: the full statistics, the
// coherence counters and every page of memory.
type engineRun struct {
	stats  *machine.Stats
	counts []uint64
	pages  []machine.PageState
}

// runMachine runs one freshly initialized machine for img under cfg. With
// engine set it hands the machine the image's declared private data (and
// demands the engine engage whenever any is declared); without, it runs
// the serial reference.
func runMachine(t *testing.T, img *workload.Image, cfg machine.Config, engine bool) engineRun {
	t.Helper()
	if engine {
		cfg.PrivateData = img.PrivateRanges()
		cfg.ValidateSharing = true
	}
	m := machine.New(img.Prog, cfg, img.Specs)
	declared := false
	for _, rs := range cfg.PrivateData {
		declared = declared || len(rs) > 0
	}
	if m.IntraRunParallel() != declared {
		t.Fatalf("engine engaged = %v with private data declared = %v", m.IntraRunParallel(), declared)
	}
	img.Init(m)
	st, err := m.Run()
	if err != nil {
		t.Fatalf("engine %v: %v", engine, err)
	}
	return engineRun{stats: st, counts: m.CoherenceCounts(), pages: m.CaptureState().Pages}
}

// diffRuns names the first part of two engine runs that differs.
func diffRuns(a, b engineRun) string {
	switch {
	case !reflect.DeepEqual(a.stats, b.stats):
		return fmt.Sprintf("stats diverged\nserial: %+v\nengine: %+v", a.stats, b.stats)
	case !reflect.DeepEqual(a.counts, b.counts):
		return fmt.Sprintf("coherence counts diverged: %v vs %v", a.counts, b.counts)
	case !reflect.DeepEqual(a.pages, b.pages):
		return "final memory diverged"
	}
	return ""
}

// TestNativeEngineEquivalenceAllWorkloads runs every stock workload
// natively under the serial reference (no declared private data) and the
// private-segment engine (with sharing validation on) and demands
// identical statistics, HITM ground truth, coherence counters and
// memory. This is the soundness check for every thread-private range the
// workloads declare: a declaration another thread touches either panics
// (validation) or diverges (comparison).
func TestNativeEngineEquivalenceAllWorkloads(t *testing.T) {
	scale := 0.2
	if testing.Short() {
		scale = 0.08
	}
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			variants := []workload.Variant{workload.Native}
			if w.HasFix {
				variants = append(variants, workload.Fixed)
			}
			for _, v := range variants {
				img := w.Build(workload.Options{Scale: scale, Variant: v})
				cfg := machine.Config{Cores: 4}
				if msg := diffRuns(runMachine(t, img, cfg, false), runMachine(t, img, cfg, true)); msg != "" {
					t.Fatalf("variant %d: %s", v, msg)
				}
			}
		})
	}
}

// TestSheriffEngineEquivalenceAllWorkloads covers the private-memory
// (Sheriff) execution model. The engine runs a load inside a segment
// only when it hits the thread's overlay in full or lies inside the
// thread's own private ranges; every other overlay miss must observe
// other threads' commits in the exact serial order. Sharing validation
// checks each commit and atomic against the other threads' ranges, the
// premise of the private-range case.
func TestSheriffEngineEquivalenceAllWorkloads(t *testing.T) {
	scale := 0.3
	if testing.Short() {
		scale = 0.1
	}
	for _, w := range workload.All() {
		if w.Sheriff != sheriff.OK {
			continue
		}
		w := w
		t.Run(w.Name, func(t *testing.T) {
			run := func(engine bool) (engineRun, []sheriff.Finding) {
				img := w.Build(workload.Options{Scale: scale})
				det := sheriff.NewDetector(sheriff.Detect, sheriff.DefaultConfig(), img.ResolveLine)
				r := runMachine(t, img, machine.Config{
					Cores: 4, PrivateMemory: true, OnCommit: det.OnCommit, MaxCycles: 1 << 38,
				}, engine)
				return r, det.Findings()
			}
			serial, sf := run(false)
			engine, ef := run(true)
			if msg := diffRuns(serial, engine); msg != "" {
				t.Fatal(msg)
			}
			if !reflect.DeepEqual(sf, ef) {
				t.Fatalf("sheriff findings diverged: %v vs %v", sf, ef)
			}
		})
	}
}

// attachEngine is Attach with the machine's private data chosen by the
// test: the image's declaration (the engine) or none (the serial
// reference).
func attachEngine(t *testing.T, img *workload.Image, engine bool, opts ...Option) *Session {
	t.Helper()
	st, err := resolveSettings(opts)
	if err != nil {
		t.Fatal(err)
	}
	var priv [][]mem.Range
	if engine {
		priv = img.PrivateRanges()
	}
	s, err := newSession(img, st, priv)
	if err != nil {
		t.Fatal(err)
	}
	if s.m.IntraRunParallel() != engine {
		t.Fatalf("engine engaged = %v, want %v", s.m.IntraRunParallel(), engine)
	}
	return s
}

// TestSessionEngineEquivalence runs the full LASER stack — PEBS sampling,
// driver, detector, online repair — on the serial reference and on the
// private-segment engine, and demands byte-identical rendered reports,
// identical statistics and coherence counters, and the same repair
// outcome. Repair exercises the engine's post-rewrite conservative mode
// (register-only segments).
func TestSessionEngineEquivalence(t *testing.T) {
	for _, name := range []string{"histogram'", "linear_regression", "kmeans", "dedup"} {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func(engine bool) (*Result, string, []uint64) {
				w, ok := workload.Get(name)
				if !ok {
					t.Fatalf("unknown workload %q", name)
				}
				img := w.Build(workload.Options{Scale: 0.5, HeapBias: AttachBias})
				s := attachEngine(t, img, engine, WithMaxEpochs(1), WithPostRepairMonitoring(false))
				defer s.Close()
				res, err := s.Wait()
				if err != nil {
					t.Fatal(err)
				}
				return res, res.Report.Render(), s.m.CoherenceCounts()
			}
			sres, srep, scounts := run(false)
			eres, erep, ecounts := run(true)
			if srep != erep {
				t.Fatalf("rendered reports differ:\nserial:\n%s\nengine:\n%s", srep, erep)
			}
			if !reflect.DeepEqual(sres.Stats, eres.Stats) ||
				sres.RepairApplied != eres.RepairApplied ||
				sres.Seconds != eres.Seconds {
				t.Fatalf("results diverged: serial %+v vs engine %+v", sres.Stats, eres.Stats)
			}
			if sres.DriverStats != eres.DriverStats || sres.PEBSStats != eres.PEBSStats {
				t.Fatalf("monitoring stats diverged")
			}
			if !reflect.DeepEqual(scounts, ecounts) {
				t.Fatalf("coherence counts diverged: %v vs %v", scounts, ecounts)
			}
		})
	}
}

// TestSessionEngineEventStream: the deterministic typed event stream must
// be identical under both engines, event for event.
func TestSessionEngineEventStream(t *testing.T) {
	record := func(engine bool) []string {
		w, _ := workload.Get("histogram'")
		img := w.Build(workload.Options{Scale: 0.4, HeapBias: AttachBias})
		var got []string
		s := attachEngine(t, img, engine,
			WithMaxEpochs(2),
			WithObserver(func(e Event) { got = append(got, fmt.Sprintf("%v", e)) }))
		defer s.Close()
		if _, err := s.Wait(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	serial, engine := record(false), record(true)
	if !reflect.DeepEqual(serial, engine) {
		t.Fatalf("event streams diverged:\nserial: %v\nengine: %v", serial, engine)
	}
}
