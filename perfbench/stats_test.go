package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		ok   bool
		name string
	}{
		{19, 0, false, "too few even for the median"},
		{20, 50, true, "ten beyond the median"},
		{99, 50, true, "9.9 beyond p90 is not enough"},
		{100, 90, true, "ten beyond p90"},
		{999, 90, true, "9.99 beyond p99 is not enough"},
		{1000, 99, true, "ten beyond p99"},
		{10000, 99.9, true, "ten beyond p99.9"},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("n=%d (%s): got p%g ok=%v, want p%g ok=%v", c.n, c.name, p, ok, c.p, c.ok)
		}
	}
}

func TestClassMedianMeanAveragesEachClassMedian(t *testing.T) {
	samples := map[string][]float64{
		"short": {1, 9, 2}, // median 2
		"long":  {10, 30},  // median 20
	}
	// The median of all five samples would be 9, inside neither class.
	if got := classMedianMean(samples); math.Abs(got-11) > 1e-12 {
		t.Errorf("classMedianMean = %g, want (2 + 20) / 2 = 11", got)
	}
	if got := classMedianMean(nil); got != 0 {
		t.Errorf("classMedianMean(nil) = %g, want 0", got)
	}
}

func TestRoomForFitsTheMedianPassBeforeTheDeadline(t *testing.T) {
	now := time.Unix(1000, 0)
	deadline := now.Add(3 * time.Second)
	cases := []struct {
		passes []float64
		want   bool
	}{
		{nil, true},                 // no pass yet, before the deadline
		{[]float64{1, 2, 9}, true},  // median 2 s ends before the deadline
		{[]float64{3}, true},        // ending on the deadline fits
		{[]float64{1, 4, 5}, false}, // median 4 s would overrun it
	}
	for _, c := range cases {
		if got := roomFor(deadline, now, c.passes); got != c.want {
			t.Errorf("roomFor(%v) = %v, want %v", c.passes, got, c.want)
		}
	}
	if roomFor(deadline, deadline.Add(time.Nanosecond), nil) {
		t.Error("roomFor past the deadline = true, want false")
	}
}

func TestSummarizeReportsMedianTailAndCount(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	l := summarize(xs)
	if l.N != 100 || l.P50 != 50.5 || l.TailP != 90 || l.Tail != 90 || !l.HasTail {
		t.Fatalf("summarize(1..100) = %+v, want n=100 p50=50.5 p90=90", l)
	}
	if l := summarize(xs[:10]); l.HasTail || l.N != 10 {
		t.Fatalf("ten samples must report no tail, got %+v", l)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	iv := func(a, b int) interval { return interval{at(a), at(b)} }
	span := iv(0, 100)
	cases := []struct {
		children []interval
		want     time.Duration
	}{
		{nil, 100 * time.Millisecond},
		// [10,30] from two overlapping children, [50,60], and the part
		// of [90,120] inside the span: 40 ms covered.
		{[]interval{iv(15, 30), iv(10, 20), iv(50, 60), iv(90, 120)}, 60 * time.Millisecond},
		// Concurrent children covering the same stretch count once.
		{[]interval{iv(0, 50), iv(0, 50), iv(0, 50)}, 50 * time.Millisecond},
		{[]interval{iv(-10, 200)}, 0},
		{[]interval{iv(100, 120)}, 100 * time.Millisecond},
	}
	for i, c := range cases {
		if got := selfTime(span, c.children); got != c.want {
			t.Errorf("case %d: self time %v, want %v", i, got, c.want)
		}
	}
}

func TestTracerSelfTimesExcludeChildrenAndHotCalls(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "session.step", Start: 0, End: 100, Parent: -1},
		{Name: "repair.trials", Start: 20, End: 60, Parent: 0},
		{Name: "machine.run", Start: 100, End: 200, Parent: -1, HotNs: 30},
	}
	tr.hot["pebs.on_hitm"] = &hotStat{Calls: 3, Total: 30, Self: 25}
	tr.hot["driver.overflow"] = &hotStat{Calls: 1, Total: 5, Self: 5}
	self, total, count := tr.layerTimes()
	want := map[string]time.Duration{"session.step": 60, "repair.trials": 40, "machine.run": 70, "pebs.on_hitm": 25, "driver.overflow": 5}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
	if total["session.step"] != 100 || count["pebs.on_hitm"] != 3 {
		t.Errorf("total/count wrong: %v %v", total, count)
	}
	if got := tr.covered(tr.epoch, tr.epoch.Add(250)); got != 200 {
		t.Errorf("covered = %v, want 200ns of top-level spans", got)
	}
}

func TestNsPerInstrIsTotalOverTotal(t *testing.T) {
	// One long run and one short, slow run: the ratio of sums weighs
	// each by its instructions; the mean of ratios would say 15.5.
	got := nsPerInstr(time.Second+3*time.Second, 1_000_000_000+100_000_000)
	if want := 4e9 / 1.1e9; math.Abs(got-want) > 1e-9 {
		t.Fatalf("nsPerInstr = %v, want %v", got, want)
	}
	if nsPerInstr(time.Second, 0) != 0 {
		t.Fatal("no instructions must read 0, not Inf")
	}
}

func TestContendedRuleIsOneHITMPerKiloInstruction(t *testing.T) {
	if !contendedRule(1, 1000) || contendedRule(1, 1001) || contendedRule(0, 0) {
		t.Fatal("rule must be hitms*1000 >= instructions")
	}
}

func TestSplitSubsets(t *testing.T) {
	private, contended, err := splitSubsets([]string{"a", "b", "c"}, []string{"b"}, []string{"a", "c"})
	if err != nil || len(private) != 2 || len(contended) != 1 || contended[0] != "b" {
		t.Fatalf("split = %v %v %v", private, contended, err)
	}
	bad := []struct {
		names, cont, priv []string
	}{
		{[]string{"a", "b", "new"}, []string{"b"}, []string{"a"}}, // gained a name
		{[]string{"a"}, []string{"b"}, []string{"a"}},             // lost a name
		{[]string{"a", "b"}, []string{"b"}, []string{"a", "b"}},   // frozen twice
	}
	for i, c := range bad {
		if _, _, err := splitSubsets(c.names, c.cont, c.priv); !errors.Is(err, errRoster) {
			t.Errorf("case %d: err = %v, want errRoster", i, err)
		}
	}
}

func TestFrozenSubsetsCoverTheRegistry(t *testing.T) {
	private, contended, err := splitSubsets(workload.Names(), frozenContended, frozenPrivate)
	if err != nil {
		t.Fatal(err)
	}
	if len(private)+len(contended) != 35 || len(contended) != 7 {
		t.Fatalf("subsets %d private + %d contended, want 28 + 7 = all 35", len(private), len(contended))
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 || median(nil) != 0 {
		t.Fatal("median")
	}
	xs := []float64{5, 1, 4, 2, 3}
	if percentile(xs, 50) != 3 || percentile(xs, 100) != 5 || percentile(xs, 1) != 1 {
		t.Fatal("nearest-rank percentile")
	}
}
