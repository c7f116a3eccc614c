package experiments

import (
	"bytes"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestSerialParallelEquivalence regenerates a cross-section of the
// evaluation twice — once fully serial (LASER_BENCH_PARALLEL=1), once on
// a multi-worker pool — and demands byte-identical renders and equal
// structured results. This is the contract of the parallel harness: the
// worker pool may only change wall time, never a digit of any artifact.
func TestSerialParallelEquivalence(t *testing.T) {
	type snapshot struct {
		fig3   string
		table1 string
		table2 string
		fig9   []Fig9Point
		fig13  string
	}
	capture := func() snapshot {
		var s snapshot
		_, sums, err := RunFigure3()
		if err != nil {
			t.Fatal(err)
		}
		s.fig3 = RenderFigure3(sums)
		cfg := Config{AccuracyScale: 2, PerfScale: 0.3, Runs: 1}
		// The full-accuracy sweep dominates this test's runtime; -short
		// (the reduced-scale race-detector CI job) keeps the Figure 3 and
		// Figure 13 pools, which exercise the same worker machinery.
		if !testing.Short() {
			acc, err := RunAccuracy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.table1 = acc.RenderTable1()
			s.table2 = acc.RenderTable2()
			s.fig9 = acc.Figure9()
		}
		points, err := RunFigure13(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.fig13 = RenderFigure13(points)
		return s
	}

	t.Setenv("LASER_BENCH_PARALLEL", "1")
	serial := capture()
	t.Setenv("LASER_BENCH_PARALLEL", "4")
	parallel := capture()

	if serial.fig3 != parallel.fig3 {
		t.Errorf("Figure 3 differs between serial and parallel:\n%s\nvs\n%s", serial.fig3, parallel.fig3)
	}
	if serial.table1 != parallel.table1 {
		t.Errorf("Table 1 differs between serial and parallel:\n%s\nvs\n%s", serial.table1, parallel.table1)
	}
	if serial.table2 != parallel.table2 {
		t.Errorf("Table 2 differs between serial and parallel")
	}
	if !reflect.DeepEqual(serial.fig9, parallel.fig9) {
		t.Errorf("Figure 9 differs: %v vs %v", serial.fig9, parallel.fig9)
	}
	if serial.fig13 != parallel.fig13 {
		t.Errorf("Figure 13 differs:\n%s\nvs\n%s", serial.fig13, parallel.fig13)
	}
}

// TestEnvKnobRejection pins the loud-rejection contract of the
// environment knobs: well-formed values are honoured, malformed or
// out-of-range ones warn on stderr once per (variable, value) pair and
// fall back to the documented default.
func TestEnvKnobRejection(t *testing.T) {
	var buf bytes.Buffer
	envWarnWriter = &buf
	defer func() { envWarnWriter = os.Stderr }()

	gmp := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		env      string
		parallel int  // want from Parallelism()
		warn     bool // want a warning emitted
	}{
		{"3", 3, false},
		{"1", 1, false},
		{"0", gmp, true},
		{"-2", gmp, true},
		{"banana", gmp, true},
		{"2.5", gmp, true},
		{"", gmp, false}, // unset-equivalent: silent default
	} {
		envWarned = sync.Map{}
		buf.Reset()
		t.Setenv("LASER_BENCH_PARALLEL", tc.env)
		if got := Parallelism(); got != tc.parallel {
			t.Errorf("LASER_BENCH_PARALLEL=%q: Parallelism() = %d, want %d", tc.env, got, tc.parallel)
		}
		if warned := buf.Len() > 0; warned != tc.warn {
			t.Errorf("LASER_BENCH_PARALLEL=%q: warned=%v, want %v (output %q)", tc.env, warned, tc.warn, buf.String())
		}
		if tc.warn && !strings.Contains(buf.String(), "GOMAXPROCS") {
			t.Errorf("LASER_BENCH_PARALLEL=%q: warning %q does not name the fallback", tc.env, buf.String())
		}
	}

	// The warning dedupes per (variable, value): repeated reads of one
	// bad setting print once.
	envWarned = sync.Map{}
	buf.Reset()
	t.Setenv("LASER_BENCH_PARALLEL", "nope")
	Parallelism()
	Parallelism()
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Errorf("repeated reads of one bad value warned %d times, want 1:\n%s", got, buf.String())
	}
}

// TestNativeRunCache checks the memoized native baseline: repeated calls
// for one (workload, scale, variant) key return the same deterministic
// stats object without re-simulating.
func TestNativeRunCache(t *testing.T) {
	a, err := runNative("histogram", 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runNative("histogram", 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second native run was not served from the cache")
	}
	if a.Cycles == 0 {
		t.Error("cached native run has zero cycles")
	}
	if _, err := runNative("no_such_workload", 1, 0); err == nil {
		t.Error("unknown workload did not error")
	}
}
