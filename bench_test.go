// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§7). Each benchmark runs its experiment end to end on the
// simulated system and prints the rendered artifact, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Key scalar outcomes are attached as
// benchmark metrics. Scales can be tuned via LASER_BENCH_ASCALE /
// LASER_BENCH_PSCALE / LASER_BENCH_RUNS.
//
// The experiment harness runs the independent simulations of each figure
// concurrently on all host cores; LASER_BENCH_PARALLEL caps the worker
// count (1 = serial). Output is byte-identical at any setting — only the
// wall time changes. Native (unmonitored) baseline runs are memoized per
// (workload, scale, variant) across figures and repetitions, so e.g.
// Figure 10's LASER and VTune columns share one baseline simulation per
// workload instead of re-running it six times.
//
// Per-component microbenchmarks live next to their subjects:
// BenchmarkMachineStep and BenchmarkMemoryLoadStore in internal/machine,
// BenchmarkCoherenceAccess in internal/coherence (run with -benchmem; the
// hot paths are 0 allocs/op).
package repro

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/workload"
)

func benchConfig() experiments.Config {
	cfg := experiments.Config{AccuracyScale: 15, PerfScale: 0.8, Runs: 3}
	if v, err := strconv.ParseFloat(os.Getenv("LASER_BENCH_ASCALE"), 64); err == nil && v > 0 {
		cfg.AccuracyScale = v
	}
	if v, err := strconv.ParseFloat(os.Getenv("LASER_BENCH_PSCALE"), 64); err == nil && v > 0 {
		cfg.PerfScale = v
	}
	if v, err := strconv.Atoi(os.Getenv("LASER_BENCH_RUNS")); err == nil && v > 0 {
		cfg.Runs = v
	}
	return cfg
}

// accuracyOnce shares the Table 1 runs between the Table 1, Table 2 and
// Figure 9 benchmarks — exactly as the paper derives all three from the
// same measurement.
var (
	accOnce sync.Once
	accRes  *experiments.AccuracyResult
	accErr  error
)

func accuracy() (*experiments.AccuracyResult, error) {
	accOnce.Do(func() {
		accRes, accErr = experiments.RunAccuracy(benchConfig())
	})
	return accRes, accErr
}

// BenchmarkFigure3 regenerates the §3.1 HITM record characterization.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, sums, err := experiments.RunFigure3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiments.RenderFigure3(sums))
			for _, s := range sums {
				b.ReportMetric(100*s.AddrOK, string(s.Category)+"_addr_pct")
				b.ReportMetric(100*s.PCAdjacent, string(s.Category)+"_adjpc_pct")
			}
		}
	}
}

// BenchmarkTable1 regenerates the detection-accuracy comparison.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := accuracy()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(res.RenderTable1())
			bugs, lfn, lfp, vfn, vfp, sfn, sfp := res.Totals()
			b.ReportMetric(float64(bugs), "bugs")
			b.ReportMetric(float64(lfn), "laser_fn")
			b.ReportMetric(float64(lfp), "laser_fp")
			b.ReportMetric(float64(vfn), "vtune_fn")
			b.ReportMetric(float64(vfp), "vtune_fp")
			b.ReportMetric(float64(sfn), "sheriff_fn")
			b.ReportMetric(float64(sfp), "sheriff_fp")
		}
	}
}

// BenchmarkTable2 regenerates the contention-type classification.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := accuracy()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(res.RenderTable2())
			correct := 0
			for _, row := range res.Rows {
				if row.Bugs > 0 && row.LaserKind == row.ActualKind {
					correct++
				}
			}
			b.ReportMetric(float64(correct), "laser_correct_types")
		}
	}
}

// BenchmarkFigure9 regenerates the rate-threshold sweep.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := accuracy()
		if err != nil {
			b.Fatal(err)
		}
		points := res.Figure9()
		if i == 0 {
			fmt.Println(experiments.RenderFigure9(points))
			for _, p := range points {
				if p.Threshold == 1024 {
					b.ReportMetric(float64(p.FN), "fn_at_1k")
					b.ReportMetric(float64(p.FP), "fp_at_1k")
				}
			}
		}
	}
}

// BenchmarkFigure10 regenerates the LASER/VTune overhead comparison.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFigure10(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiments.RenderFigure10(rows))
			lg, vg := experiments.Geomeans(rows)
			b.ReportMetric(lg, "laser_geomean")
			b.ReportMetric(vg, "vtune_geomean")
		}
	}
}

// BenchmarkFigure11 regenerates the automatic/manual repair speedups.
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFigure11(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiments.RenderFigure11(rows))
			for _, r := range rows {
				if r.Mode == "automatic" {
					b.ReportMetric(r.Speedup, "auto_"+r.Workload)
				}
			}
		}
	}
}

// BenchmarkFigure12 regenerates the detector/driver cost breakdown.
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFigure12(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiments.RenderFigure12(rows))
			b.ReportMetric(float64(len(rows)), "workloads_over_10pct")
		}
	}
}

// BenchmarkFigure13 regenerates the dedup SAV sweep.
func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunFigure13(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiments.RenderFigure13(points))
			for _, p := range points {
				if p.SAV == 1 {
					b.ReportMetric(p.Normalized, "sav1")
				}
				if p.SAV == 19 {
					b.ReportMetric(p.Normalized, "sav19")
				}
			}
		}
	}
}

// BenchmarkIntraRunSpeedup wall-times one high-scale native run (4
// simulated cores, accuracy scale) on the serial reference interpreter
// (the same image with no declared private data) and on the
// private-segment engine the image's declaration selects, and reports
// the speedup. The simulated statistics are byte-identical by
// construction; only the wall clock changes.
func BenchmarkIntraRunSpeedup(b *testing.B) {
	cfg := benchConfig()
	for _, name := range []string{"histogram", "swaptions", "histogram'"} {
		w, ok := workload.Get(name)
		if !ok {
			b.Fatalf("unknown workload %q", name)
		}
		b.Run(name, func(b *testing.B) {
			run := func(engine bool) time.Duration {
				img := w.Build(workload.Options{Scale: cfg.AccuracyScale})
				var priv [][]mem.Range
				if engine {
					priv = img.PrivateRanges()
				}
				m := machine.New(img.Prog, machine.Config{Cores: 4, PrivateData: priv}, img.Specs)
				if m.IntraRunParallel() != engine {
					b.Fatalf("engine engaged = %v, want %v", m.IntraRunParallel(), engine)
				}
				img.Init(m)
				start := time.Now()
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
				return time.Since(start)
			}
			for i := 0; i < b.N; i++ {
				serial := run(false)
				engine := run(true)
				if i == 0 {
					b.ReportMetric(serial.Seconds(), "serial_s")
					b.ReportMetric(engine.Seconds(), "engine_s")
					b.ReportMetric(float64(serial)/float64(engine), "speedup")
				}
			}
		})
	}
}

// BenchmarkFigure14 regenerates the Sheriff comparison.
func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFigure14(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiments.RenderFigure14(rows))
			for _, r := range rows {
				if r.Workload == "water_nsquared" && !r.SheriffFailed {
					b.ReportMetric(r.SheriffDet, "sheriff_det_water_nsq")
				}
			}
		}
	}
}
