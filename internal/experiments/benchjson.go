package experiments

import (
	"encoding/json"
	"os"
	"runtime"
)

// This file is the machine-readable benchmark output behind laserbench's
// -json flag: per-figure wall times and key scalar metrics, written as
// one JSON document so the performance trajectory is tracked as a CI
// artifact instead of being lost in logs.

// BenchFigure records one experiment's wall time, cache accounting and
// headline scalars. Warm marks a wall time measured against an
// already-warm run cache — zero simulations, so the figure timed only
// cache assembly; comparing warm and cold wall times across runs is
// meaningless, which historically went unflagged.
type BenchFigure struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
	Warm        bool    `json:"warm"`
	// Units is the experiment's work-unit count; Simulated of them were
	// computed this run, CacheHits served from the run cache.
	Units     int `json:"units"`
	Simulated int `json:"simulated"`
	CacheHits int `json:"cache_hits"`
	// FailedUnits counts quarantined units; non-zero means the figure's
	// artifacts are failure markers, not real renderings.
	FailedUnits int `json:"failed_units,omitempty"`
	// SimulatedSeconds is the observed wall time of this run's
	// simulations alone (0 when warm); EstCost is the cost model's
	// estimate for all the figure's units, in model units — the pair is
	// the per-figure calibration signal for cost.go's table.
	SimulatedSeconds float64            `json:"simulated_seconds"`
	EstCost          float64            `json:"est_cost"`
	Metrics          map[string]float64 `json:"metrics,omitempty"`
}

// BenchReport is the top-level -json document.
type BenchReport struct {
	GeneratedBy   string        `json:"generated_by"`
	GoVersion     string        `json:"go_version"`
	NumCPU        int           `json:"num_cpu"`
	GOMAXPROCS    int           `json:"gomaxprocs"`
	PoolWorkers   int           `json:"pool_workers"`
	AccuracyScale float64       `json:"accuracy_scale"`
	PerfScale     float64       `json:"perf_scale"`
	Runs          int           `json:"runs"`
	Figures       []BenchFigure `json:"figures"`
	// Failures is the executor's failure summary: quarantined units and
	// transient retries. Omitted on a fault-free run.
	Failures *FailureSummary `json:"failures,omitempty"`
}

// RecordFailures embeds the run's failure summary (dropped when empty,
// so fault-free BENCH documents are unchanged).
func (r *BenchReport) RecordFailures(sum *FailureSummary) {
	if !sum.Empty() {
		r.Failures = sum
	}
}

// NewBenchReport stamps the host and configuration.
func NewBenchReport(cfg Config) *BenchReport {
	return &BenchReport{
		GeneratedBy:   "laserbench",
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		PoolWorkers:   Parallelism(),
		AccuracyScale: cfg.AccuracyScale,
		PerfScale:     cfg.PerfScale,
		Runs:          cfg.Runs,
	}
}

// Record appends one executed spec's result: the executor's wall time
// and per-unit cache accounting plus the spec's headline metrics.
func (r *BenchReport) Record(res SpecResult) {
	fig := BenchFigure{
		Name:             res.Spec.Name,
		WallSeconds:      res.WallSeconds,
		Warm:             res.Warm,
		Units:            res.Units,
		Simulated:        res.Simulated,
		CacheHits:        res.CacheHits,
		FailedUnits:      res.FailedUnits,
		SimulatedSeconds: res.SimulatedSeconds,
		EstCost:          res.EstCost,
	}
	if res.Rendered != nil {
		fig.Metrics = res.Rendered.Metrics
	}
	r.Figures = append(r.Figures, fig)
}

// WriteFile writes the report as indented JSON.
func (r *BenchReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
