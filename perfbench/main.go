// Command perfbench is the repository's benchmark. It measures one
// workload per run — eval, suite or serve —
// and prints, as the last line of its standard output, one JSON object
// with the operations attempted and failed, whether every output check
// passed, and the metrics: the end-to-end metrics untraced, the
// per-layer metrics with -trace 1. Lines before it are details
// ("detail <name> <value> <unit>" and "info <json>").
//
// Run it through run.sh, which builds it and laserd from the tree:
//
//	bash perfbench/run.sh --workload suite --seed 1 --seconds 35 --trace 0
//
// See README.md for the metrics, the workloads and why each exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

// setupRepeats is the least number of times each workload sets up per
// run; setup_s is the median. The set-ups are spread over the run, so a
// short stall of the host moves a minority of them.
const setupRepeats = 25

// traceDir is where traced runs write their spans, inside the checkout.
const traceDir = ".bench_build/traces"

type runOpts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	laserd   string
}

func main() {
	var o runOpts
	var secs float64
	var traceFlag int
	child := flag.String("eval-child", "", "internal: run one eval child (setup|pass)")
	flag.StringVar(&o.workload, "workload", "", "eval | suite | serve")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&secs, "seconds", 35, "measured duration per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&o.laserd, "laserd", ".bench_build/bin/laserd", "laserd binary for the serve workload")
	flag.Parse()
	removed := hermetic()

	if *child != "" {
		if err := evalChild(*child); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	o.seconds = time.Duration(secs * float64(time.Second))
	o.trace = traceFlag == 1
	if o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}

	run, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.info["host"] = stampHost(removed)
	res.info["workload"] = o.workload
	res.info["seed"] = o.seed
	if err := res.print(os.Stdout, o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runOpts) (*result, error){
	"eval":  runEval,
	"suite": runSuite,
	"serve": runServe,
}

// endToEnd lists the end-to-end metrics every workload reports, in
// BENCHMARK.json order, with their units.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"laser_runtime_ratio", "ratio"},
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	errs              []string

	setup, wall, cpu, rss, ratio float64

	details []string
	info    map[string]any
	layers  map[string]float64
}

func newResult() *result {
	return &result{info: map[string]any{}, layers: map[string]float64{}}
}

// fail records one failed operation.
func (r *result) fail(msg string) {
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, msg)
	}
}

// detail records a named figure printed before the result line.
func (r *result) detail(name string, v float64, unit string) {
	r.details = append(r.details, fmt.Sprintf("detail %s %.6g %s", name, v, unit))
}

// layer sets a per-layer metric; addLayer accumulates into one.
func (r *result) layer(name string, v float64)    { r.layers[name] = v }
func (r *result) addLayer(name string, v float64) { r.layers[name] += v }

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var errNoMetric = errors.New("metric not measured")

// print writes the details and the result line. Every metric the mode
// promises is printed; a missing per-layer metric means the layer is
// not exercised by this workload and reads 0.
func (r *result) print(f *os.File, trace bool) error {
	for _, d := range r.details {
		fmt.Fprintln(f, d)
	}
	for _, e := range r.errs {
		fmt.Fprintln(f, "error", e)
	}
	info, _ := json.Marshal(r.info)
	fmt.Fprintf(f, "info %s\n", info)

	metrics := map[string]metricJSON{}
	if trace {
		for _, m := range perLayer {
			metrics[m.name] = metricJSON{r.layers[m.name], m.unit}
		}
	} else {
		vals := map[string]float64{"wall_s": r.wall, "cpu_s": r.cpu, "setup_s": r.setup, "peak_rss_mb": r.rss, "laser_runtime_ratio": r.ratio}
		for _, m := range endToEnd {
			if vals[m.name] <= 0 {
				return fmt.Errorf("%w: %s", errNoMetric, m.name)
			}
			metrics[m.name] = metricJSON{vals[m.name], m.unit}
		}
	}
	if r.attempted < 1 {
		return errors.New("no operation attempted")
	}
	out := map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	}
	blob, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", blob)
	return err
}
