package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/baseline/sheriff"
	"repro/internal/baseline/vtune"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workload"
	"repro/laser"
)

// The eval workload is one cold run of the §7 evaluation — every
// registered spec through experiments.Run — which is what a reproducer
// waits for. The executor, the run cache's cross-experiment dedup and
// the Sheriff/VTune baselines do most of their work only here. Each
// pass runs in a fresh child process, so the run cache starts empty
// and in memory, as in a first `laserbench` run.

// evalConfig is the reduced evaluation every pass runs: small enough
// for several cold passes per run, large enough that every figure
// renders real rows (Figure 11's repair triggers at this scale).
var evalConfig = experiments.Config{AccuracyScale: 1, PerfScale: 0.2, Runs: 1, SpeculativeRepair: true}

// evalPass is what a child reports for one cold evaluation.
type evalPass struct {
	WallS      float64            `json:"wall_s"`
	CPUS       float64            `json:"cpu_s"`
	PeakRSSMB  float64            `json:"peak_rss_mb"`
	Units      int                `json:"units"`
	Specs      []evalSpec         `json:"specs"`
	Digest     string             `json:"digest"`
	Computes   int64              `json:"runcache_computes"`
	Failures   []string           `json:"failures,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	PoolWorker int                `json:"pool_workers"`
}

type evalSpec struct {
	Name       string  `json:"name"`
	WallS      float64 `json:"wall_s"`
	SimulatedS float64 `json:"simulated_s"`
	Units      int     `json:"units"`
	Simulated  int     `json:"simulated"`
	CacheHits  int     `json:"cache_hits"`
}

// evalChild is the child process's side: "setup" enumerates the
// registry at the evaluation's configuration and exits; "pass" runs
// the cold evaluation and prints an evalPass as JSON.
func evalChild(mode string) error {
	if mode == "setup" {
		n := 0
		for _, s := range experiments.Specs() {
			n += len(s.Enumerate(evalConfig))
		}
		return json.NewEncoder(os.Stdout).Encode(map[string]int{"units": n})
	}
	p := evalPass{Metrics: map[string]float64{}, PoolWorker: experiments.Parallelism()}
	cpu0 := cpuTime()
	start := time.Now()
	results, sum, err := experiments.Run(evalConfig, func(string) bool { return true }, experiments.RunOptions{})
	p.WallS = time.Since(start).Seconds()
	p.CPUS = (cpuTime() - cpu0).Seconds()
	if err != nil {
		return err
	}
	h := sha256.New()
	var speedups []float64
	for _, r := range results {
		p.Specs = append(p.Specs, evalSpec{Name: r.Spec.Name, WallS: r.WallSeconds, SimulatedS: r.SimulatedSeconds,
			Units: r.Units, Simulated: r.Simulated, CacheHits: r.CacheHits})
		p.Units += r.Units
		if r.Failed() {
			p.Failures = append(p.Failures, fmt.Sprintf("%s: %d units quarantined", r.Spec.Name, r.FailedUnits))
		}
		if r.Warm {
			p.Failures = append(p.Failures, fmt.Sprintf("%s: ran warm, not cold", r.Spec.Name))
		}
		for _, a := range r.Rendered.Artifacts {
			fmt.Fprintf(h, "%s\n%s\n", a.Name, a.Text)
		}
		for k, v := range r.Rendered.Metrics {
			switch {
			case k == "laser_fn" || k == "laser_fp":
				p.Metrics[k] = v
			case r.Spec.Name == "fig10" && k == "laser_geomean":
				p.Metrics["laser_overhead_geomean"] = v
			case r.Spec.Name == "fig11" && strings.HasPrefix(k, "auto_"):
				speedups = append(speedups, v)
			}
		}
	}
	if sum.Failed() {
		p.Failures = append(p.Failures, fmt.Sprintf("%d units quarantined", len(sum.Quarantined)))
	}
	p.Metrics["repair_speedup_geomean"] = geomean(speedups)
	p.Digest = hex.EncodeToString(h.Sum(nil))[:16]
	p.Computes = experiments.CacheStats().Computes
	p.PeakRSSMB, _ = peakRSSMB("self")
	return json.NewEncoder(os.Stdout).Encode(p)
}

// spawnEval runs one child and decodes its JSON reply. It returns the
// child's wall time from spawn to exit as well.
func spawnEval(mode string, out any) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-eval-child", mode)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	start := time.Now()
	err = cmd.Run()
	d := time.Since(start)
	if err != nil {
		return d, fmt.Errorf("eval child %s: %w", mode, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return d, fmt.Errorf("eval child %s: bad reply: %w", mode, err)
	}
	return d, nil
}

// runEval measures cold evaluation passes for the given duration.
func runEval(o runOpts) (*result, error) {
	res := newResult()
	var setups []float64
	setup := func() error {
		var reply map[string]int
		d, err := spawnEval("setup", &reply)
		setups = append(setups, d.Seconds())
		return err
	}

	var passes []*evalPass
	deadline := time.Now().Add(o.seconds)
	// A traced run makes one untraced pass to compare against.
	var walls []float64
	for res.attempted == 0 || (!o.trace && roomFor(deadline, time.Now(), walls)) {
		if err := setup(); err != nil {
			return nil, err
		}
		p := new(evalPass)
		res.attempted++
		if _, err := spawnEval("pass", p); err != nil {
			res.fail(err.Error())
			continue
		}
		if len(p.Failures) > 0 {
			res.fail(strings.Join(p.Failures, "; "))
		} else if len(passes) > 0 && p.Digest != passes[0].Digest {
			res.fail(fmt.Sprintf("render digest %s differs from the run's first pass %s", p.Digest, passes[0].Digest))
		}
		passes = append(passes, p)
		walls = append(walls, p.WallS)
	}
	if len(passes) == 0 {
		return nil, fmt.Errorf("no evaluation pass completed: %s", strings.Join(res.errs, "; "))
	}
	for len(setups) < setupRepeats {
		if err := setup(); err != nil {
			return nil, err
		}
	}
	res.setup = median(setups)
	var cpus, rss []float64
	for _, p := range passes {
		cpus = append(cpus, p.CPUS)
		rss = append(rss, p.PeakRSSMB)
	}
	last := passes[len(passes)-1]
	res.wall = median(walls)
	res.cpu = median(cpus)
	res.rss = median(rss)
	res.ratio = last.Metrics["laser_overhead_geomean"]
	res.detail("passes", float64(len(passes)), "count")
	res.detail("eval_wall_s", res.wall, "s")
	res.detail("eval_units", float64(last.Units), "count")
	res.detail("laser_fn", last.Metrics["laser_fn"], "count")
	res.detail("laser_fp", last.Metrics["laser_fp"], "count")
	res.detail("laser_overhead_geomean", last.Metrics["laser_overhead_geomean"], "ratio")
	res.detail("repair_speedup_geomean", last.Metrics["repair_speedup_geomean"], "ratio")
	res.info["render_digest"] = last.Digest
	res.info["eval_config"] = evalConfig

	if o.trace {
		if err := traceEval(o, res, last); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceEval is the eval workload's traced run: a second cold pass whose
// per-spec phases become spans (the executor reports each phase's wall
// time), plus direct timings of the two baselines and the native
// machine on the evaluation's workload lists.
func traceEval(o runOpts, res *result, untraced *evalPass) error {
	tr := newTracer()
	start := time.Now()
	p := new(evalPass)
	res.attempted++
	if _, err := spawnEval("pass", p); err != nil {
		return err
	}
	if len(p.Failures) > 0 {
		res.fail(strings.Join(p.Failures, "; "))
	}
	if p.Digest != untraced.Digest {
		res.fail("traced pass renders differently from the untraced pass")
	}
	// The child ran the specs back to back; lay their phases end to end
	// from the pass start so each becomes a span.
	at := start
	var simulated float64
	var units, hits int
	for _, s := range p.Specs {
		d := time.Duration(s.WallS * float64(time.Second))
		tr.add("experiments."+s.Name, at, at.Add(d))
		res.layer("experiments."+s.Name+"_wall_s", s.WallS)
		at = at.Add(d)
		simulated += s.SimulatedS
		units += s.Units
		hits += s.CacheHits
	}
	res.layer("experiments.simulated_s", simulated)
	res.layer("experiments.pool_busy_frac", simulated/(p.WallS*float64(p.PoolWorker)))
	res.layer("runcache.computes", float64(p.Computes))
	res.layer("runcache.dedup_frac", float64(hits)/float64(units))
	res.layer("trace.overhead_s", p.WallS-untraced.WallS)
	res.layer("trace.unattributed_s", p.WallS-at.Sub(start).Seconds())
	for k, v := range untraced.Metrics {
		res.layer("eval."+k, v)
	}

	// Baselines and the native machine, timed from outside on the
	// evaluation's own workload lists and scale.
	scale := evalConfig.PerfScale
	var shNs, shInstr, vtNs, vtInstr, natNs, natInstr float64
	var buildS, newS float64
	var coh coherenceTally
	for _, name := range fig14Workloads {
		w, _ := workload.Get(name)
		if w.Sheriff != sheriff.OK {
			continue
		}
		t0 := time.Now()
		img := w.Build(workload.Options{Scale: scale})
		buildS += time.Since(t0).Seconds()
		det := sheriff.NewDetector(sheriff.Detect, sheriff.DefaultConfig(), img.ResolveLine)
		var commitNs time.Duration
		onCommit := func(tid int, writes []machine.LineWrite, now uint64) uint64 {
			c0 := time.Now()
			c := det.OnCommit(tid, writes, now)
			commitNs += time.Since(c0)
			return c
		}
		t0 = time.Now()
		m := machine.New(img.Prog, machine.Config{Cores: suiteCores, PrivateMemory: true, OnCommit: onCommit,
			MaxCycles: 1 << 38, PrivateData: img.PrivateRanges()}, img.Specs)
		img.Init(m)
		newS += time.Since(t0).Seconds()
		t0 = time.Now()
		st, err := m.Run()
		d := time.Since(t0)
		res.attempted++
		if err != nil {
			res.fail(fmt.Sprintf("sheriff %s: %v", name, err))
			continue
		}
		tr.add("sheriff.run", t0, t0.Add(d))
		shNs += float64(d.Nanoseconds())
		shInstr += float64(st.Instructions)
		res.addLayer("sheriff.on_commit_s", commitNs.Seconds())
	}
	for _, name := range workload.Names() {
		w, _ := workload.Get(name)
		t0 := time.Now()
		img := w.Build(workload.Options{Scale: scale, HeapBias: laser.AttachBias})
		buildS += time.Since(t0).Seconds()
		prof := vtune.New(vtune.DefaultConfig(), suiteCores, img.Prog, img.VMMap())
		ei, el := prof.MachineConfig()
		probe := &timedVTune{p: prof}
		t0 = time.Now()
		m := machine.New(img.Prog, machine.Config{Cores: suiteCores, Probe: probe, ExtraInstrCycles: ei,
			ExtraLoadCycles: el, PrivateData: img.PrivateRanges()}, img.Specs)
		img.Init(m)
		newS += time.Since(t0).Seconds()
		t0 = time.Now()
		st, err := m.Run()
		d := time.Since(t0)
		res.attempted++
		if err != nil {
			res.fail(fmt.Sprintf("vtune %s: %v", name, err))
			continue
		}
		tr.add("vtune.run", t0, t0.Add(d))
		vtNs += float64(d.Nanoseconds())
		vtInstr += float64(st.Instructions)
		res.addLayer("vtune.on_hitm_s", probe.ns.Seconds())

		nimg := w.Build(workload.Options{Scale: scale})
		t0 = time.Now()
		nm := machine.New(nimg.Prog, machine.Config{Cores: suiteCores, PrivateData: nimg.PrivateRanges()}, nimg.Specs)
		nimg.Init(nm)
		newS += time.Since(t0).Seconds()
		t0 = time.Now()
		nst, err := nm.Run()
		d = time.Since(t0)
		res.attempted++
		if err != nil {
			res.fail(fmt.Sprintf("native %s: %v", name, err))
			continue
		}
		tr.add("machine.run", t0, t0.Add(d))
		natNs += float64(d.Nanoseconds())
		natInstr += float64(nst.Instructions)
		coh.add(nm.CoherenceCounts(), nst)
	}
	coh.report(res)
	res.layer("sheriff.ns_per_instr", shNs/shInstr)
	res.layer("vtune.ns_per_instr", vtNs/vtInstr)
	res.layer("machine.run_s", natNs/1e9)
	res.layer("machine.instructions", natInstr)
	res.layer("machine.ns_per_instr", natNs/natInstr)
	res.layer("workload.build_s", buildS)
	res.layer("machine.new_s", newS)
	return tr.write(traceDir, fmt.Sprintf("eval-seed%d.json", o.seed))
}

// fig14Workloads mirrors the Figure 14 workload list; the Sheriff
// timing runs the ones Sheriff runs at full scale.
var fig14Workloads = []string{
	"blackscholes", "ferret", "histogram", "histogram'", "kmeans",
	"linear_regression", "lu_cb", "lu_ncb", "matrix_multiply", "pca",
	"radix", "raytrace.splash2x", "reverse_index", "string_match",
	"swaptions", "water_nsquared", "water_spatial",
}

// timedVTune wraps the VTune profiler as a probe and times its HITM
// handling.
type timedVTune struct {
	p  *vtune.Profiler
	ns time.Duration
}

func (t *timedVTune) OnHITM(ev machine.HITMEvent) uint64 {
	t0 := time.Now()
	c := t.p.OnHITM(ev)
	t.ns += time.Since(t0)
	return c
}

func (t *timedVTune) OnContextSwitch(core, from, to int, now uint64) uint64 {
	return t.p.OnContextSwitch(core, from, to, now)
}
