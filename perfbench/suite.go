package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/machine"
	"repro/internal/pebs"
	"repro/internal/workload"
	"repro/laser"
)

// The suite workload runs every registered workload, built at one fixed
// scale, natively and then under a full monitored LASER session, in
// sequence on one goroutine with four simulated cores. Its host cost is
// also reported per subset, private and contended, so that a gain on
// private code paid for by contended code shows (the segment compiler
// measured 2.0x on swaptions and 0.88x on histogram): the interpreter
// does nearly all the work on private code, while the PEBS -> driver ->
// pipeline -> repair chain does real work only on contended code.

const (
	suiteScale = 1.0
	suiteCores = 4
)

// frozenContended holds the workloads whose native run at suiteScale
// takes at least one HITM per 1000 simulated instructions
// (contendedRule), derived once and frozen here so the subsets do not
// move with the model. frozenPrivate holds the rest. splitSubsets fails
// the run if the registry gains or loses a name.
var frozenContended = []string{
	"bodytrack", "dedup", "histogram'", "kmeans", "linear_regression", "lu_ncb", "volrend",
}

var frozenPrivate = []string{
	"blackscholes", "canneal", "facesim", "ferret", "fft", "fluidanimate",
	"fmm", "freqmine", "histogram", "lu_cb", "matrix_multiply", "ocean_cp",
	"ocean_ncp", "pca", "radiosity", "radix", "raytrace.parsec",
	"raytrace.splash2x", "reverse_index", "streamcluster", "string_match",
	"swaptions", "vips", "water_nsquared", "water_spatial", "word_count",
	"x264", "barnes",
}

// suiteImages is one workload's prebuilt inputs: the native image and
// the attach-biased image a monitored session sees.
type suiteImages struct {
	name   string
	native *workload.Image
	biased *workload.Image
}

// suiteRef is one workload's outputs from the run's first pass; every
// later pass must reproduce them exactly.
type suiteRef struct {
	native    *machine.Stats
	monitored *machine.Stats
	report    string
	winner    string
}

type suiteBench struct {
	names  []string
	subset map[string]string // workload name -> "private" or "contended"
	images []suiteImages
	refs   map[string]*suiteRef

	// Per-pass accumulators of the last pass, per subset.
	cost   map[string]*hostCost
	ratios []float64
	drift  []string
}

// hostCost is the host time and simulated instructions of a set of runs.
type hostCost struct {
	nativeTime, monTime   time.Duration
	nativeInstr, monInstr uint64
}

func (c *hostCost) add(o *hostCost) {
	c.nativeTime += o.nativeTime
	c.monTime += o.monTime
	c.nativeInstr += o.nativeInstr
	c.monInstr += o.monInstr
}

func newSuiteBench() (*suiteBench, error) {
	names := workload.Names()
	private, contended, err := splitSubsets(names, frozenContended, frozenPrivate)
	if err != nil {
		return nil, err
	}
	b := &suiteBench{names: names, subset: make(map[string]string), refs: make(map[string]*suiteRef)}
	for _, n := range private {
		b.subset[n] = "private"
	}
	for _, n := range contended {
		b.subset[n] = "contended"
	}
	return b, nil
}

// build makes every image and a machine for each, the set-up a user of
// the simulator pays before the first instruction, and returns the
// images with the time it took.
func (b *suiteBench) build(tr *tracer) ([]suiteImages, time.Duration) {
	start := time.Now()
	imgs := make([]suiteImages, len(b.names))
	for i, name := range b.names {
		w, _ := workload.Get(name)
		id := tr.begin("workload.build")
		imgs[i] = suiteImages{
			name:   name,
			native: w.Build(workload.Options{Scale: suiteScale}),
			biased: w.Build(workload.Options{Scale: suiteScale, HeapBias: laser.AttachBias}),
		}
		tr.end(id)
		id = tr.begin("machine.new")
		m := machine.New(imgs[i].native.Prog, machine.Config{Cores: suiteCores, PrivateData: imgs[i].native.PrivateRanges()}, imgs[i].native.Specs)
		imgs[i].native.Init(m)
		tr.end(id)
	}
	return imgs, time.Since(start)
}

// pass runs every workload natively and monitored once, untraced,
// counting each run as one operation in res. A run fails if it errors
// or does not reproduce the run's first pass exactly. The workloads run
// in registry order whatever the seed: an order rotated by the seed
// moved a pass's host time by about 20% from one rotation to another,
// which would be spread across seeds that says nothing about the code.
func (b *suiteBench) pass(res *result) {
	b.cost = map[string]*hostCost{"private": {}, "contended": {}}
	b.ratios, b.drift = b.ratios[:0], b.drift[:0]
	for _, im := range b.images {
		c := b.cost[b.subset[im.name]]
		res.attempted++
		t0 := time.Now()
		st, err := laser.RunNative(im.native, suiteCores)
		d := time.Since(t0)
		if err != nil {
			res.fail(fmt.Sprintf("%s native: %v", im.name, err))
			continue
		}
		c.nativeTime += d
		c.nativeInstr += st.Instructions

		res.attempted++
		t0 = time.Now()
		mres, err := runMonitored(im.biased, nil)
		d = time.Since(t0)
		if err != nil {
			res.fail(fmt.Sprintf("%s monitored: %v", im.name, err))
			continue
		}
		c.monTime += d
		c.monInstr += mres.Stats.Instructions
		b.ratios = append(b.ratios, float64(mres.Stats.Cycles)/float64(st.Cycles))
		if contendedRule(st.HITMs(), st.Instructions) != contains(frozenContended, im.name) {
			b.drift = append(b.drift, im.name)
		}

		ref := &suiteRef{native: st, monitored: mres.Stats, report: mres.Report.Render(), winner: mres.RepairWinner}
		if prev, ok := b.refs[im.name]; !ok {
			b.refs[im.name] = ref
		} else if msg := prev.diff(ref); msg != "" {
			res.fail(fmt.Sprintf("%s: not reproducible across passes: %s", im.name, msg))
		}
	}
}

func (r *suiteRef) diff(o *suiteRef) string {
	switch {
	case !reflect.DeepEqual(r.native, o.native):
		return "native stats differ"
	case !reflect.DeepEqual(r.monitored, o.monitored):
		return "monitored stats differ"
	case r.report != o.report:
		return "monitored report differs"
	case r.winner != o.winner:
		return "repair winner differs"
	}
	return ""
}

// runMonitored is the suite's monitored session: the full stack with
// speculative repair, driven to completion. With a tracer it times
// every Step and turns the synchronous repair events into spans.
func runMonitored(img *workload.Image, tr *tracer) (*laser.Result, error) {
	var stamps []repairStamp
	opts := []laser.Option{laser.WithSpeculativeRepair(true)}
	if tr != nil {
		opts = append(opts, laser.WithObserver(func(e laser.Event) {
			switch e.(type) {
			case laser.RepairTriggered, laser.RepairTrialStarted, laser.RepairTrialResult,
				laser.RepairApplied, laser.RepairDeclined:
				stamps = append(stamps, repairStamp{ev: e, at: time.Now()})
			}
		}))
	}
	s, err := laser.Attach(img, opts...)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if tr == nil {
		return s.Wait()
	}
	for {
		id := tr.begin("session.step")
		stamps = stamps[:0]
		done, err := s.Step()
		repairSpans(tr, stamps)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if done {
			return s.Result()
		}
	}
}

// repairStamp is one observer stamp of a synchronous repair event.
type repairStamp struct {
	ev laser.Event
	at time.Time
}

// repairSpans turns one step's repair stamps into spans: analysis from
// the trigger to the trial start (snapshot cut and fork set-up), the
// trials until their first result, and the install from the last
// result to Applied/Declined. A trigger followed directly by
// Applied/Declined is a direct install. Trial counts accumulate under
// repair.trials_run and repair.trials_completed.
func repairSpans(tr *tracer, st []repairStamp) {
	var trigger, trialStart, lastResult time.Time
	for _, s := range st {
		switch ev := s.ev.(type) {
		case laser.RepairTriggered:
			trigger, trialStart, lastResult = s.at, time.Time{}, time.Time{}
		case laser.RepairTrialStarted:
			trialStart = s.at
			tr.add("repair.analyze", trigger, s.at)
		case laser.RepairTrialResult:
			if lastResult.IsZero() {
				tr.add("repair.trials", trialStart, s.at)
			}
			lastResult = s.at
			if ev.Err == "" {
				tr.count("repair.trials_run", 1)
			}
			if ev.Completed {
				tr.count("repair.trials_completed", 1)
			}
		case laser.RepairApplied, laser.RepairDeclined:
			from := trigger
			if !lastResult.IsZero() {
				from = lastResult
			}
			tr.add("repair.apply", from, s.at)
		}
	}
}

// timedProbe wraps the PEBS unit as the machine's probe, timing and
// counting its calls.
type timedProbe struct {
	u  *pebs.Unit
	tr *tracer
}

func (p *timedProbe) OnHITM(ev machine.HITMEvent) uint64 {
	p.tr.hotBegin("pebs.on_hitm")
	c := p.u.OnHITM(ev)
	p.tr.hotEnd()
	return c
}

func (p *timedProbe) OnContextSwitch(core, from, to int, now uint64) uint64 {
	p.tr.hotBegin("pebs.on_context_switch")
	c := p.u.OnContextSwitch(core, from, to, now)
	p.tr.hotEnd()
	return c
}

// timedSink wraps the driver as the PEBS unit's sink.
type timedSink struct {
	d  *driver.Driver
	tr *tracer
}

func (s *timedSink) Overflow(core int, recs []pebs.Record) uint64 {
	s.tr.hotBegin("driver.overflow")
	c := s.d.Overflow(core, recs)
	s.tr.hotEnd()
	return c
}

// replayRepairOff drives the monitoring stack from its public
// constructors with repair off — the same wiring a session builds —
// timing each layer per poll interval: machine RunFor, driver Poll,
// pipeline Feed and RepairCandidates, with the probe and sink wrapped.
// The caller checks the outcome against a laser.Attach twin.
func replayRepairOff(img *workload.Image, tr *tracer) (*replayOut, error) {
	cfg := laser.DefaultConfig()
	vm := img.VMMap()
	drv := driver.New(cfg.Driver)
	sink := &timedSink{d: drv, tr: tr}
	pmu := pebs.New(cfg.PEBS, cfg.Cores, img.Prog, vm, sink)
	id := tr.begin("core.new")
	pipe, err := core.NewPipeline(cfg.Detector, vm.Render(), img.Prog)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("machine.new")
	m := machine.New(img.Prog, machine.Config{
		Cores: cfg.Cores, Probe: &timedProbe{u: pmu, tr: tr}, PrivateData: img.PrivateRanges(),
	}, img.Specs)
	img.Init(m)
	tr.end(id)
	ingest := func() {
		id := tr.begin("driver.poll")
		recs := drv.Poll()
		tr.end(id)
		tr.count("core.records_fed", int64(len(recs)))
		id = tr.begin("core.feed")
		pipe.Feed(recs)
		tr.end(id)
	}
	next := cfg.PollInterval
	for {
		id := tr.begin("machine.run")
		done, err := m.RunFor(next)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		ingest()
		if done {
			id := tr.begin("pebs.drain")
			pmu.Drain()
			tr.end(id)
			ingest()
			break
		}
		id = tr.begin("core.repair_candidates")
		pipe.RepairCandidates(m.Stats().Seconds())
		tr.end(id)
		next += cfg.PollInterval
	}
	st := m.Stats()
	id = tr.begin("core.report")
	rep := pipe.Report(st.Seconds())
	tr.end(id)
	tr.count("coherence.accesses", sum(m.CoherenceCounts()))
	return &replayOut{stats: st, report: rep, filter: pipe.Filter(), pebs: pmu.Stats(), driver: drv.Stats()}, nil
}

// replayOut is what the repair-off replay produced.
type replayOut struct {
	stats  *machine.Stats
	report *core.Report
	filter core.FilterStats
	pebs   pebs.Stats
	driver driver.Stats
}

func sum(xs []uint64) int64 {
	var t int64
	for _, x := range xs {
		t += int64(x)
	}
	return t
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// runSuite measures whole passes over the suite for the given
// duration. wall_s is the median pass; the traced run adds one traced
// pass and the repair-off replay.
func runSuite(o runOpts) (*result, error) {
	b, err := newSuiteBench()
	if err != nil {
		return nil, err
	}
	// One OS thread runs Go code, so the speculative-repair trials take
	// turns instead of competing with each other for the host's cores.
	runtime.GOMAXPROCS(1)
	res := newResult()
	// One set-up makes the images every pass runs on; the others are
	// timed between passes and their images dropped, so set-up samples
	// spread over the run.
	var setups []float64
	setup := func() []suiteImages {
		imgs, d := b.build(nil)
		setups = append(setups, d.Seconds())
		return imgs
	}
	b.images = setup()

	var walls, cpus []float64
	total := map[string]*hostCost{"private": {}, "contended": {}}
	deadline := time.Now().Add(o.seconds)
	// A traced run makes exactly three untraced passes and compares its
	// traced pass against the median of the last two: the first pass
	// also warms the host caches.
	more := func() bool {
		if o.trace {
			return len(walls) < 3
		}
		return len(walls) == 0 || roomFor(deadline, time.Now(), walls)
	}
	for more() {
		if len(walls) > 0 {
			setup()
		}
		// Every pass starts from a collected heap, so earlier garbage
		// does not land on its clock or peak memory.
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		b.pass(res)
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, (cpuTime() - c0).Seconds())
		for sub, c := range b.cost {
			total[sub].add(c)
		}
	}
	for len(setups) < setupRepeats {
		setup()
	}
	res.setup = median(setups)
	res.wall = median(walls)
	res.cpu = median(cpus)
	res.ratio = geomean(b.ratios)
	res.rss, err = peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	res.detail("passes", float64(len(walls)), "count")
	res.detail("workloads", float64(len(b.names)), "count")
	var perPass uint64
	for _, sub := range []string{"private", "contended"} {
		t, c := total[sub], b.cost[sub]
		res.detail("native_ns_per_instr_"+sub, nsPerInstr(t.nativeTime, t.nativeInstr), "ns")
		res.detail("monitored_ns_per_instr_"+sub, nsPerInstr(t.monTime, t.monInstr), "ns")
		perPass += c.nativeInstr + c.monInstr
	}
	res.detail("simulated_instructions_per_pass", float64(perPass), "count")
	res.info["subsets"] = b.subset
	res.info["subset_drift"] = b.drift
	if o.trace {
		if err := traceSuite(o, b, res, median(walls[1:])); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceSuite runs one traced pass over the subset: every native run
// through machine.New and Run with spans, and every monitored session
// stepped with spans and repair stamps. Outside the timed pass it runs
// the repair-off replay against its laser.Attach twin and times a
// snapshot round trip per workload.
func traceSuite(o runOpts, b *suiteBench, res *result, untracedWall float64) error {
	tr := newTracer()
	b.images, _ = b.build(tr)
	passStart := time.Now()
	var coh coherenceTally
	var natTime, monTime time.Duration
	var natInstr, monInstr, compiled uint64
	parallel := false
	for _, im := range b.images {
		ref := b.refs[im.name]
		t0 := time.Now()
		id := tr.begin("machine.new")
		m := machine.New(im.native.Prog, machine.Config{Cores: suiteCores, PrivateData: im.native.PrivateRanges()}, im.native.Specs)
		im.native.Init(m)
		tr.end(id)
		id = tr.begin("machine.run")
		st, err := m.Run()
		tr.end(id)
		d := time.Since(t0)
		res.attempted++
		if err != nil {
			res.fail(fmt.Sprintf("%s traced native: %v", im.name, err))
			continue
		}
		if !reflect.DeepEqual(st, ref.native) {
			res.fail(fmt.Sprintf("%s: traced native stats differ from the untraced run", im.name))
		}
		coh.add(m.CoherenceCounts(), st)
		natTime += d
		natInstr += st.Instructions
		compiled += st.CompiledInstrs
		parallel = parallel || m.IntraRunParallel()

		t0 = time.Now()
		id = tr.begin("session.attach_and_run")
		mres, err := runMonitored(im.biased, tr)
		tr.end(id)
		md := time.Since(t0)
		res.attempted++
		if err != nil {
			res.fail(fmt.Sprintf("%s traced monitored: %v", im.name, err))
			continue
		}
		if msg := ref.diff(&suiteRef{native: ref.native, monitored: mres.Stats, report: mres.Report.Render(), winner: mres.RepairWinner}); msg != "" {
			res.fail(fmt.Sprintf("%s: traced session differs from the untraced run: %s", im.name, msg))
		}
		monTime += md
		monInstr += mres.Stats.Instructions
	}
	passEnd := time.Now()
	passWall := passEnd.Sub(passStart).Seconds()
	res.layer("trace.overhead_s", passWall-untracedWall)
	res.layer("trace.unattributed_s", passWall-tr.covered(passStart, passEnd).Seconds())
	res.layer("suite.native_ns_per_instr", nsPerInstr(natTime, natInstr))
	res.layer("suite.monitored_ns_per_instr", nsPerInstr(monTime, monInstr))

	// The repair-off replay and its twin, plus a snapshot round trip,
	// outside the timed pass.
	var pst pebs.Stats
	var drvRecords, kept, fed uint64
	for _, im := range b.images {
		out, err := replayRepairOff(im.biased, tr)
		res.attempted++
		if err != nil {
			res.fail(fmt.Sprintf("%s replay: %v", im.name, err))
			continue
		}
		st := out.stats
		natInstr += st.Instructions
		pst.Records += out.pebs.Records
		pst.Interrupts += out.pebs.Interrupts
		drvRecords += out.driver.Records
		kept += out.filter.Kept
		fed += out.filter.Processed
		twin, err := laser.Attach(im.biased, laser.WithRepair(false))
		if err != nil {
			res.fail(fmt.Sprintf("%s twin: %v", im.name, err))
			continue
		}
		tres, err := twin.Wait()
		twin.Close()
		if err != nil {
			res.fail(fmt.Sprintf("%s twin: %v", im.name, err))
			continue
		}
		if !reflect.DeepEqual(st, tres.Stats) || out.report.Render() != tres.Report.Render() {
			res.fail(fmt.Sprintf("%s: repair-off replay differs from its laser.Attach twin", im.name))
		}
		if err := snapshotRoundTrip(im.biased, tr, res); err != nil {
			res.fail(fmt.Sprintf("%s snapshot: %v", im.name, err))
		}
	}
	res.fromTracer(tr)
	coh.report(res)
	res.layer("pebs.records", float64(pst.Records))
	res.layer("pebs.interrupts", float64(pst.Interrupts))
	res.layer("driver.records", float64(drvRecords))
	if fed > 0 {
		res.layer("core.kept_frac", float64(kept)/float64(fed))
	}
	res.layer("machine.instructions", float64(natInstr))
	if natInstr > 0 {
		res.layer("machine.ns_per_instr", res.layers["machine.run_s"]*1e9/float64(natInstr))
		res.layer("machine.compiled_instr_pct", 100*float64(compiled)/float64(natInstr))
	}
	if parallel {
		res.layer("machine.engine_parallel", 1)
	}
	return tr.write(traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
}

// snapshotRoundTrip steps a fresh monitored session twice, then times
// capturing, encoding, decoding and restoring it.
func snapshotRoundTrip(img *workload.Image, tr *tracer, res *result) error {
	opts := []laser.Option{laser.WithSpeculativeRepair(true)}
	s, err := laser.Attach(img, opts...)
	if err != nil {
		return err
	}
	defer s.Close()
	for i := 0; i < 2; i++ {
		if done, err := s.Step(); done || err != nil {
			return err
		}
	}
	return timeSnapshot(s, img, opts, tr, res)
}

// timeSnapshot captures, encodes, decodes and restores s, each under
// its own span, and counts the encoded bytes.
func timeSnapshot(s *laser.Session, img *workload.Image, opts []laser.Option, tr *tracer, res *result) error {
	id := tr.begin("snapshot.capture")
	st := s.CaptureState()
	tr.end(id)
	id = tr.begin("snapshot.encode")
	blob, err := st.Encode()
	tr.end(id)
	if err != nil {
		return err
	}
	res.addLayer("snapshot.bytes", float64(len(blob)))
	id = tr.begin("snapshot.restore")
	dec, err := laser.DecodeSessionState(blob)
	var r *laser.Session
	if err == nil {
		r, err = laser.RestoreSession(img, dec, opts...)
	}
	tr.end(id)
	if err != nil {
		return err
	}
	return r.Close()
}
