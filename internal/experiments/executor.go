package experiments

import (
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/faultinject"
	"repro/internal/runcache"
)

// The executor owns the evaluation's run loop: it walks the registry in
// print order, executes every selected spec's work units on the
// inter-run worker pool (splitting leftover workers inside each
// simulated machine), deduplicates units across experiments by cache
// key, accounts per-unit cache hits versus simulations, and assembles
// each spec's artifacts only after its units are in the cache. Shard
// mode (RunShard) runs the same enumeration but executes only a
// deterministic partition of it — by estimated cost (LPT) or by the
// historical key hash — warming a shared cache directory instead of
// rendering.
//
// Execution is chaos-hardened: every work unit runs under recover()
// with a deadline derived from the cost model and a bounded
// exponential-backoff retry. A unit that exhausts its budget is
// quarantined — its spec renders explicit marker rows instead of real
// artifacts, sibling units and sibling specs keep running — and the
// run's FailureSummary records every quarantined and retried unit.

// SpecResult is one executed experiment: its rendered artifacts plus
// the executor's accounting.
type SpecResult struct {
	Spec     *Spec
	Rendered *Rendered
	// Units is how many work units the spec enumerated. Simulated of
	// them were computed during this spec's phase; CacheHits were served
	// from the run cache — memory, disk, or an earlier spec's phase
	// (cross-experiment dedup).
	Units, Simulated, CacheHits int
	// FailedUnits counts units quarantined after exhausting their retry
	// budget, including units an earlier spec already quarantined
	// (cross-experiment dedup also dedupes failures: a poisoned key is
	// never re-retried). Non-zero means Rendered holds quarantine
	// markers, not real artifacts.
	FailedUnits int
	// Failures are this spec's quarantined units (and its assembly
	// failure, labelled "<assemble>", if any), in unit order.
	Failures []UnitFailure
	// EstCost sums the units' static cost estimates;
	// SimulatedSeconds sums the observed wall time of the simulations
	// this phase actually ran (0 on a fully warm cache).
	EstCost          float64
	SimulatedSeconds float64
	// WallSeconds is the phase's wall time, execution plus assembly.
	// Warm marks it as measured against an already-warm cache
	// (Simulated == 0): it reflects cache assembly, not simulation
	// throughput, and must not be compared against cold wall times.
	WallSeconds float64
	Warm        bool
}

// Failed reports whether the spec rendered quarantine markers instead
// of real artifacts.
func (r *SpecResult) Failed() bool { return len(r.Failures) > 0 }

// Retry-policy defaults; RunOptions overrides each.
const (
	// defaultMaxAttempts bounds tries per failing work unit.
	defaultMaxAttempts = 3
	// defaultDeadlineFloor is the minimum per-unit deadline: tiny units
	// (characterization cases, small-scale CI configs) get a generous
	// absolute floor instead of a meaninglessly small scaled one.
	defaultDeadlineFloor = 30 * time.Second
	// defaultDeadlineScale is the per-unit deadline budget in seconds
	// per cost-model unit (cost.go's abstract units, ~0.03 s/unit
	// observed at CI scale — the default budgets two orders of
	// magnitude of slack before calling a unit stalled).
	defaultDeadlineScale = 5.0
	// defaultBackoffBase is the delay before the first retry; it
	// doubles per subsequent attempt.
	defaultBackoffBase = 100 * time.Millisecond
)

// RunOptions tunes an executor run.
type RunOptions struct {
	// Progress receives one line per completed spec (nil = silent).
	Progress io.Writer
	// OnSpec, when non-nil, is called with each spec's result as soon
	// as it assembles — laserbench streams rendered figures through it,
	// so a failure (or an impatient reader) late in a long evaluation
	// does not discard everything already rendered.
	OnSpec func(SpecResult)
	// MaxAttempts bounds how many times a failing work unit is tried
	// before quarantine (0 = defaultMaxAttempts).
	MaxAttempts int
	// DeadlineFloor is the minimum per-unit deadline
	// (0 = defaultDeadlineFloor).
	DeadlineFloor time.Duration
	// DeadlineScale is the per-unit deadline budget in seconds per
	// cost-model unit; the deadline is
	// max(DeadlineFloor, DeadlineScale × unit cost)
	// (0 = defaultDeadlineScale).
	DeadlineScale float64
	// BackoffBase is the delay before the first retry, doubling per
	// attempt (0 = defaultBackoffBase).
	BackoffBase time.Duration
}

// runPolicy is RunOptions' retry policy with defaults applied.
type runPolicy struct {
	maxAttempts   int
	deadlineFloor time.Duration
	deadlineScale float64
	backoffBase   time.Duration
}

func (o RunOptions) policy() runPolicy {
	p := runPolicy{
		maxAttempts:   o.MaxAttempts,
		deadlineFloor: o.DeadlineFloor,
		deadlineScale: o.DeadlineScale,
		backoffBase:   o.BackoffBase,
	}
	if p.maxAttempts <= 0 {
		p.maxAttempts = defaultMaxAttempts
	}
	if p.deadlineFloor <= 0 {
		p.deadlineFloor = defaultDeadlineFloor
	}
	if p.deadlineScale <= 0 {
		p.deadlineScale = defaultDeadlineScale
	}
	if p.backoffBase <= 0 {
		p.backoffBase = defaultBackoffBase
	}
	return p
}

// deadline derives a unit's per-attempt deadline from its cost-model
// estimate: the scaled estimate, floored for tiny units.
func (p runPolicy) deadline(cost float64) time.Duration {
	d := time.Duration(cost * p.deadlineScale * float64(time.Second))
	if d < p.deadlineFloor {
		d = p.deadlineFloor
	}
	return d
}

// executor carries one run's chaos-hardening state across specs: the
// retry policy, the quarantine (shared across specs — a key one spec
// exhausted is never re-retried by a later spec enumerating it), and
// the run's failure summary. Work units execute concurrently, but all
// quarantine/summary state is folded by the serial spec loop in unit
// order, so the summary is deterministic at any parallelism.
type executor struct {
	pol         runPolicy
	quarantined map[string]*UnitFailure // by cache-key ID
	summary     FailureSummary
}

func newExecutor(pol runPolicy) *executor {
	return &executor{pol: pol, quarantined: make(map[string]*UnitFailure)}
}

// runAttempt executes one attempt of a unit under recover() and the
// deadline. The attempt body runs on its own goroutine so the deadline
// can preempt it; a preempted attempt's goroutine keeps running until
// the simulation's own bounds (machine cycle caps) stop it — the
// buffered channel lets it finish and exit without a receiver.
//
// The unit.* injection points fire here, keyed by the unit's label: a
// panic at the start of the attempt, an injected error, or a stall.
// The stall consumes the whole attempt (it never proceeds to run the
// unit): the run cache's singleflight would otherwise pin later
// attempts behind the stalled computation.
func (x *executor) runAttempt(u WorkUnit, attempt int) error {
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- &unitPanicError{val: r, stack: debug.Stack()}
			}
		}()
		faultinject.Panic(faultinject.PointUnitPanic, u.Label, attempt)
		if err := faultinject.Error(faultinject.PointUnitErr, u.Label, attempt); err != nil {
			done <- err
			return
		}
		if err := faultinject.Stall(faultinject.PointUnitStall, u.Label, attempt); err != nil {
			done <- err
			return
		}
		done <- u.Run()
	}()
	deadline := x.pol.deadline(u.Cost)
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		return &unitTimeoutError{label: u.Label, deadline: deadline}
	}
}

// runUnit drives one unit through the retry budget. It returns the
// unit's failure when every attempt failed (the unit is then
// quarantined by the caller) or the retry record when it succeeded
// after failed attempts; (nil, nil) is a clean first-attempt success.
// runUnit touches no executor state — it runs concurrently on the
// worker pool and the serial spec loop folds its results in unit order.
func (x *executor) runUnit(spec string, u WorkUnit) (*UnitFailure, *UnitRetry) {
	var kinds []string
	var lastErr error
	for attempt := 1; attempt <= x.pol.maxAttempts; attempt++ {
		if attempt > 1 {
			time.Sleep(x.pol.backoffBase << (attempt - 2))
		}
		err := x.runAttempt(u, attempt)
		if err == nil {
			if len(kinds) == 0 {
				return nil, nil
			}
			return nil, &UnitRetry{Spec: spec, Label: u.Label, Attempts: attempt, Kinds: kinds}
		}
		kinds = append(kinds, classifyFault(err))
		lastErr = err
	}
	return &UnitFailure{
		Spec:     spec,
		Label:    u.Label,
		Key:      u.Key.ID(),
		Attempts: x.pol.maxAttempts,
		Kinds:    kinds,
		Reason:   lastErr.Error(),
	}, nil
}

// fold records a phase's per-unit outcomes into the quarantine and the
// summary, in unit order — called from the serial spec loop only.
func (x *executor) fold(fails []*UnitFailure, retries []*UnitRetry) {
	for _, f := range fails {
		if f == nil {
			continue
		}
		if _, dup := x.quarantined[f.Key]; dup {
			continue
		}
		x.quarantined[f.Key] = f
		x.summary.Quarantined = append(x.summary.Quarantined, *f)
	}
	for _, r := range retries {
		if r != nil {
			x.summary.Recovered = append(x.summary.Recovered, *r)
		}
	}
}

// assemble runs a spec's Assemble under recover(), so a panicking
// renderer degrades to a spec failure instead of tearing the run down.
func assemble(spec *Spec, cfg Config) (r *Rendered, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			r, err = nil, &unitPanicError{val: rec, stack: debug.Stack()}
		}
	}()
	return spec.Assemble(cfg)
}

// selected reports whether want picks the spec, by its name or any of
// its artifacts.
func selected(s *Spec, want func(string) bool) bool {
	if want(s.Name) {
		return true
	}
	for _, a := range s.Artifacts {
		if want(a) {
			return true
		}
	}
	return false
}

// Run executes the selected experiments end to end and returns their
// results in registry (print) order, plus the run's failure summary.
//
// Failing units no longer abort the run: each is retried under the
// options' policy, and a unit that exhausts its budget is quarantined —
// sibling units and later specs keep executing, the owning spec renders
// explicit "unit failed (N attempts)" marker artifacts instead of
// calling Assemble (which would silently re-simulate the poisoned keys),
// and the summary reports every quarantined key. Callers decide the
// process outcome from summary.Failed(); the error return is reserved
// for infrastructure failures, not unit failures.
func Run(cfg Config, want func(exp string) bool, opt RunOptions) ([]SpecResult, *FailureSummary, error) {
	x := newExecutor(opt.policy())
	executed := make(map[string]bool)
	var out []SpecResult
	for _, spec := range Specs() {
		if !selected(spec, want) {
			continue
		}
		start := time.Now()
		units := spec.Enumerate(cfg)
		var phase []WorkUnit
		for _, u := range units {
			// Keys an earlier spec quarantined are poisoned, not re-tried:
			// the retry budget is per key, not per (spec, key).
			if id := u.Key.ID(); !executed[id] && x.quarantined[id] == nil {
				phase = append(phase, u)
			}
		}
		fails := make([]*UnitFailure, len(phase))
		retries := make([]*UnitRetry, len(phase))
		forEach(len(phase), func(i int) error {
			fails[i], retries[i] = x.runUnit(spec.Name, phase[i])
			return nil
		})
		x.fold(fails, retries)

		res := SpecResult{Spec: spec, Units: len(units)}
		phaseIDs := make(map[string]bool, len(phase))
		for _, u := range phase {
			phaseIDs[u.Key.ID()] = true
		}
		for _, u := range units {
			id := u.Key.ID()
			res.EstCost += u.Cost
			if f := x.quarantined[id]; f != nil {
				// A failing simulation is not memoized by the run cache, so
				// a quarantined unit is neither a hit nor a simulation.
				res.FailedUnits++
				res.Failures = append(res.Failures, *f)
				continue
			}
			executed[id] = true
			if oc, cost, ok := cache.Lookup(u.Key); ok && oc == runcache.Computed && phaseIDs[id] {
				res.Simulated++
				res.SimulatedSeconds += cost
			} else {
				res.CacheHits++
			}
		}
		if res.FailedUnits > 0 {
			res.Rendered = quarantineRendered(spec, res.Failures)
		} else if rendered, err := assemble(spec, cfg); err != nil {
			f := UnitFailure{
				Spec:     spec.Name,
				Label:    spec.Name + "/<assemble>",
				Key:      spec.Name + "/<assemble>",
				Attempts: 1,
				Kinds:    []string{classifyFault(err)},
				Reason:   err.Error(),
			}
			x.summary.Quarantined = append(x.summary.Quarantined, f)
			res.Failures = append(res.Failures, f)
			res.Rendered = quarantineRendered(spec, res.Failures)
		} else {
			res.Rendered = rendered
		}
		res.WallSeconds = time.Since(start).Seconds()
		res.Warm = res.Simulated == 0 && !res.Failed()
		if opt.Progress != nil {
			failNote := ""
			if res.Failed() {
				failNote = fmt.Sprintf(", %d QUARANTINED", len(res.Failures))
			}
			fmt.Fprintf(opt.Progress, "%s: %d work units (%d simulated, %d cached%s) in %.1fs\n",
				spec.Name, res.Units, res.Simulated, res.CacheHits, failNote, res.WallSeconds)
		}
		if opt.OnSpec != nil {
			opt.OnSpec(res)
		}
		out = append(out, res)
	}
	return out, &x.summary, nil
}

// partitionByCost assigns every unit an owner shard in [0, n) by
// longest-processing-time greedy, so shard wall times track each other
// instead of whichever shard a cost-oblivious split hands the
// accuracy-scale heavyweights to: units in descending cost order (key
// ID breaking ties) each go to the currently lightest shard (lowest
// index on equal load). The result is a pure function of the unit set —
// input order cannot matter, because the sort key is total — so every
// process enumerating the same configuration derives the same
// partition. Greedy LPT bounds the heaviest shard by the cost mean plus
// one maximal unit (and by 4/3 of optimal).
func partitionByCost(units []WorkUnit, n int) []int {
	order := make([]int, len(units))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ua, ub := units[order[a]], units[order[b]]
		if ua.Cost != ub.Cost {
			return ua.Cost > ub.Cost
		}
		return ua.Key.ID() < ub.Key.ID()
	})
	owner := make([]int, len(units))
	load := make([]float64, n)
	for _, idx := range order {
		best := 0
		for s := 1; s < n; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		owner[idx] = best
		load[best] += units[idx].Cost
	}
	return owner
}

// enumerateAll lists the selected specs' work units in registry order,
// deduplicated across experiments by cache key — the exact unit set the
// executor would run, which is what a shard matrix partitions.
func enumerateAll(cfg Config, want func(exp string) bool) []WorkUnit {
	seen := make(map[string]bool)
	var units []WorkUnit
	for _, spec := range Specs() {
		if !selected(spec, want) {
			continue
		}
		for _, u := range spec.Enumerate(cfg) {
			if id := u.Key.ID(); !seen[id] {
				seen[id] = true
				units = append(units, u)
			}
		}
	}
	return units
}

// RunShard executes the shard'th of n deterministic, cost-balanced
// slices (partitionByCost) of the selected experiments' work units on
// the experiment pool, warming the attached cache. It returns how many
// units this shard owns out of the enumerated total, plus the shard's
// failure summary: units run under the same per-unit
// recover/deadline/retry policy as Run, failures don't abort sibling
// units, and the caller decides the process outcome from
// summary.Failed(). Progress and the estimated/observed cost summary
// (the cost-model calibration signal) go to w when non-nil.
func RunShard(cfg Config, want func(exp string) bool, shard, n int, opt RunOptions, w io.Writer) (owned, total int, sum *FailureSummary, err error) {
	if n < 1 || shard < 0 || shard >= n {
		return 0, 0, nil, fmt.Errorf("experiments: shard %d/%d out of range", shard, n)
	}
	units := enumerateAll(cfg, want)
	owners := partitionByCost(units, n)
	var mine []WorkUnit
	var mineCost, allCost float64
	for i, u := range units {
		allCost += u.Cost
		if owners[i] == shard {
			mine = append(mine, u)
			mineCost += u.Cost
		}
	}
	if w != nil {
		fmt.Fprintf(w, "shard %d/%d owns %d of %d work units (est cost %.1f of %.1f)\n",
			shard, n, len(mine), len(units), mineCost, allCost)
	}
	x := newExecutor(opt.policy())
	fails := make([]*UnitFailure, len(mine))
	retries := make([]*UnitRetry, len(mine))
	forEach(len(mine), func(i int) error {
		fails[i], retries[i] = x.runUnit("shard", mine[i])
		return nil
	})
	x.fold(fails, retries)
	if w != nil && mineCost > 0 {
		var observed float64
		for _, u := range mine {
			if oc, cost, ok := cache.Lookup(u.Key); ok && oc == runcache.Computed {
				observed += cost
			}
		}
		// A warm re-run (every unit a cache hit) observed nothing; a zero
		// ratio would pollute the calibration signal, so skip the line.
		if observed > 0 {
			fmt.Fprintf(w, "shard %d/%d simulated %.1fs wall for est cost %.1f (calibration ratio %.3g s/unit)\n",
				shard, n, observed, mineCost, observed/mineCost)
		}
	}
	return len(mine), len(units), &x.summary, nil
}
