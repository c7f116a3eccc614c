package main

import (
	"repro/internal/coherence"
	"repro/internal/machine"
)

// perLayer lists the per-layer metrics of a traced run, in
// BENCHMARK.json order. Every traced run prints all of them; a layer
// the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"machine.run_s", "s"},
	{"machine.instructions", "count"},
	{"machine.ns_per_instr", "ns"},
	{"machine.compiled_instr_pct", "%"},
	{"machine.engine_parallel", "count"},
	{"machine.new_s", "s"},
	{"workload.build_s", "s"},
	{"coherence.accesses_per_kinstr", "count"},
	{"coherence.hitms_per_kinstr", "count"},
	{"pebs.on_hitm_calls", "count"},
	{"pebs.on_hitm_s", "s"},
	{"pebs.records", "count"},
	{"pebs.interrupts", "count"},
	{"driver.overflow_s", "s"},
	{"driver.poll_calls", "count"},
	{"driver.poll_s", "s"},
	{"driver.records", "count"},
	{"core.feed_s", "s"},
	{"core.records_fed", "count"},
	{"core.kept_frac", "frac"},
	{"core.repair_candidates_s", "s"},
	{"core.report_s", "s"},
	{"repair.analyze_s", "s"},
	{"repair.apply_s", "s"},
	{"repair.trials_s", "s"},
	{"repair.trials_run", "count"},
	{"repair.trials_useful_frac", "frac"},
	{"session.step_s", "s"},
	{"session.steps", "count"},
	{"snapshot.capture_s", "s"},
	{"snapshot.encode_s", "s"},
	{"snapshot.bytes", "bytes"},
	{"snapshot.restore_s", "s"},
	{"statestore.checkpoint_s", "s"},
	{"statestore.append_frames_s", "s"},
	{"statestore.load_s", "s"},
	{"serverd.attach_ms_p50", "ms"},
	{"serverd.run_ms_p50", "ms"},
	{"serverd.first_frame_ms_p50", "ms"},
	{"serverd.stream_ms_tail", "ms"},
	{"serverd.resume_ms_p50", "ms"},
	{"serverd.report_ms_p50", "ms"},
	{"serverd.delete_ms_p50", "ms"},
	{"serverd.rejected_429", "count"},
	{"serverd.checkpoints", "count"},
	{"serve.sessions_per_s", "1/s"},
	{"serve.session_p50_ms", "ms"},
	{"serve.session_tail_ms", "ms"},
	{"serve.event_delivery_tail_ms", "ms"},
	{"experiments.fig3_wall_s", "s"},
	{"experiments.accuracy_wall_s", "s"},
	{"experiments.fig10_wall_s", "s"},
	{"experiments.fig11_wall_s", "s"},
	{"experiments.fig12_wall_s", "s"},
	{"experiments.fig13_wall_s", "s"},
	{"experiments.fig14_wall_s", "s"},
	{"experiments.simulated_s", "s"},
	{"experiments.pool_busy_frac", "frac"},
	{"runcache.computes", "count"},
	{"runcache.dedup_frac", "frac"},
	{"sheriff.ns_per_instr", "ns"},
	{"sheriff.on_commit_s", "s"},
	{"vtune.ns_per_instr", "ns"},
	{"vtune.on_hitm_s", "s"},
	{"eval.laser_fn", "count"},
	{"eval.laser_fp", "count"},
	{"eval.laser_overhead_geomean", "ratio"},
	{"eval.repair_speedup_geomean", "ratio"},
	{"suite.native_ns_per_instr", "ns"},
	{"suite.monitored_ns_per_instr", "ns"},
	{"trace.overhead_s", "s"},
	{"trace.unattributed_s", "s"},
}

// spanMetrics maps span and hot-call names to the per-layer metric
// that reports their self time.
var spanMetrics = map[string]string{
	"machine.run":            "machine.run_s",
	"machine.new":            "machine.new_s",
	"workload.build":         "workload.build_s",
	"pebs.on_hitm":           "pebs.on_hitm_s",
	"driver.overflow":        "driver.overflow_s",
	"driver.poll":            "driver.poll_s",
	"core.feed":              "core.feed_s",
	"core.repair_candidates": "core.repair_candidates_s",
	"core.report":            "core.report_s",
	"repair.analyze":         "repair.analyze_s",
	"repair.apply":           "repair.apply_s",
	"repair.trials":          "repair.trials_s",
	"session.step":           "session.step_s",
	"snapshot.capture":       "snapshot.capture_s",
	"snapshot.encode":        "snapshot.encode_s",
	"snapshot.restore":       "snapshot.restore_s",
	"statestore.checkpoint":  "statestore.checkpoint_s",
	"statestore.append":      "statestore.append_frames_s",
	"statestore.load":        "statestore.load_s",
}

// fromTracer adds the tracer's per-layer self times and call counts to
// the result.
func (r *result) fromTracer(tr *tracer) {
	self, _, count := tr.layerTimes()
	for name, metric := range spanMetrics {
		r.addLayer(metric, self[name].Seconds())
	}
	r.addLayer("pebs.on_hitm_calls", float64(count["pebs.on_hitm"]))
	r.addLayer("driver.poll_calls", float64(count["driver.poll"]))
	r.addLayer("session.steps", float64(count["session.step"]))
	r.addLayer("core.records_fed", float64(tr.counts["core.records_fed"]))
	r.addLayer("repair.trials_run", float64(tr.counts["repair.trials_run"]))
	if run := tr.counts["repair.trials_run"]; run > 0 {
		r.layer("repair.trials_useful_frac", float64(tr.counts["repair.trials_completed"])/float64(run))
	}
}

// coherenceTally accumulates coherence directory counts over runs.
type coherenceTally struct {
	accesses, hitms, instructions uint64
}

func (c *coherenceTally) add(counts []uint64, st *machine.Stats) {
	for _, n := range counts {
		c.accesses += n
	}
	c.hitms += counts[coherence.HITMLoad] + counts[coherence.HITMStore]
	c.instructions += st.Instructions
}

func (c *coherenceTally) report(r *result) {
	if c.instructions == 0 {
		return
	}
	r.layer("coherence.accesses_per_kinstr", float64(c.accesses)*1000/float64(c.instructions))
	r.layer("coherence.hitms_per_kinstr", float64(c.hitms)*1000/float64(c.instructions))
}
