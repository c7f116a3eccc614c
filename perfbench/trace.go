package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The traced run records spans around calls into each layer's public
// functions, from the benchmark's own code: name, start, end and the
// span that was open when it began. Spans live in memory and are
// written out when the run ends. Calls too frequent to keep one span
// each (the PEBS probe and the driver sink fire per HITM event) are
// aggregated per name instead; the time they take is charged to the
// span they ran inside, so its self time excludes them.
//
// A tracer is used from one goroutine. A nil *tracer records nothing,
// so untraced code paths can share the call sites.

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	// HotNs is the time aggregated hot calls took inside this span.
	HotNs int64 `json:"hot_ns,omitempty"`
}

// hotStat aggregates one kind of hot call.
type hotStat struct {
	Calls       int64
	Total, Self time.Duration
}

type hotFrame struct {
	name    string
	start   time.Time
	childNs time.Duration
}

type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	hot   map[string]*hotStat
	hots  []hotFrame
	// counts are work counters taken at layer boundaries.
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), hot: make(map[string]*hotStat), counts: make(map[string]int64)}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: t.ns(time.Now()), End: -1, Parent: t.parent()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.ns(time.Now())
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

// add records a closed span from stamps taken elsewhere (observer
// events), as a child of the innermost open span.
func (t *tracer) add(name string, start, end time.Time) {
	t.addUnder(t.parent(), name, start, end)
}

// addUnder records a closed span under parent (-1 for a top-level
// span) and returns its id.
func (t *tracer) addUnder(parent int, name string, start, end time.Time) int {
	t.spans = append(t.spans, span{Name: name, Start: t.ns(start), End: t.ns(end), Parent: parent})
	return len(t.spans) - 1
}

// count adds n to a work counter.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.counts[name] += n
}

// hotBegin and hotEnd bracket one aggregated call. Hot calls nest (the
// sink's overflow runs inside the probe's OnHITM).
func (t *tracer) hotBegin(name string) {
	if t == nil {
		return
	}
	t.hots = append(t.hots, hotFrame{name: name, start: time.Now()})
}

func (t *tracer) hotEnd() {
	if t == nil {
		return
	}
	n := len(t.hots) - 1
	f := t.hots[n]
	t.hots = t.hots[:n]
	d := time.Since(f.start)
	h := t.hot[f.name]
	if h == nil {
		h = &hotStat{}
		t.hot[f.name] = h
	}
	h.Calls++
	h.Total += d
	h.Self += d - f.childNs
	if n > 0 {
		t.hots[n-1].childNs += d
	} else if p := t.parent(); p >= 0 {
		t.spans[p].HotNs += d.Nanoseconds()
	}
}

func (t *tracer) interval(i int) interval {
	return interval{t.epoch.Add(time.Duration(t.spans[i].Start)), t.epoch.Add(time.Duration(t.spans[i].End))}
}

// layerTimes sums, per span name, total and self time and counts the
// spans. Self time is each span minus the union of its children and
// minus the hot calls inside it; hot calls contribute their own self
// time under their own names.
func (t *tracer) layerTimes() (self, total map[string]time.Duration, count map[string]int64) {
	self, total, count = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int64{}
	if t == nil {
		return
	}
	children := make([][]interval, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], t.interval(i))
		}
	}
	for i, s := range t.spans {
		iv := t.interval(i)
		self[s.Name] += selfTime(iv, children[i]) - time.Duration(s.HotNs)
		total[s.Name] += iv.End.Sub(iv.Start)
		count[s.Name]++
	}
	for name, h := range t.hot {
		self[name] += h.Self
		total[name] += h.Total
		count[name] += h.Calls
	}
	return self, total, count
}

// covered returns how much of [start, end) the top-level spans cover;
// the rest of a traced pass is unattributed.
func (t *tracer) covered(start, end time.Time) time.Duration {
	if t == nil {
		return 0
	}
	var roots []interval
	for i, s := range t.spans {
		if s.Parent < 0 {
			roots = append(roots, t.interval(i))
		}
	}
	return end.Sub(start) - selfTime(interval{start, end}, roots)
}

// write saves the spans and hot aggregates as JSON under dir.
func (t *tracer) write(dir, name string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := make([]string, 0, len(t.hot))
	for n := range t.hot {
		names = append(names, n)
	}
	sort.Strings(names)
	hot := make([]map[string]any, 0, len(names))
	for _, n := range names {
		h := t.hot[n]
		hot = append(hot, map[string]any{"name": n, "calls": h.Calls, "total_ns": h.Total.Nanoseconds(), "self_ns": h.Self.Nanoseconds()})
	}
	blob, err := json.Marshal(map[string]any{"spans": t.spans, "hot": hot})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), blob, 0o644)
}
