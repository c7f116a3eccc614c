package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// This file holds the benchmark's own arithmetic: medians, the tail
// percentile rule, self time from spans, ns per instruction, and the
// private/contended subset split. stats_test.go pins each rule.

// median returns the median of xs (the mean of the middle pair for an
// even count). It returns 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailLadder lists the tail percentiles a latency may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 90, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailPercentile picks the highest percentile of tailLadder that has at
// least minBeyond of n samples beyond it; ok is false when even the
// median has fewer (n < 20).
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// latency is a latency distribution summarized by the percentile rule:
// the median, the highest ladder percentile with at least ten samples
// beyond it, and the sample count.
type latency struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	TailP   float64 `json:"tail_percentile"`
	Tail    float64 `json:"tail"`
	HasTail bool    `json:"has_tail"`
}

// summarize applies the percentile rule to samples.
func summarize(samples []float64) latency {
	l := latency{N: len(samples), P50: median(samples)}
	if p, ok := tailPercentile(len(samples)); ok {
		l.TailP, l.Tail, l.HasTail = p, percentile(samples, p), true
	}
	return l
}

// classMedianMean is the mean over classes of each class's median: the
// typical time of one operation when operations come in classes of
// different cost (serve's request classes). A median over all samples
// would sit between the classes' modes and jump from one to another
// with small shifts in their mix; each class's own median does not.
func classMedianMean(samples map[string][]float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var t float64
	for _, xs := range samples {
		t += median(xs)
	}
	return t / float64(len(samples))
}

// roomFor reports whether another pass fits before deadline: now plus
// the median of the passes so far (in seconds; none counts as 0) is
// not past it. A run then ends close to its measured duration instead
// of up to a whole pass after it.
func roomFor(deadline, now time.Time, passes []float64) bool {
	return !now.Add(time.Duration(median(passes) * float64(time.Second))).After(deadline)
}

// interval is a half-open time range [Start, End).
type interval struct{ Start, End time.Time }

// selfTime is a span's duration minus the part of it that the union of
// its children covers. Children may overlap each other (concurrent
// trials) and may stick out of the span; only their union inside the
// span is subtracted, so overlapping children are not counted twice.
func selfTime(span interval, children []interval) time.Duration {
	var cl []interval
	for _, c := range children {
		if c.Start.Before(span.Start) {
			c.Start = span.Start
		}
		if c.End.After(span.End) {
			c.End = span.End
		}
		if c.End.After(c.Start) {
			cl = append(cl, c)
		}
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i].Start.Before(cl[j].Start) })
	var covered time.Duration
	var cur interval
	for i, c := range cl {
		switch {
		case i == 0:
			cur = c
		case !c.Start.After(cur.End):
			if c.End.After(cur.End) {
				cur.End = c.End
			}
		default:
			covered += cur.End.Sub(cur.Start)
			cur = c
		}
	}
	if len(cl) > 0 {
		covered += cur.End.Sub(cur.Start)
	}
	return span.End.Sub(span.Start) - covered
}

// nsPerInstr is total host time over total simulated instructions —
// the ratio of sums, not the mean of per-run ratios, so a long run
// weighs as much as the instructions it retires.
func nsPerInstr(total time.Duration, instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(total.Nanoseconds()) / float64(instructions)
}

// contendedRule is the subset rule: a workload is contended when its
// native run takes at least one HITM per 1000 simulated instructions.
func contendedRule(hitms, instructions uint64) bool {
	return hitms*1000 >= instructions && instructions > 0
}

// errRoster reports that the workload registry no longer matches the
// frozen subset lists.
var errRoster = errors.New("workload roster changed")

// splitSubsets partitions names into the frozen contended list and the
// rest. Every name must appear in exactly one of the frozen lists, and
// every frozen name must be registered: a workload added or removed
// fails the benchmark instead of silently changing what "all" means.
func splitSubsets(names, frozenContended, frozenPrivate []string) (private, contended []string, err error) {
	class := make(map[string]string, len(frozenContended)+len(frozenPrivate))
	for _, n := range frozenContended {
		class[n] = "contended"
	}
	for _, n := range frozenPrivate {
		if class[n] != "" {
			return nil, nil, fmt.Errorf("%w: %q is frozen as both private and contended", errRoster, n)
		}
		class[n] = "private"
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		seen[n] = true
		switch class[n] {
		case "contended":
			contended = append(contended, n)
		case "private":
			private = append(private, n)
		default:
			return nil, nil, fmt.Errorf("%w: %q is registered but in no frozen subset", errRoster, n)
		}
	}
	for n := range class {
		if !seen[n] {
			return nil, nil, fmt.Errorf("%w: frozen workload %q is no longer registered", errRoster, n)
		}
	}
	return private, contended, nil
}
