package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
)

// hermetic removes every LASER_* variable from this process's
// environment — and therefore from every process it starts — so the
// measured code runs its shipped defaults: no LASER_BENCH_* engine or
// pool overrides, no fault plan, no run-cache version override. It
// returns the names it removed.
func hermetic() []string {
	var removed []string
	for _, kv := range os.Environ() {
		name, _, _ := strings.Cut(kv, "=")
		if strings.HasPrefix(name, "LASER_") {
			os.Unsetenv(name)
			removed = append(removed, name)
		}
	}
	return removed
}

// hostStamp records the host and the effective engine settings with
// every result. None of it is gated; it makes numbers from different
// hosts and settings comparable.
type hostStamp struct {
	NumCPU      int      `json:"nproc"`
	CPUModel    string   `json:"cpu_model"`
	GoVersion   string   `json:"go_version"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	PoolWorkers int      `json:"experiments_parallelism"`
	SegmentJIT  bool     `json:"segment_jit"`
	IntraRun    string   `json:"intra_run_split"`
	CalibNs     float64  `json:"calibration_ns"`
	EnvRemoved  []string `json:"env_removed,omitempty"`
}

func stampHost(removed []string) hostStamp {
	return hostStamp{
		NumCPU:      runtime.NumCPU(),
		CPUModel:    cpuModel(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		PoolWorkers: experiments.Parallelism(),
		// The benchmark never enables the segment compiler and leaves
		// the harness's intra-run split automatic (LASER_BENCH_* is
		// cleared); suite and serve machines run the serial engine.
		SegmentJIT: false,
		IntraRun:   "auto",
		CalibNs:    calibrate(),
		EnvRemoved: removed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// calibrate times a fixed reference loop — an xorshift chain the
// compiler cannot shorten — and returns the median of five timings in
// ns. Dividing a host-time metric by it gives a figure that compares
// across hosts better than the raw time.
func calibrate() float64 {
	var ts []float64
	for r := 0; r < 5; r++ {
		x := uint64(88172645463325252)
		start := time.Now()
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ts = append(ts, float64(time.Since(start).Nanoseconds()))
		calibSink += x
	}
	return median(ts)
}

// peakRSSMB reads VmHWM, the peak resident set, of a process
// ("self" or a pid) in MB.
func peakRSSMB(pid string) (float64, error) {
	blob, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}

// cpuTime is this process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPUTime reads a process's user plus system CPU time from
// /proc/<pid>/stat.
func procCPUTime(pid int) (time.Duration, error) {
	blob, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	s := string(blob)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, os.ErrInvalid
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, os.ErrInvalid
	}
	const ticks = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticks, nil
}
