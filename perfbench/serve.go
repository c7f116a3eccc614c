package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/runcache"
	"repro/internal/serverd"
	"repro/internal/statestore"
	"repro/laser"
)

// The serve workload drives a laserd built from the tree over HTTP and
// SSE, with durable state on, from one closed-loop client: one session
// at a time, so the client, laserd and the host's other work do not
// queue for the host's few cores. Each session is a small
// laserload-style contention image, so HTTP, SSE, checkpoints and the
// frame journal do a large share of the work beside the simulated
// machine. Writes (checkpoints, frames) sit beside reads (a mid-stream
// resume with Last-Event-ID on every resumeEvery-th session, a mid-run
// re-thresholded report on every reportEvery-th).

const (
	serveImages    = 8
	serveIters     = 20_000
	servePoll      = 5_000
	serveSAV       = 2
	serveMaxCycles = 50_000_000
	resumeEvery    = 4
	resumeAfter    = 3 // frames read before the mid-stream disconnect
	reportEvery    = 4
	cpuWindow      = time.Second // laserd CPU is sampled per window
)

// serveReq is one attach request with its in-process reference: the
// canonical stream every server-side twin must reproduce byte for byte.
type serveReq struct {
	req    serverd.AttachRequest
	body   []byte
	ref    []byte
	frames [][]byte
	ratio  float64 // monitored / native simulated cycles
}

// serveRequests builds the attach requests: laserload's contention
// image (two threads false-sharing one line) with eight PEBS seeds, so
// every session does about the same work and session latency has one
// mode. The benchmark seed permutes the order the clients send them in
// (see serveLoop) but not the set, so every run does the same simulated
// work.
func serveRequests() ([]serveReq, error) {
	out := make([]serveReq, serveImages)
	for i := range out {
		s := int64(i + 1)
		sav, poll, maxCycles, threshold := serveSAV, uint64(servePoll), uint64(serveMaxCycles), 0.0
		req := serverd.AttachRequest{
			Custom: &serverd.CustomImage{Threads: 2, Iters: serveIters, Stride: 8, Alus: 2},
			Options: serverd.AttachOptions{
				Seed: &s, SAV: &sav, PollInterval: &poll, MaxCycles: &maxCycles, RateThreshold: &threshold,
			},
		}
		if err := req.Validate(); err != nil {
			return nil, err
		}
		var events []laser.Event
		opts, _ := req.SessionOptions(serveMaxCycles)
		opts = append(opts, laser.WithObserver(func(e laser.Event) { events = append(events, e) }))
		sess, err := laser.Attach(req.BuildImage(), opts...)
		if err != nil {
			return nil, err
		}
		res, err := sess.Wait()
		sess.Close()
		if err != nil {
			return nil, err
		}
		nat, err := laser.RunNative(req.BuildImage(), laser.DefaultConfig().Cores)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		frames := make([][]byte, len(events))
		for j, e := range events {
			frames[j] = serverd.EncodeFrame(uint64(j), e)
		}
		out[i] = serveReq{req: req, body: body, ref: serverd.EncodeStream(events), frames: frames,
			ratio: float64(res.Stats.Cycles) / float64(nat.Cycles)}
	}
	return out, nil
}

// daemon is a laserd process the benchmark owns.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	log     *os.File
	stopped bool
}

// startDaemon spawns laserd with durable state under dir and waits for
// /healthz. The returned duration, spawn to healthy, is its set-up.
func startDaemon(bin, dir string) (*daemon, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "laserd.log"))
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-state-dir", filepath.Join(dir, "state"))
	// One OS thread runs laserd's Go code, as one runs the benchmark's:
	// with one client they need no more, and the host's other cores
	// stay free for its other work.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start laserd: %w", err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, log: logf}
	for {
		var hb struct {
			Status string `json:"status"`
		}
		if err := getJSON(d.url+"/healthz", &hb); err == nil && hb.Status == "ok" {
			return d, time.Since(start), nil
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, errors.New("laserd not healthy after 30s")
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// stop ends the daemon with SIGTERM, as an operator would, and kills it
// if it has not exited within 15 s. It always waits for the process;
// stopping twice is a no-op.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	defer d.log.Close()
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return errors.New("laserd ignored SIGTERM for 15s; killed")
	}
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// scrape reads the laserd counters the benchmark reports from /metrics.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out, sc.Err()
}

// sessionTiming is one session's client-side phase timings.
type sessionTiming struct {
	class                                                       int // request index in the seed's order
	start                                                       time.Time
	total, attach, run, firstFrame, stream, resume, report, del time.Duration
	resumed, reported                                           bool
	delivery                                                    []float64 // ms
	phases                                                      []phase
}

// phase is one client-side phase of a session, kept for the trace.
type phase struct {
	name       string
	start, end time.Time
}

// mark records a phase that began at start and ends now, and returns
// its duration.
func (t *sessionTiming) mark(name string, start time.Time) time.Duration {
	end := time.Now()
	t.phases = append(t.phases, phase{name, start, end})
	return end.Sub(start)
}

// serveClient is one closed-loop client.
type serveClient struct {
	url  string
	reqs []serveReq
	hc   *http.Client
}

// errStatus marks a non-2xx reply (429 included): a failed operation.
var errStatus = errors.New("non-2xx response")

func (c *serveClient) do(method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%w: %s %s: %d %s", errStatus, method, url, resp.StatusCode, bytes.TrimSpace(blob))
	}
	return blob, nil
}

// session runs one attach → run → (report) → stream → delete cycle and
// checks the stream against the reference.
func (c *serveClient) session(n int) (sessionTiming, error) {
	r := c.reqs[n%len(c.reqs)]
	t := sessionTiming{class: n % len(c.reqs)}
	t.resumed = n%resumeEvery == 0
	t.reported = n%reportEvery == 2
	start := time.Now()
	t.start = start
	blob, err := c.do(http.MethodPost, c.url+"/sessions", r.body)
	t.attach = t.mark("serverd.attach", start)
	if err != nil {
		return t, err
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(blob, &created); err != nil {
		return t, fmt.Errorf("attach reply: %w", err)
	}
	base := c.url + "/sessions/" + created.ID
	deleted := false
	defer func() {
		// Best-effort cleanup after a failure already being reported;
		// the idle reaper collects the session if this fails too.
		if !deleted {
			c.do(http.MethodDelete, base, nil)
		}
	}()
	t0 := time.Now()
	if _, err := c.do(http.MethodPost, base+"/run", nil); err != nil {
		return t, err
	}
	t.run = t.mark("serverd.run", t0)
	if t.reported {
		t0 = time.Now()
		if _, err := c.do(http.MethodGet, base+"/report?threshold=500", nil); err != nil {
			return t, err
		}
		t.report = t.mark("serverd.report", t0)
	}
	streamStart := time.Now()
	got, err := c.stream(base, &t, streamStart)
	if err != nil {
		return t, err
	}
	t.stream = t.mark("serverd.stream", streamStart)
	if !bytes.Equal(got, r.ref) {
		return t, fmt.Errorf("session %s: stream differs from the reference (%d bytes, want %d)", created.ID, len(got), len(r.ref))
	}
	t0 = time.Now()
	_, err = c.do(http.MethodDelete, base, nil)
	deleted = true
	t.del = t.mark("serverd.delete", t0)
	t.total = time.Since(start)
	return t, err
}

// stream follows the session's SSE stream to its eof frame and returns
// the canonical bytes (timestamp comments stripped). On a resume
// session it drops the connection after resumeAfter frames and
// reconnects with Last-Event-ID.
func (c *serveClient) stream(base string, t *sessionTiming, start time.Time) ([]byte, error) {
	var canonical bytes.Buffer
	lastID := int64(-1)
	frames := 0
	for attempt := 0; attempt < 2; attempt++ {
		req, err := http.NewRequest(http.MethodGet, base+"/events?ts=1", nil)
		if err != nil {
			return nil, err
		}
		if lastID >= 0 {
			req.Header.Set("Last-Event-ID", strconv.FormatInt(lastID, 10))
		}
		reconnect := time.Now()
		resp, err := c.hc.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("%w: GET events: %d", errStatus, resp.StatusCode)
		}
		br := bufio.NewReader(resp.Body)
		var frame bytes.Buffer
		var stamp int64
		frameID := int64(-1)
		isEOF, firstOfConn := false, true
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				resp.Body.Close()
				return nil, fmt.Errorf("stream ended before eof: %w", err)
			}
			if strings.HasPrefix(line, ": t=") {
				stamp, _ = strconv.ParseInt(strings.TrimSpace(line[4:]), 10, 64)
				continue
			}
			frame.WriteString(line)
			if id, ok := strings.CutPrefix(line, "id: "); ok {
				frameID, _ = strconv.ParseInt(strings.TrimSpace(id), 10, 64)
			}
			if line == "event: eof\n" {
				isEOF = true
			}
			if line != "\n" {
				continue
			}
			// A blank line completes the frame.
			now := time.Now()
			frame.WriteTo(&canonical)
			frame.Reset()
			frames++
			if isEOF {
				resp.Body.Close()
				return canonical.Bytes(), nil
			}
			if stamp != 0 {
				t.delivery = append(t.delivery, float64(now.UnixNano()-stamp)/1e6)
				stamp = 0
			}
			if frames == 1 {
				t.firstFrame = now.Sub(start)
			}
			if firstOfConn && attempt == 1 {
				t.resume = now.Sub(reconnect)
			}
			firstOfConn = false
			lastID, frameID = frameID, -1
			if t.resumed && attempt == 0 && frames == resumeAfter {
				break
			}
		}
		resp.Body.Close()
	}
	return nil, errors.New("no eof frame after the resume")
}

// serveLoop runs the closed loop for d and returns every completed
// session's timings. Session n uses request n mod len(reqs) of a
// seed-drawn permutation; with resumeEvery and reportEvery dividing
// len(reqs), each request is also always the same kind of session, so
// its index is the session's class. After every cpuWindow it reads the
// CPU time of laserd (process laserd) and returns, per window, laserd
// CPU seconds per completed session.
func serveLoop(url string, reqs []serveReq, seed int64, d time.Duration, laserd int, res *result) ([]sessionTiming, []float64, error) {
	perm := rand.New(rand.NewSource(seed)).Perm(len(reqs))
	ordered := make([]serveReq, len(reqs))
	for i, j := range perm {
		ordered[i] = reqs[j]
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}, Timeout: 60 * time.Second}
	defer hc.CloseIdleConnections()
	cl := &serveClient{url: url, reqs: ordered, hc: hc}
	var out []sessionTiming
	var cpuPerSession []float64
	cpu0, err := procCPUTime(laserd)
	if err != nil {
		return nil, nil, err
	}
	win0, inWin := time.Now(), 0
	deadline := win0.Add(d)
	for n := 0; time.Now().Before(deadline); n++ {
		t, err := cl.session(n)
		res.attempted++
		if err != nil {
			res.fail(err.Error())
			continue
		}
		out = append(out, t)
		inWin++
		if time.Since(win0) >= cpuWindow {
			cpu1, err := procCPUTime(laserd)
			if err != nil {
				return nil, nil, err
			}
			cpuPerSession = append(cpuPerSession, (cpu1-cpu0).Seconds()/float64(inWin))
			cpu0, win0, inWin = cpu1, time.Now(), 0
		}
	}
	return out, cpuPerSession, nil
}

// byClass groups the sessions' total times, in seconds, by class.
func byClass(ts []sessionTiming) map[string][]float64 {
	out := map[string][]float64{}
	for _, t := range ts {
		k := strconv.Itoa(t.class)
		out[k] = append(out[k], t.total.Seconds())
	}
	return out
}

func msOf(ts []sessionTiming, f func(sessionTiming) (time.Duration, bool)) []float64 {
	var out []float64
	for _, t := range ts {
		if d, ok := f(t); ok {
			out = append(out, float64(d.Nanoseconds())/1e6)
		}
	}
	return out
}

// runServe measures the laserd closed loop.
func runServe(o runOpts) (*result, error) {
	runtime.GOMAXPROCS(1)
	res := newResult()
	runDir, err := filepath.Abs(filepath.Join(".bench_build", "serve", strconv.Itoa(os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	if _, err := os.Stat(o.laserd); err != nil {
		return nil, fmt.Errorf("laserd binary: %w", err)
	}
	reqs, err := serveRequests()
	if err != nil {
		return nil, fmt.Errorf("reference sessions: %w", err)
	}
	var ratios []float64
	for _, r := range reqs {
		ratios = append(ratios, r.ratio)
	}
	res.ratio = geomean(ratios)

	// Set-up is daemon spawn to a healthy /healthz in a fresh state
	// directory. Half the set-ups happen before the loop, the last of
	// them starting the daemon the loop uses, and the rest after it.
	var setups []float64
	spawn := func() (*daemon, error) {
		dd, took, err := startDaemon(o.laserd, filepath.Join(runDir, fmt.Sprint(len(setups))))
		if err == nil {
			setups = append(setups, took.Seconds())
		}
		return dd, err
	}
	probe := func() error {
		dd, err := spawn()
		if err != nil {
			return err
		}
		return dd.stop()
	}
	for i := 0; i < setupRepeats/2; i++ {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	d, err := spawn()
	if err != nil {
		return nil, err
	}
	defer d.stop()

	before, err := scrape(d.url)
	if err != nil {
		return nil, err
	}
	pid := d.cmd.Process.Pid
	loop := o.seconds
	if o.trace {
		loop /= 2
	}
	start := time.Now()
	ts, cpuWins, err := serveLoop(d.url, reqs, o.seed, loop, pid, res)
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	if len(ts) == 0 || len(cpuWins) == 0 {
		return nil, errors.New("no session or CPU window completed")
	}
	totals := msOf(ts, func(t sessionTiming) (time.Duration, bool) { return t.total, true })
	// wall_s is one session's time, attach to delete, per class; cpu_s
	// is laserd's CPU time per session: the median over the loop's CPU
	// windows, each of which already averages every class.
	res.wall = classMedianMean(byClass(ts))
	res.cpu = median(cpuWins)
	if res.rss, err = peakRSSMB(strconv.Itoa(pid)); err != nil {
		return nil, err
	}
	var delivery []float64
	for _, t := range ts {
		delivery = append(delivery, t.delivery...)
	}
	sess, deliv := summarize(totals), summarize(delivery)
	res.detail("serve_sessions_per_s", float64(len(ts))/elapsed.Seconds(), "1/s")
	res.detail("serve_session_p50_ms", sess.P50, "ms")
	res.detail(fmt.Sprintf("serve_session_p%g_ms", sess.TailP), sess.Tail, "ms")
	res.detail("serve_sessions", float64(sess.N), "count")
	res.detail("event_delivery_p50_ms", deliv.P50, "ms")
	res.detail(fmt.Sprintf("event_delivery_p%g_ms", deliv.TailP), deliv.Tail, "ms")
	res.detail("event_delivery_samples", float64(deliv.N), "count")
	res.detail("laserd_cpu_windows", float64(len(cpuWins)), "count")

	if o.trace {
		if err := traceServe(o, d, reqs, res, ts, before, runDir); err != nil {
			return nil, err
		}
	}
	for len(setups) < setupRepeats {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	res.setup = median(setups)
	if err := d.stop(); err != nil {
		return nil, err
	}
	return res, nil
}

// traceServe runs the second half of the loop, turns each session's
// client-side phases into spans under a session span, then scrapes
// laserd's counters and times the statestore and snapshot layers
// directly on the run's own requests.
func traceServe(o runOpts, d *daemon, reqs []serveReq, res *result, untraced []sessionTiming, before map[string]float64, runDir string) error {
	tr := newTracer()
	ts, _, err := serveLoop(d.url, reqs, o.seed, o.seconds/2, d.cmd.Process.Pid, res)
	if err != nil {
		return err
	}
	if len(ts) == 0 {
		return errors.New("no traced session completed")
	}
	for _, t := range ts {
		root := tr.addUnder(-1, "serverd.session", t.start, t.start.Add(t.total))
		for _, p := range t.phases {
			tr.addUnder(root, p.name, p.start, p.end)
		}
	}
	self, _, _ := tr.layerTimes()
	p50 := func(f func(sessionTiming) (time.Duration, bool)) float64 { return median(msOf(ts, f)) }
	res.layer("serverd.attach_ms_p50", p50(func(t sessionTiming) (time.Duration, bool) { return t.attach, true }))
	res.layer("serverd.run_ms_p50", p50(func(t sessionTiming) (time.Duration, bool) { return t.run, true }))
	res.layer("serverd.first_frame_ms_p50", p50(func(t sessionTiming) (time.Duration, bool) { return t.firstFrame, true }))
	res.layer("serverd.resume_ms_p50", p50(func(t sessionTiming) (time.Duration, bool) { return t.resume, t.resume > 0 }))
	res.layer("serverd.report_ms_p50", p50(func(t sessionTiming) (time.Duration, bool) { return t.report, t.reported }))
	res.layer("serverd.delete_ms_p50", p50(func(t sessionTiming) (time.Duration, bool) { return t.del, true }))
	stream := summarize(msOf(ts, func(t sessionTiming) (time.Duration, bool) { return t.stream, true }))
	res.layer("serverd.stream_ms_tail", stream.Tail)
	totals := msOf(ts, func(t sessionTiming) (time.Duration, bool) { return t.total, true })
	sess := summarize(totals)
	var delivery []float64
	for _, t := range ts {
		delivery = append(delivery, t.delivery...)
	}
	res.layer("serve.sessions_per_s", float64(len(ts))/(o.seconds/2).Seconds())
	res.layer("serve.session_p50_ms", sess.P50)
	res.layer("serve.session_tail_ms", sess.Tail)
	res.layer("serve.event_delivery_tail_ms", summarize(delivery).Tail)
	untracedP50 := median(msOf(untraced, func(t sessionTiming) (time.Duration, bool) { return t.total, true }))
	res.layer("trace.overhead_s", (sess.P50-untracedP50)/1e3)
	// Client time outside every phase: JSON decoding, the stream
	// comparison, scheduling between requests.
	res.layer("trace.unattributed_s", self["serverd.session"].Seconds())

	after, err := scrape(d.url)
	if err != nil {
		return err
	}
	rejected := func(m map[string]float64) float64 {
		return m["laserd_sessions_rejected_total"] + m["laserd_runs_rejected_total"]
	}
	res.layer("serverd.rejected_429", rejected(after)-rejected(before))
	res.layer("serverd.checkpoints", after["laserd_checkpoints_total"]-before["laserd_checkpoints_total"])

	// The journal and snapshot layers, timed in-process on the run's
	// requests: a mid-run snapshot as the checkpoint payload and the
	// reference frames as the frame log.
	store, err := statestore.Open(filepath.Join(runDir, "direct"))
	if err != nil {
		return err
	}
	for i, r := range reqs {
		res.attempted++
		if err := timeJournal(store, fmt.Sprintf("bench-%d", i), r, tr, res); err != nil {
			res.fail(err.Error())
		}
	}
	res.fromTracer(tr)
	return tr.write(traceDir, fmt.Sprintf("serve-seed%d.json", o.seed))
}

// timeJournal captures a mid-run snapshot of the request's session,
// then times writing it as a checkpoint, appending the reference frames
// and loading the journal back, and checks the round trip.
func timeJournal(store *statestore.Store, id string, r serveReq, tr *tracer, res *result) error {
	opts, _ := r.req.SessionOptions(serveMaxCycles)
	img := r.req.BuildImage()
	s, err := laser.Attach(img, opts...)
	if err != nil {
		return err
	}
	defer s.Close()
	for i := 0; i < 2; i++ {
		if done, err := s.Step(); done || err != nil {
			return fmt.Errorf("session ended before the snapshot: %v", err)
		}
	}
	if err := timeSnapshot(s, img, opts, tr, res); err != nil {
		return err
	}
	blob, err := s.CaptureState().Encode()
	if err != nil {
		return err
	}
	if err := store.CreateSession(id, r.body); err != nil {
		return err
	}
	defer store.Remove(id)
	stamps := make([]int64, len(r.frames))
	sid := tr.begin("statestore.append")
	err = store.AppendFrames(id, 0, r.frames, stamps)
	tr.end(sid)
	if err != nil {
		return err
	}
	sid = tr.begin("statestore.checkpoint")
	_, err = store.WriteCheckpoint(statestore.Meta{ID: id, CodeVersion: runcache.CodeVersion(),
		Fingerprint: s.Fingerprint(), Events: uint64(len(r.frames)), State: "paused"}, blob)
	tr.end(sid)
	if err != nil {
		return err
	}
	sid = tr.begin("statestore.load")
	j, err := store.LoadSession(id)
	tr.end(sid)
	if err != nil {
		return err
	}
	if !bytes.Equal(j.State, blob) || len(j.Frames) != len(r.frames) {
		return fmt.Errorf("%s: journal did not round-trip", id)
	}
	return nil
}
