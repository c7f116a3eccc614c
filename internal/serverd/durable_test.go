package serverd

// Durable-session tests: a server restarted on the same state
// directory re-attaches every journaled session from its latest
// checkpoint, resumes the ones that were running, and serves a byte-
// identical event stream across the restart — the same determinism
// claim the SSE tests make, now spanning a process boundary. Journals
// that cannot be restored are quarantined, never fatal to boot.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/runcache"
	"repro/internal/statestore"
)

// bootDurable starts a server on dir without registering cleanup — the
// restart tests stop and reboot servers mid-test.
func bootDurable(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, httptest.NewServer(s.Handler())
}

func health(t *testing.T, base string) healthBody {
	t.Helper()
	var hb healthBody
	if resp := doJSON(t, http.MethodGet, base+"/healthz", nil, &hb); resp.StatusCode != 200 {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}
	return hb
}

// longCustom is a custom image big enough that a shutdown lands
// mid-run, dense enough to emit events steadily.
func longCustom(seed int64) AttachRequest {
	poll := uint64(5_000)
	sav, threshold := 2, 0.0
	return AttachRequest{
		Custom: &CustomImage{Threads: 2, Iters: 1_000_000, Stride: 8, Alus: 4},
		Options: AttachOptions{
			Seed:          &seed,
			SAV:           &sav,
			PollInterval:  &poll,
			RateThreshold: &threshold,
		},
	}
}

func TestDurableRestartRecoversSessions(t *testing.T) {
	cfg := Config{StateDir: t.TempDir(), CheckpointEvents: 4}
	budget := cfg.withDefaults().MaxSessionCycles
	s1, ts1 := bootDurable(t, cfg)

	// A completed session and an idle (never-run) one.
	reqDone, reqIdle := denseCustom(42), denseCustom(7)
	wantDone := referenceStream(t, reqDone, budget)
	wantIdle := referenceStream(t, reqIdle, budget)
	done := attachT(t, ts1.URL, reqDone, http.StatusCreated)
	if resp := doJSON(t, http.MethodPost, ts1.URL+"/sessions/"+done.ID+"/run", nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run = %d", resp.StatusCode)
	}
	final := waitState(t, ts1.URL, done.ID, "done")
	idle := attachT(t, ts1.URL, reqIdle, http.StatusCreated)

	ts1.Close()
	s1.Close()

	s2, ts2 := bootDurable(t, cfg)
	defer func() { ts2.Close(); s2.Close() }()
	if hb := health(t, ts2.URL); !hb.Durable || hb.SessionsRecovered != 2 || hb.SessionsQuarantined != 0 {
		t.Fatalf("post-restart health = %+v, want durable with 2 recovered", hb)
	}

	// The completed session: same id, still done, result served, and a
	// full replay is byte-identical to the pre-restart stream.
	st := waitState(t, ts2.URL, done.ID, "done")
	if st.Events != final.Events {
		t.Fatalf("recovered session has %d events, want %d", st.Events, final.Events)
	}
	if resp := doJSON(t, http.MethodGet, ts2.URL+"/sessions/"+done.ID+"/result", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered result = %d", resp.StatusCode)
	}
	if got := collectSSE(t, ts2.URL, done.ID, "?from=0"); !bytes.Equal(got, wantDone) {
		t.Fatalf("recovered replay diverges: got %d bytes, want %d", len(got), len(wantDone))
	}

	// The idle session runs to completion in the new incarnation and
	// produces the canonical stream from its first event.
	waitState(t, ts2.URL, idle.ID, "idle")
	if resp := doJSON(t, http.MethodPost, ts2.URL+"/sessions/"+idle.ID+"/run", nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run after restart = %d", resp.StatusCode)
	}
	if got := collectSSE(t, ts2.URL, idle.ID, ""); !bytes.Equal(got, wantIdle) {
		t.Fatal("idle session run after restart diverges from canonical stream")
	}

	// New attachments must not collide with recovered ids.
	fresh := attachT(t, ts2.URL, quickCustom(9), http.StatusCreated)
	if fresh.ID == done.ID || fresh.ID == idle.ID {
		t.Fatalf("fresh id %q collides with a recovered one", fresh.ID)
	}
}

func TestDurableRestartResumesRunningSession(t *testing.T) {
	cfg := Config{StateDir: t.TempDir(), CheckpointEvents: 4}
	budget := cfg.withDefaults().MaxSessionCycles
	req := longCustom(23)
	want := referenceStream(t, req, budget)

	s1, ts1 := bootDurable(t, cfg)
	st := attachT(t, ts1.URL, req, http.StatusCreated)
	if resp := doJSON(t, http.MethodPost, ts1.URL+"/sessions/"+st.ID+"/run", nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run = %d", resp.StatusCode)
	}

	// Follow the live stream for three frames, then lose both the
	// connection and the server.
	const k = 3
	resp, err := http.Get(ts1.URL + "/sessions/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	head := readNFrames(t, resp.Body, k)
	resp.Body.Close()
	ts1.Close()
	s1.Close()

	// The new incarnation resumes the run on its own — no client run
	// request — and the standard SSE reconnect (Last-Event-ID of the
	// last frame seen before the restart) continues the stream exactly.
	s2, ts2 := bootDurable(t, cfg)
	defer func() { ts2.Close(); s2.Close() }()
	if hb := health(t, ts2.URL); hb.SessionsRecovered != 1 {
		t.Fatalf("post-restart health = %+v, want 1 recovered", hb)
	}
	reqr, _ := http.NewRequest(http.MethodGet, ts2.URL+"/sessions/"+st.ID+"/events", nil)
	reqr.Header.Set("Last-Event-ID", strconv.Itoa(k-1))
	resp2, err := http.DefaultClient.Do(reqr)
	if err != nil {
		t.Fatal(err)
	}
	tail := collectBody(t, resp2)
	if got := append(append([]byte(nil), head...), tail...); !bytes.Equal(got, want) {
		t.Fatalf("stream across restart diverges: head %d + tail %d bytes, want %d",
			len(head), len(tail), len(want))
	}
	waitState(t, ts2.URL, st.ID, "done")
}

func collectBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events = %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDurableQuarantine(t *testing.T) {
	doctor := func(t *testing.T, mutate func(dir string, raw []byte) []byte) (Config, string) {
		cfg := Config{StateDir: t.TempDir()}
		s1, ts1 := bootDurable(t, cfg)
		st := attachT(t, ts1.URL, quickCustom(3), http.StatusCreated)
		ts1.Close()
		s1.Close()
		path := filepath.Join(cfg.StateDir, "sessions", st.ID, "checkpoint.snap")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mutate(filepath.Dir(path), raw), 0o644); err != nil {
			t.Fatal(err)
		}
		return cfg, st.ID
	}
	check := func(t *testing.T, cfg Config, id, wantReason string) {
		s2, ts2 := bootDurable(t, cfg)
		defer func() { ts2.Close(); s2.Close() }()
		if hb := health(t, ts2.URL); hb.SessionsRecovered != 0 || hb.SessionsQuarantined != 1 {
			t.Fatalf("health = %+v, want 1 quarantined", hb)
		}
		if resp := doJSON(t, http.MethodGet, ts2.URL+"/sessions/"+id, nil, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("quarantined session lookup = %d, want 404", resp.StatusCode)
		}
		reason, err := os.ReadFile(filepath.Join(cfg.StateDir, "quarantine", id, "REASON"))
		if err != nil || !bytes.Contains(reason, []byte(wantReason)) {
			t.Fatalf("REASON = %q, %v; want substring %q", reason, err, wantReason)
		}
		// The daemon stays fully usable after quarantining.
		attachT(t, ts2.URL, quickCustom(4), http.StatusCreated)
	}

	t.Run("corrupt payload", func(t *testing.T) {
		cfg, id := doctor(t, func(_ string, raw []byte) []byte {
			raw[len(raw)-1] ^= 0x40
			return raw
		})
		check(t, cfg, id, "checksum")
	})

	t.Run("code version mismatch", func(t *testing.T) {
		cfg, id := doctor(t, func(_ string, raw []byte) []byte {
			// Rewrite the header's code_version; the header is outside the
			// payload checksum, so only the version gate can refuse it.
			lines := bytes.SplitN(raw, []byte("\n"), 3)
			var meta statestore.Meta
			if err := json.Unmarshal(lines[1], &meta); err != nil {
				t.Fatal(err)
			}
			meta.CodeVersion = "s1-otherbuild"
			doctored, err := json.Marshal(meta)
			if err != nil {
				t.Fatal(err)
			}
			return bytes.Join([][]byte{lines[0], doctored, lines[2]}, []byte("\n"))
		})
		check(t, cfg, id, "code version")
	})
}

// Journal write failures never kill the session: it runs to completion
// with its canonical stream, the failures are counted, and with no
// journal on disk the next boot simply recovers nothing.
func TestDurableWriteFaultsAreNonFatal(t *testing.T) {
	plan, err := faultinject.Parse("seed=9;state.write.err:p=1,match=s00")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(plan)
	defer faultinject.Enable(nil)

	cfg := Config{StateDir: t.TempDir(), CheckpointEvents: 4}
	budget := cfg.withDefaults().MaxSessionCycles
	req := denseCustom(51)
	want := referenceStream(t, req, budget)

	s1, ts1 := bootDurable(t, cfg)
	st := attachT(t, ts1.URL, req, http.StatusCreated)
	if resp := doJSON(t, http.MethodPost, ts1.URL+"/sessions/"+st.ID+"/run", nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run = %d", resp.StatusCode)
	}
	if got := collectSSE(t, ts1.URL, st.ID, ""); !bytes.Equal(got, want) {
		t.Fatal("stream diverges under journal write faults")
	}
	if s1.met.checkpointErrors.Value() == 0 {
		t.Fatal("write faults fired but no checkpoint errors counted")
	}
	ts1.Close()
	s1.Close()

	faultinject.Enable(nil)
	s2, ts2 := bootDurable(t, cfg)
	defer func() { ts2.Close(); s2.Close() }()
	if hb := health(t, ts2.URL); hb.SessionsRecovered != 0 || hb.SessionsQuarantined != 0 {
		t.Fatalf("health after lost journal = %+v, want nothing recovered", hb)
	}
}

// DELETE erases the journal with the session: deleted sessions must not
// resurrect at the next boot.
func TestDurableDeleteRemovesJournal(t *testing.T) {
	cfg := Config{StateDir: t.TempDir()}
	s1, ts1 := bootDurable(t, cfg)
	st := attachT(t, ts1.URL, quickCustom(6), http.StatusCreated)
	if resp := doJSON(t, http.MethodDelete, ts1.URL+"/sessions/"+st.ID, nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	store, err := statestore.Open(cfg.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	if ids, _ := store.Sessions(); len(ids) != 0 {
		t.Fatalf("journal survives DELETE: %v", ids)
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := bootDurable(t, cfg)
	defer func() { ts2.Close(); s2.Close() }()
	if hb := health(t, ts2.URL); hb.SessionsRecovered != 0 {
		t.Fatalf("deleted session recovered: %+v", hb)
	}
}

// The recovered checkpoint pins the code version the canonical way: the
// same string /version reports.
func TestDurableCheckpointPinsCodeVersion(t *testing.T) {
	cfg := Config{StateDir: t.TempDir()}
	s1, ts1 := bootDurable(t, cfg)
	st := attachT(t, ts1.URL, quickCustom(8), http.StatusCreated)
	ts1.Close()
	s1.Close()

	store, err := statestore.Open(cfg.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := store.LoadSession(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.Meta.CodeVersion != runcache.CodeVersion() {
		t.Fatalf("checkpoint pins %q, daemon runs %q", j.Meta.CodeVersion, runcache.CodeVersion())
	}
	if j.Meta.Fingerprint == "" {
		t.Fatal("checkpoint has no config fingerprint")
	}
}

// TestAttachRecordIgnoresRetiredOptions: attach.json journals written by
// older daemons may carry attach options that no longer exist
// ("segment_jit"); recovery must still decode them and replay the
// options that remain.
func TestAttachRecordIgnoresRetiredOptions(t *testing.T) {
	raw := `{"request":{"workload":"histogram'","scale":0.1,"options":{"seed":7,"segment_jit":true}},"max_cycles":1000,"created_unix":1}`
	var rec attachRecord
	if err := json.Unmarshal([]byte(raw), &rec); err != nil {
		t.Fatalf("attach record with a retired option rejected: %v", err)
	}
	if rec.Request.Workload != "histogram'" || rec.Request.Options.Seed == nil || *rec.Request.Options.Seed != 7 || rec.MaxCycles != 1000 {
		t.Fatalf("decoded record = %+v", rec)
	}
	if err := rec.Request.Validate(); err != nil {
		t.Fatalf("decoded request invalid: %v", err)
	}
}
