package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// collectNames flattens a span tree into its set of span names.
func collectNames(sd *obs.SpanData, into map[string]int) {
	into[sd.Name]++
	for _, c := range sd.Children {
		collectNames(c, into)
	}
}

// TestTraceAdminEndpoints: a traced prediction is retained when the
// client sets X-Trace-Keep, and the admin trace API serves both the
// list view and the full stage-span tree by request ID.
func TestTraceAdminEndpoints(t *testing.T) {
	defer obs.Default.Reset()
	srv, _, _, mm := testServer(t, Config{AdminToken: "tok", TraceSample: -1})
	h := srv.Handler()

	req := httptest.NewRequest(http.MethodPost, "/v1/predict/matrix", strings.NewReader(string(mm)))
	req.Header.Set("X-Request-ID", "keep-me")
	req.Header.Set(obs.TraceKeepHeader, "1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict: %d %s", rec.Code, rec.Body.String())
	}

	// The admin surface stays token-gated for traces too.
	if rec := adminReq(t, h, http.MethodGet, "/v1/admin/trace", ""); rec.Code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated trace list: %d, want 401", rec.Code)
	}

	rec = adminReq(t, h, http.MethodGet, "/v1/admin/trace", "tok")
	if rec.Code != http.StatusOK {
		t.Fatalf("trace list: %d %s", rec.Code, rec.Body.String())
	}
	var list traceListResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 1 || list.Traces[0].TraceID != "keep-me" {
		t.Fatalf("trace list = %+v", list)
	}

	rec = adminReq(t, h, http.MethodGet, "/v1/admin/trace/keep-me", "tok")
	if rec.Code != http.StatusOK {
		t.Fatalf("trace get: %d %s", rec.Code, rec.Body.String())
	}
	var e obs.TraceEntry
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.TraceID != "keep-me" || e.Root == nil || e.Root.Name != "/v1/predict/matrix" {
		t.Fatalf("trace entry = %+v", e)
	}
	found := false
	for _, r := range e.Reasons {
		if r == obs.KeepRequested {
			found = true
		}
	}
	if !found {
		t.Fatalf("reasons = %v, want %q", e.Reasons, obs.KeepRequested)
	}
	// The retained tree must hold the hot-path stage spans — this is the
	// whole point of always-on tracing.
	names := map[string]int{}
	collectNames(e.Root, names)
	for _, want := range []string{"memo", "parse", "features/full", "predict"} {
		if names[want] == 0 {
			t.Errorf("stage span %q missing from retained tree; have %v", want, names)
		}
	}
	if e.Root.Metrics["status"] != 200 {
		t.Errorf("root status metric = %v, want 200", e.Root.Metrics["status"])
	}

	rec = adminReq(t, h, http.MethodGet, "/v1/admin/trace/absent", "tok")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("missing trace: %d, want 404", rec.Code)
	}

	// A repeat body is ordinary traffic: memoized features answer it and
	// nothing force-keeps its trace. Kept on request, its tree shows the
	// memo hit feeding the live model, with no parse.
	predictWithID(t, h, "/v1/predict/matrix", "repeat", mm)
	if e := srv.traces.Get("repeat"); e != nil {
		t.Fatalf("memo-hit request retained unasked: %v", e.Reasons)
	}
	req = httptest.NewRequest(http.MethodPost, "/v1/predict/matrix", strings.NewReader(string(mm)))
	req.Header.Set("X-Request-ID", "repeat-kept")
	req.Header.Set(obs.TraceKeepHeader, "1")
	h.ServeHTTP(httptest.NewRecorder(), req)
	kept := srv.traces.Get("repeat-kept")
	if kept == nil {
		t.Fatal("memo-hit request with X-Trace-Keep not retained")
	}
	names = map[string]int{}
	collectNames(kept.Root, names)
	if names["memo"] != 1 || names["predict"] != 1 || names["parse"] != 0 {
		t.Fatalf("memo-hit trace spans = %v, want memo and predict without parse", names)
	}
}

// TestTraceDisabled: -trace -1 turns the store off; the admin endpoints
// answer 501 rather than an empty list, so an operator can tell
// "nothing retained" from "not tracing".
func TestTraceDisabled(t *testing.T) {
	defer obs.Default.Reset()
	srv, _, _, mm := testServer(t, Config{AdminToken: "tok", TraceCapacity: -1})
	h := srv.Handler()
	predictWithID(t, h, "/v1/predict/matrix", "no-store", mm)
	for _, path := range []string{"/v1/admin/trace", "/v1/admin/trace/no-store"} {
		if rec := adminReq(t, h, http.MethodGet, path, "tok"); rec.Code != http.StatusNotImplemented {
			t.Fatalf("GET %s with tracing disabled: %d, want 501", path, rec.Code)
		}
	}
}

// TestBurnProfilerTrigger drives the burn profiler with injected burn
// rates and clock: a single breach does not capture, a sustained one
// does, and the rate limit holds until the window passes.
func TestBurnProfilerTrigger(t *testing.T) {
	dir := t.TempDir()
	rate := 0.0
	now := time.Unix(1000, 0)
	b := newBurnProfiler(burnConfig{
		Dir:             dir,
		Threshold:       2,
		Consecutive:     2,
		Window:          5 * time.Minute,
		ProfileDuration: 10 * time.Millisecond,
		BurnRate:        func() float64 { return rate },
		Traces: func() []*obs.TraceEntry {
			return []*obs.TraceEntry{{TraceID: "t1", Reasons: []string{obs.KeepError}, Status: 500}}
		},
		Now: func() time.Time { return now },
	})

	if b.tick() {
		t.Fatal("captured with burn rate below threshold")
	}
	rate = 5
	if b.tick() {
		t.Fatal("captured on first over-threshold reading")
	}
	if !b.tick() {
		t.Fatal("no capture after sustained breach")
	}
	waitForCapture(t, dir, 1)

	// Rate-limited: still burning, inside the window.
	now = now.Add(time.Minute)
	if b.tick() {
		t.Fatal("captured inside the rate-limit window")
	}
	// Window passed, burn still sustained: one more capture.
	now = now.Add(5 * time.Minute)
	if !b.tick() {
		t.Fatal("no capture after the rate-limit window passed")
	}
	waitForCapture(t, dir, 2)

	// A dip resets the streak.
	rate = 0
	b.tick()
	rate = 5
	now = now.Add(6 * time.Minute)
	if b.tick() {
		t.Fatal("captured without a renewed consecutive streak")
	}

	// The snapshot next to the profile carries the trace store contents.
	snaps, _ := filepath.Glob(filepath.Join(dir, "burn-*-traces.json"))
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		BurnRate float64           `json:"burn_rate"`
		Traces   []*obs.TraceEntry `json:"traces"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.BurnRate != 5 || len(snap.Traces) != 1 || snap.Traces[0].TraceID != "t1" {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// waitForCapture polls until dir holds n complete capture pairs.
func waitForCapture(t *testing.T, dir string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		profs, _ := filepath.Glob(filepath.Join(dir, "burn-*-cpu.pprof"))
		snaps, _ := filepath.Glob(filepath.Join(dir, "burn-*-traces.json"))
		if len(profs) >= n && len(snaps) >= n {
			// The profile file appears before profiling stops; wait for
			// content so the test never reads a half-written file.
			if fi, err := os.Stat(profs[len(profs)-1]); err == nil && fi.Size() > 0 {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("capture %d never landed in %s", n, dir)
}

// TestLogThisSlowRequests: the access-log sampler must never drop a
// slow request, whatever the sample rate.
func TestLogThisSlowRequests(t *testing.T) {
	defer obs.Default.Reset()
	srv, _, _, _ := testServer(t, Config{AccessLogSample: 1000})
	srv.logSeq.Add(1) // burn the seq so plain requests stop matching %n==1
	if srv.logThis("/v1/predict/matrix", 200, false) {
		t.Fatal("sampled-out request logged")
	}
	if !srv.logThis("/v1/predict/matrix", 200, true) {
		t.Fatal("slow request dropped by the sampler")
	}
	if !srv.logThis("/v1/predict/matrix", 500, false) {
		t.Fatal("error response dropped by the sampler")
	}
}
