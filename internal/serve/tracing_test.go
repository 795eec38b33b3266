package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
	srv, _, _, mm := testServer(t, Config{AdminToken: "tok"})
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
	var list obs.TraceList
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 1 || list.Traces[0].TraceID != "keep-me" {
		t.Fatalf("trace list = %+v, want only the kept request", list)
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
	// nothing force-keeps its trace; at most the 1-in-100 sampler keeps
	// it. Kept on request, its tree shows the memo hit feeding the live
	// model, with no parse.
	predictWithID(t, h, "/v1/predict/matrix", "repeat", mm)
	if e := srv.traces.Get("repeat"); e != nil && strings.Join(e.Reasons, ",") != obs.KeepSampled {
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
