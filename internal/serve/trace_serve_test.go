package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestTraceIDHeaderFlow: an incoming X-Request-ID is honoured and
// echoed; a request without one gets a minted ID; the access log line
// carries the same ID plus the resolved arch, model hash and whether
// memoized features answered.
func TestTraceIDHeaderFlow(t *testing.T) {
	defer obs.Default.Reset()
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))

	srv, _, _, mm := testServer(t, Config{})
	srv.accessLog = logger
	h := srv.Handler()

	req := httptest.NewRequest(http.MethodPost, "/v1/predict/matrix", bytes.NewReader(mm))
	req.Header.Set("X-Request-ID", "trace-test-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Request-ID"); got != "trace-test-42" {
		t.Errorf("X-Request-ID echo = %q", got)
	}
	// The same body again: memoized features answer it.
	predictWithID(t, h, "/v1/predict/matrix", "trace-test-43", mm)

	// No incoming ID: one is minted (16 hex chars) and echoed.
	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); len(got) != 16 {
		t.Errorf("minted trace ID = %q, want 16 hex chars", got)
	}

	// Parse the access log: one line per request, JSON, trace IDs intact.
	var lines []map[string]any
	sc := bufio.NewScanner(&logBuf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("access log line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("access log has %d lines, want 3", len(lines))
	}
	first := lines[0]
	if first["trace_id"] != "trace-test-42" {
		t.Errorf("logged trace_id = %v", first["trace_id"])
	}
	if first["path"] != "/v1/predict/matrix" || first["method"] != "POST" {
		t.Errorf("logged path/method = %v/%v", first["path"], first["method"])
	}
	if first["status"].(float64) != 200 {
		t.Errorf("logged status = %v", first["status"])
	}
	if first["arch"] != "turing" {
		t.Errorf("logged arch = %v", first["arch"])
	}
	if hash, _ := first["model_hash"].(string); len(hash) == 0 {
		t.Errorf("logged model_hash empty")
	}
	if first["cached"] != false {
		t.Errorf("logged cached = %v", first["cached"])
	}
	if repeat := lines[1]; repeat["trace_id"] != "trace-test-43" || repeat["cached"] != true {
		t.Errorf("repeat body logged trace_id %v cached %v, want trace-test-43 true", repeat["trace_id"], repeat["cached"])
	}
	if _, ok := first["duration_ms"].(float64); !ok {
		t.Errorf("logged duration_ms = %v", first["duration_ms"])
	}
}

// TestServerMetricsEndpoint: the in-process /metrics route serves a
// parseable exposition carrying the labeled request metrics, the
// per-arch prediction counts and the SLO gauges.
func TestServerMetricsEndpoint(t *testing.T) {
	defer obs.Default.Reset()
	srv, _, _, mm := testServer(t, Config{})
	h := srv.Handler()

	// Generate traffic: two predictions (second is a memo hit).
	for i := 0; i < 2; i++ {
		rec, _ := postJSON(t, h, "/v1/predict/matrix", mm)
		if rec.Code != http.StatusOK {
			t.Fatalf("predict %d: %d", i, rec.Code)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	m, err := obs.ParsePrometheus(rec.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	// Both predictions (including the memo hit) count, labeled by arch.
	if got := m.Sum("spmvselect_serve_predictions_total", "arch", "turing"); got != 2 {
		t.Errorf("predictions{arch=turing} = %v, want 2", got)
	}
	if v, ok := m.Value("spmvselect_serve_http_requests_total",
		"endpoint", "/v1/predict/matrix", "status", "200"); !ok || v != 2 {
		t.Errorf("http_requests{matrix,200} = %v %v", v, ok)
	}
	if v, ok := m.Value("spmvselect_serve_http_seconds_count",
		"endpoint", "/v1/predict/matrix", "arch", "turing"); !ok || v != 2 {
		t.Errorf("http_seconds_count = %v %v", v, ok)
	}
	if v, ok := m.Value("spmvselect_serve_featmemo_hits_total"); !ok || v < 1 {
		t.Errorf("featmemo hits = %v %v", v, ok)
	}
	// SLO gauges are refreshed by the scrape itself.
	if v, ok := m.Value("spmvselect_slo_requests", "window", "1m"); !ok || v != 2 {
		t.Errorf("slo_requests{1m} = %v %v (scrapes must not count)", v, ok)
	}
	if v, ok := m.Value("spmvselect_slo_availability", "window", "1m"); !ok || v != 1 {
		t.Errorf("slo_availability{1m} = %v %v", v, ok)
	}
}

// TestAdminSLOEndpoint: token-gated, works without an AdminBackend
// (static server), reports the request just made.
func TestAdminSLOEndpoint(t *testing.T) {
	defer obs.Default.Reset()
	srv, _, _, mm := testServer(t, Config{AdminToken: "sekrit"})
	h := srv.Handler()
	if rec, _ := postJSON(t, h, "/v1/predict/matrix", mm); rec.Code != http.StatusOK {
		t.Fatalf("predict: %d", rec.Code)
	}

	// No token: 401.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/admin/slo", nil))
	if rec.Code != http.StatusUnauthorized {
		t.Fatalf("tokenless /v1/admin/slo: %d, want 401", rec.Code)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/admin/slo", nil)
	req.Header.Set("Authorization", "Bearer sekrit")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/admin/slo: %d %s", rec.Code, rec.Body.String())
	}
	var rep obs.SLOReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Objective != 0.999 {
		t.Errorf("objective = %v", rep.Objective)
	}
	if len(rep.Windows) != 3 || rep.Windows[0].Requests < 1 {
		t.Errorf("windows = %+v", rep.Windows)
	}

	// Drift on a static backend: 501, clearly explained.
	req = httptest.NewRequest(http.MethodGet, "/v1/admin/drift", nil)
	req.Header.Set("Authorization", "Bearer sekrit")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotImplemented {
		t.Errorf("/v1/admin/drift on static backend: %d, want 501", rec.Code)
	}
}
