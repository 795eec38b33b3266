package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// testServer builds a server over a small semisup artifact plus one
// corpus matrix (as MatrixMarket bytes) to predict on.
func testServer(t *testing.T, cfg Config) (*Server, *Artifact, *sparse.CSR, []byte) {
	t.Helper()
	ms, best := labelledCorpus(t, "Turing")
	sel, err := core.TrainSelector(ms, best, core.Options{NumClusters: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	art := NewSemisupArtifact(sel.Model(), "Turing")
	srv, err := NewServer(art, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mm bytes.Buffer
	if err := sparse.WriteMatrixMarket(&mm, ms[0]); err != nil {
		t.Fatal(err)
	}
	return srv, art, ms[0], mm.Bytes()
}

func postJSON(t *testing.T, h http.Handler, path string, body []byte) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("POST %s: non-JSON response %q: %v", path, rec.Body.String(), err)
	}
	return rec, out
}

func TestServeEndpoints(t *testing.T) {
	srv, art, m, mm := testServer(t, Config{})
	h := srv.Handler()

	// Liveness.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz: %d", rec.Code)
	}

	// Metadata.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/model", nil))
	var meta modelResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Kind != KindSemisup || meta.Features != features.Count || meta.Clusters != 10 {
		t.Fatalf("/v1/model = %+v", meta)
	}

	// Matrix prediction, then the same body again: the second answer
	// comes from the memoized features.
	want := art.MustPredict(t, m)
	rec, out := postJSON(t, h, "/v1/predict/matrix", mm)
	if rec.Code != http.StatusOK {
		t.Fatalf("matrix predict: %d %s", rec.Code, rec.Body.String())
	}
	if out["format"] != want.Format || out["cached"] != false {
		t.Fatalf("matrix predict = %v, want format %s uncached", out, want.Format)
	}
	rec, out = postJSON(t, h, "/v1/predict/matrix", mm)
	if rec.Code != http.StatusOK || out["format"] != want.Format || out["cached"] != true {
		t.Fatalf("repeat matrix predict = %d %v, want memoized %s", rec.Code, out, want.Format)
	}

	// Feature-vector prediction agrees with the matrix path.
	body, _ := json.Marshal(featuresRequest{Features: features.Extract(m).Slice()})
	rec, out = postJSON(t, h, "/v1/predict/features", body)
	if rec.Code != http.StatusOK || out["format"] != want.Format {
		t.Fatalf("features predict = %d %v, want %s", rec.Code, out, want.Format)
	}

	// The obs registry saw the traffic.
	snap := obs.Default.Snapshot()
	if snap.Counters["serve/requests"] < 3 {
		t.Errorf("serve/requests = %d, want >= 3", snap.Counters["serve/requests"])
	}
	if snap.Counters["serve/featmemo/hits"] < 1 {
		t.Errorf("serve/featmemo/hits = %d, want >= 1", snap.Counters["serve/featmemo/hits"])
	}
	if h, ok := snap.Histograms["serve/request/seconds"]; !ok || h.Count < 3 {
		t.Errorf("serve/request/seconds histogram = %+v, want >= 3 observations", h)
	}
}

// MustPredict is a test helper: predict or fail.
func (a *Artifact) MustPredict(t *testing.T, m *sparse.CSR) Prediction {
	t.Helper()
	p, err := a.PredictMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestServeErrorPaths(t *testing.T) {
	srv, _, _, mm := testServer(t, Config{MaxBodyBytes: int64(len(mmHeaderOnly))})
	h := srv.Handler()

	// Wrong method.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/predict/matrix", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET predict: %d, want 405", rec.Code)
	}

	// Empty body.
	rec, _ = postJSON(t, h, "/v1/predict/matrix", nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty body: %d, want 400", rec.Code)
	}

	// Unparseable matrix (fits the size limit, is not MatrixMarket).
	rec, out := postJSON(t, h, "/v1/predict/matrix", []byte("%%MatrixMarket nope"))
	if rec.Code != http.StatusBadRequest || out["error"] == "" {
		t.Errorf("garbage matrix: %d %v, want 400 with error", rec.Code, out)
	}

	// Oversized body.
	rec, _ = postJSON(t, h, "/v1/predict/matrix", mm)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d, want 413", rec.Code)
	}

	// Wrong feature dimension: deterministic 400, not a panic.
	body, _ := json.Marshal(featuresRequest{Features: []float64{1, 2, 3}})
	rec, out = postJSON(t, h, "/v1/predict/features", body)
	if rec.Code != http.StatusBadRequest || !strings.Contains(out["error"].(string), "features") {
		t.Errorf("short vector: %d %v, want 400 naming features", rec.Code, out)
	}

	// Bad JSON.
	rec, _ = postJSON(t, h, "/v1/predict/features", []byte("{not json"))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad JSON: %d, want 400", rec.Code)
	}
}

// mmHeaderOnly sizes the MaxBodyBytes limit in TestServeErrorPaths:
// small enough to reject a real matrix body, large enough for the
// malformed-input probes.
var mmHeaderOnly = "%%MatrixMarket matrix coordinate real general\n1 1 1\n"

// TestServeShedsLoadWhenSaturated fills the concurrency semaphore and
// checks the next request is shed with 503 (and counted) instead of
// queueing forever.
func TestServeShedsLoadWhenSaturated(t *testing.T) {
	srv, _, _, mm := testServer(t, Config{MaxConcurrent: 1, Timeout: 50 * time.Millisecond})
	srv.sem <- struct{}{} // occupy the only slot
	defer func() { <-srv.sem }()

	before := obs.Default.Snapshot().Counters["serve/rejected"]
	rec, out := postJSON(t, srv.Handler(), "/v1/predict/matrix", mm)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated: %d %v, want 503", rec.Code, out)
	}
	if after := obs.Default.Snapshot().Counters["serve/rejected"]; after != before+1 {
		t.Errorf("serve/rejected = %d, want %d", after, before+1)
	}
}

// TestServeConcurrentRequests hammers the handler from many goroutines
// — meaningful under -race — and checks every answer is consistent.
func TestServeConcurrentRequests(t *testing.T) {
	srv, art, m, mm := testServer(t, Config{MaxConcurrent: 4, FeatMemoSize: 2})
	h := srv.Handler()
	want := art.MustPredict(t, m)
	featBody, _ := json.Marshal(featuresRequest{Features: features.Extract(m).Slice()})

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path, body := "/v1/predict/matrix", mm
			if i%2 == 1 {
				path, body = "/v1/predict/features", featBody
			}
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			var out predictResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				errs <- fmt.Errorf("request %d: %v", i, err)
				return
			}
			if rec.Code != http.StatusOK || out.Format != want.Format {
				errs <- fmt.Errorf("request %d: %d %+v", i, rec.Code, out)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := srv.featMemo.Len(); got > 2 {
		t.Errorf("feature memo grew past its capacity: %d entries", got)
	}
}

// TestServeRunGracefulShutdown starts a real listener, makes one
// request, cancels the context and expects a clean return.
func TestServeRunGracefulShutdown(t *testing.T) {
	srv, _, _, mm := testServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	bound := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx, "127.0.0.1:0", func(b string) { bound <- b }) }()

	var addr string
	select {
	case addr = <-bound:
	case err := <-done:
		t.Fatalf("Run exited before binding: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("listener never came up")
	}

	resp, err := http.Post("http://"+addr+"/v1/predict/matrix", "text/plain", bytes.NewReader(mm))
	if err != nil {
		t.Fatal(err)
	}
	var out predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.Format == "" {
		t.Fatalf("live request: %d %+v", resp.StatusCode, out)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v after cancel", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}
