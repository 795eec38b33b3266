package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// qualityServer builds a server over the fake backend, which records
// feedback outcomes, plus one predictable matrix body.
func qualityServer(t testing.TB, cfg Config) (*Server, *fakeBackend, []byte, Prediction) {
	t.Helper()
	ms, best := labelledCorpus(t, "Turing")
	art := trainArtifact(t, ms, best, 10, 7)
	qb := newFakeBackend("turing")
	qb.set("turing", art, "hash-q")
	srv, err := NewBackendServer(qb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, qb, mmBytes(t, ms[0]), art.MustPredict(t, ms[0])
}

// postFeedback sends one /v1/feedback body and returns the decoded
// answer.
func postFeedback(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	return postJSON(t, h, "/v1/feedback", []byte(body))
}

// predictWithID runs one matrix prediction under a chosen request ID.
func predictWithID(t *testing.T, h http.Handler, path, id string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("X-Request-ID", id)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s (%s): %d %s", path, id, rec.Code, rec.Body.String())
	}
	return rec
}

func TestFeedbackFullSweep(t *testing.T) {
	defer obs.Default.Reset()
	srv, qb, mm, want := qualityServer(t, Config{})
	h := srv.Handler()

	predictWithID(t, h, "/v1/predict/matrix", "fb-full", mm)

	// A full sweep where the served format is 2x slower than the best
	// non-served one.
	times := map[string]float64{}
	for _, f := range KernelFormatNames() {
		times[f] = 1.0
		if f == want.Format {
			times[f] = 2.0
		}
	}
	body, _ := json.Marshal(map[string]any{"request_id": "fb-full", "times_ms": times})
	rec, out := postFeedback(t, h, string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("feedback: %d %s", rec.Code, rec.Body.String())
	}
	if out["full"] != true || out["predicted"] != want.Format {
		t.Fatalf("feedback answer = %v, want full for %s", out, want.Format)
	}
	if got := out["regret"].(float64); got != 2.0 {
		t.Fatalf("regret = %v, want 2.0", got)
	}

	qb.mu.Lock()
	defer qb.mu.Unlock()
	if len(qb.outcomes) != 1 {
		t.Fatalf("recorded %d outcomes, want 1", len(qb.outcomes))
	}
	o := qb.outcomes[0]
	if !o.Full || o.Regret != 2.0 || o.ServedMs != 2.0 || o.Predicted.Format != want.Format {
		t.Fatalf("outcome = %+v", o)
	}
	if o.BestFormat == want.Format || o.BestLabel < 0 {
		t.Fatalf("best = %q (%d), want a different format than served", o.BestFormat, o.BestLabel)
	}
	if qb.arches[0] != "turing" {
		t.Fatalf("outcome arch = %q", qb.arches[0])
	}

	// The entry is consume-once: the same report again answers 404.
	rec, _ = postFeedback(t, h, string(body))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("duplicate feedback: %d, want 404", rec.Code)
	}
}

func TestFeedbackServedOnlyAndBatchItems(t *testing.T) {
	defer obs.Default.Reset()
	srv, qb, mm, want := qualityServer(t, Config{})
	h := srv.Handler()

	// served_ms alone is a partial outcome: volume and latency, no
	// accuracy.
	predictWithID(t, h, "/v1/predict/matrix", "fb-served", mm)
	rec, out := postFeedback(t, h, `{"request_id":"fb-served","served_ms":3.5}`)
	if rec.Code != http.StatusOK || out["full"] != false {
		t.Fatalf("served-only feedback = %d %v", rec.Code, out)
	}

	// Batch items report as ID#index via the "item" field.
	batch := bytes.Join([][]byte{mm, mm, mm}, nil)
	predictWithID(t, h, "/v1/predict/batch", "fb-batch", batch)
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"request_id":"fb-batch","item":%d,"served_ms":1.5}`, i)
		rec, out := postFeedback(t, h, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch item %d feedback: %d %s", i, rec.Code, rec.Body.String())
		}
		if out["predicted"] != want.Format {
			t.Fatalf("batch item %d predicted = %v, want %s", i, out["predicted"], want.Format)
		}
	}
	// Item index beyond the batch was never registered.
	rec, _ = postFeedback(t, h, `{"request_id":"fb-batch","item":3,"served_ms":1.5}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("out-of-range batch item: %d, want 404", rec.Code)
	}

	qb.mu.Lock()
	defer qb.mu.Unlock()
	if len(qb.outcomes) != 4 {
		t.Fatalf("recorded %d outcomes, want 4", len(qb.outcomes))
	}
	for _, o := range qb.outcomes {
		if o.Full {
			t.Fatalf("served-only outcome marked full: %+v", o)
		}
	}
}

func TestFeedbackValidation(t *testing.T) {
	defer obs.Default.Reset()
	srv, qb, mm, want := qualityServer(t, Config{})
	h := srv.Handler()
	predictWithID(t, h, "/v1/predict/matrix", "fb-valid", mm)

	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"unknown request ID", `{"request_id":"never-served","served_ms":1}`, http.StatusNotFound},
		{"empty request ID", `{"served_ms":1}`, http.StatusBadRequest},
		{"oversized request ID", `{"request_id":"` + strings.Repeat("x", obs.MaxRequestIDLen+1) + `","served_ms":1}`, http.StatusBadRequest},
		{"negative item", `{"request_id":"fb-valid","item":-1,"served_ms":1}`, http.StatusBadRequest},
		{"zero time", `{"request_id":"fb-valid","times_ms":{"` + want.Format + `":0}}`, http.StatusBadRequest},
		{"negative time", `{"request_id":"fb-valid","times_ms":{"` + want.Format + `":-2}}`, http.StatusBadRequest},
		{"negative served_ms", `{"request_id":"fb-valid","served_ms":-1}`, http.StatusBadRequest},
		{"unknown format", `{"request_id":"fb-valid","times_ms":{"DIA":1.0}}`, http.StatusBadRequest},
		{"covers nothing", `{"request_id":"fb-valid"}`, http.StatusBadRequest},
		{"not JSON", `{{{`, http.StatusBadRequest},
		{"oversized body", `{"request_id":"fb-valid","pad":"` + strings.Repeat("y", maxFeedbackBody) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		rec, _ := postFeedback(t, h, tc.body)
		if rec.Code != tc.status {
			t.Errorf("%s: %d, want %d (%s)", tc.name, rec.Code, tc.status, rec.Body.String())
		}
	}

	// GET is rejected.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/feedback", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/feedback: %d, want 405", rec.Code)
	}

	// None of the rejected reports consumed the entry or recorded an
	// outcome: a corrected retry still succeeds.
	qb.mu.Lock()
	n := len(qb.outcomes)
	qb.mu.Unlock()
	if n != 0 {
		t.Fatalf("rejected feedback recorded %d outcomes", n)
	}
	rec, _ = postFeedback(t, h, `{"request_id":"fb-valid","served_ms":1.0}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("retry after rejections: %d %s", rec.Code, rec.Body.String())
	}
}

// FuzzFeedback: with one pending prediction registered before each
// input, no /v1/feedback body crashes the server or answers anything
// but 200, 400, 404 or 413, and an accepted report consumes its entry —
// the same body posted again answers 404.
func FuzzFeedback(f *testing.F) {
	defer obs.Default.Reset()
	srv, _, mm, want := qualityServer(f, Config{})
	h := srv.Handler()

	sweep := map[string]float64{}
	for i, format := range KernelFormatNames() {
		sweep[format] = float64(i + 1)
	}
	full, _ := json.Marshal(map[string]any{"request_id": "fb-valid", "times_ms": sweep})
	for _, body := range []string{
		// TestFeedbackValidation's cases.
		`{"request_id":"never-served","served_ms":1}`,
		`{"served_ms":1}`,
		`{"request_id":"` + strings.Repeat("x", obs.MaxRequestIDLen+1) + `","served_ms":1}`,
		`{"request_id":"fb-valid","item":-1,"served_ms":1}`,
		`{"request_id":"fb-valid","times_ms":{"` + want.Format + `":0}}`,
		`{"request_id":"fb-valid","times_ms":{"` + want.Format + `":-2}}`,
		`{"request_id":"fb-valid","served_ms":-1}`,
		`{"request_id":"fb-valid","times_ms":{"DIA":1.0}}`,
		`{"request_id":"fb-valid"}`,
		`{{{`,
		`{"request_id":"fb-valid","pad":"` + strings.Repeat("y", maxFeedbackBody) + `"}`,
		// Accepted reports: a full sweep, the served time alone, and a
		// batch item (404 here: only a single prediction is pending).
		string(full),
		`{"request_id":"fb-valid","served_ms":1.5}`,
		`{"request_id":"fb-valid","item":0,"served_ms":1.5}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		predictWithID(t, h, "/v1/predict/matrix", "fb-valid", mm)
		rec, _ := postFeedback(t, h, body)
		switch rec.Code {
		case http.StatusOK:
			if again, _ := postFeedback(t, h, body); again.Code != http.StatusNotFound {
				t.Fatalf("accepted report posted again: %d, want 404 (%s)", again.Code, again.Body.String())
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("feedback %q answered %d: %s", body, rec.Code, rec.Body.String())
		}
	})
}

func TestFeedbackWithoutQualityBackend(t *testing.T) {
	defer obs.Default.Reset()
	// A static single-artifact server has no quality surface: feedback
	// and the (authenticated) quality report answer 501.
	srv, _, _, _ := testServer(t, Config{AdminToken: "sekrit"})
	h := srv.Handler()
	rec, _ := postFeedback(t, h, `{"request_id":"x","served_ms":1}`)
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("feedback on static backend: %d, want 501", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/admin/quality", nil)
	req.Header.Set("Authorization", "Bearer sekrit")
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusNotImplemented {
		t.Fatalf("quality report on static backend: %d, want 501", rec2.Code)
	}
}

func TestPendingStoreEviction(t *testing.T) {
	p := newPendingStore(2)
	p.put("a", pendingPred{arch: "a"})
	p.put("b", pendingPred{arch: "b"})
	p.put("c", pendingPred{arch: "c"}) // evicts a
	if _, ok := p.peek("a"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := p.peek("b"); !ok {
		t.Fatal("entry b missing")
	}
	// Re-registering replaces in place without burning a slot.
	p.put("b", pendingPred{arch: "b2"})
	if v, _ := p.peek("c"); v.arch != "c" {
		t.Fatal("duplicate put evicted a live entry")
	}
	if v, _ := p.take("b"); v.arch != "b2" {
		t.Fatalf("take(b) = %+v, want the replacement", v)
	}
	if _, ok := p.take("b"); ok {
		t.Fatal("take is not consume-once")
	}
}

// TestPendingStoreReRegisteredKey: a key consumed and registered again
// owns a new ring slot, so its stale slot must not evict it early.
func TestPendingStoreReRegisteredKey(t *testing.T) {
	p := newPendingStore(2)
	p.put("a", pendingPred{arch: "a1"})
	if _, ok := p.take("a"); !ok {
		t.Fatal("take(a) missed a registered entry")
	}
	p.put("a", pendingPred{arch: "a2"})
	p.put("b", pendingPred{arch: "b"})
	if v, ok := p.peek("a"); !ok || v.arch != "a2" {
		t.Fatalf("re-registered a = %+v ok=%v, want a2 kept", v, ok)
	}
	if _, ok := p.peek("b"); !ok {
		t.Fatal("entry b missing")
	}
	// The next insert evicts a, now the oldest entry with a live slot.
	p.put("c", pendingPred{arch: "c"})
	if _, ok := p.peek("a"); ok {
		t.Fatal("oldest entry a survived eviction")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok := p.peek(k); !ok {
			t.Fatalf("entry %s missing", k)
		}
	}
}

func TestBatchTraceIDPropagation(t *testing.T) {
	defer obs.Default.Reset()
	col := obs.NewCollector()
	obs.SetSink(col)
	defer obs.SetSink(nil)

	srv, _, mm, _ := qualityServer(t, Config{})
	h := srv.Handler()
	const traceID = "batch-trace-test"
	batch := bytes.Join([][]byte{mm, mm, mm, mm}, nil)
	predictWithID(t, h, "/v1/predict/batch", traceID, batch)

	// Every per-item span of the fan-out must carry the parent request's
	// trace ID, or batch items are unattributable in the span store. The
	// items hang off the request's root span (the always-on trace tree),
	// so walk the whole forest.
	items := 0
	var walk func(sd *obs.SpanData)
	walk = func(sd *obs.SpanData) {
		if sd.Name == "serve/batch/item" {
			items++
			if sd.TraceID != traceID {
				t.Errorf("batch item span trace = %q, want %q", sd.TraceID, traceID)
			}
		}
		for _, c := range sd.Children {
			walk(c)
		}
	}
	for _, root := range col.Roots() {
		walk(root)
	}
	if items != 4 {
		t.Fatalf("saw %d serve/batch/item spans, want 4", items)
	}
}

func TestReadyzUptimeAndHashes(t *testing.T) {
	defer obs.Default.Reset()
	srv, _, _, _ := qualityServer(t, Config{})
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz: %d %s", rec.Code, rec.Body.String())
	}
	var resp ReadyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Ready || resp.UptimeSeconds <= 0 {
		t.Fatalf("readyz = ready %v uptime %v, want ready with positive uptime", resp.Ready, resp.UptimeSeconds)
	}
	found := false
	for _, a := range resp.Arches {
		if a.Arch == "turing" && a.Hash == "hash-q" && a.Loaded {
			found = true
		}
	}
	if !found {
		t.Fatalf("readyz arches %+v missing the live turing hash", resp.Arches)
	}
}

func TestAccessLogSampling(t *testing.T) {
	defer obs.Default.Reset()
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{buf: &buf, mu: &mu}, nil))

	srv, _, mm, _ := qualityServer(t, Config{
		AccessLog:       logger,
		AccessLogSample: 5,
	})
	h := srv.Handler()

	countLines := func() int {
		mu.Lock()
		defer mu.Unlock()
		return strings.Count(buf.String(), "\n")
	}

	// 10 successful predictions at 1-in-5 → exactly 2 log lines.
	for i := 0; i < 10; i++ {
		predictWithID(t, h, "/v1/predict/matrix", fmt.Sprintf("sample-%d", i), mm)
	}
	if got := countLines(); got != 2 {
		t.Fatalf("sampled %d lines over 10 requests at 1-in-5, want 2", got)
	}

	// Errors are always logged, sampling or not.
	before := countLines()
	rec, _ := postJSON(t, h, "/v1/predict/matrix", []byte("not a matrix"))
	if rec.Code == http.StatusOK {
		t.Fatal("garbage body predicted successfully")
	}
	if got := countLines(); got != before+1 {
		t.Fatalf("error request not logged: %d lines, want %d", got, before+1)
	}

	// Feedback is always logged — it closes the quality loop.
	before = countLines()
	rec, _ = postFeedback(t, h, `{"request_id":"sample-0","served_ms":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("feedback: %d %s", rec.Code, rec.Body.String())
	}
	if got := countLines(); got != before+1 {
		t.Fatalf("feedback request not logged: %d lines, want %d", got, before+1)
	}
}

// lockedWriter serialises concurrent access-log writes into one
// buffer (handlers may log from request goroutines).
type lockedWriter struct {
	buf *bytes.Buffer
	mu  *sync.Mutex
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func TestCaptureRoundTripThroughServer(t *testing.T) {
	defer obs.Default.Reset()
	dir := t.TempDir()
	cw, err := obs.NewCaptureWriter(dir, obs.DefaultCaptureFileBytes)
	if err != nil {
		t.Fatal(err)
	}
	srv, _, mm, want := qualityServer(t, Config{Capture: cw})
	h := srv.Handler()

	predictWithID(t, h, "/v1/predict/matrix", "cap-1", mm)
	batch := bytes.Join([][]byte{mm, mm}, nil)
	predictWithID(t, h, "/v1/predict/batch", "cap-2", batch)
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}

	var recs []CaptureRecord
	var bodies [][]byte
	err = obs.ReadCaptureDir(dir, func(raw []byte) error {
		rec, body, err := DecodeCaptureRecord(raw)
		if err != nil {
			return err
		}
		recs = append(recs, rec)
		bodies = append(bodies, body)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("captured %d records, want 2", len(recs))
	}
	if recs[0].Endpoint != "/v1/predict/matrix" || recs[0].TraceID != "cap-1" ||
		len(recs[0].Predictions) != 1 || recs[0].Predictions[0] != want.Format {
		t.Fatalf("capture[0] = %+v", recs[0])
	}
	if !bytes.Equal(bodies[0], mm) {
		t.Fatal("capture[0] body is not the verbatim request body")
	}
	if recs[1].Endpoint != "/v1/predict/batch" || len(recs[1].Predictions) != 2 {
		t.Fatalf("capture[1] = %+v", recs[1])
	}
	if !bytes.Equal(bodies[1], batch) {
		t.Fatal("capture[1] body is not the verbatim batch body")
	}
	if recs[0].Arch != "turing" || recs[0].ModelHash != "hash-q" {
		t.Fatalf("capture[0] routing = %s/%s", recs[0].Arch, recs[0].ModelHash)
	}
}
