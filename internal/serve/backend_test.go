package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// fakeBackend is a swappable in-memory Backend + AdminBackend for
// exercising the server's routing, shadow scoring, feedback, readiness
// and admin plumbing without the registry (which has its own tests).
type fakeBackend struct {
	mu       sync.Mutex
	def      string
	models   map[string]LiveModel
	shadows  map[string]LiveModel
	records  []string // "arch live->cand" per RecordShadow
	outcomes []Outcome
	arches   []string // the arch of each outcome
	notReady error
	reloadCh []string
}

func newFakeBackend(def string) *fakeBackend {
	return &fakeBackend{def: def, models: map[string]LiveModel{}, shadows: map[string]LiveModel{}}
}

func (f *fakeBackend) set(arch string, art *Artifact, hash string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.models[arch] = LiveModel{Arch: arch, Hash: hash, Source: "memory", Artifact: art}
}

func (f *fakeBackend) setShadow(arch string, art *Artifact, hash string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shadows[arch] = LiveModel{Arch: arch, Hash: hash, Source: "memory", Artifact: art}
}

func (f *fakeBackend) DefaultArch() string { return f.def }

func (f *fakeBackend) Live(arch string) (LiveModel, error) {
	a := NormalizeArch(arch)
	if a == "" {
		a = f.def
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	lm, ok := f.models[a]
	if !ok {
		return LiveModel{}, fmt.Errorf("%w %q", ErrUnknownArch, arch)
	}
	if lm.Artifact == nil {
		return LiveModel{}, fmt.Errorf("%w for %q", ErrNotLoaded, a)
	}
	if cand, ok := f.shadows[a]; ok {
		lm.Candidate = &cand
	}
	return lm, nil
}

func (f *fakeBackend) RecordShadow(arch string, live, cand Prediction) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.records = append(f.records, fmt.Sprintf("%s %d->%d", arch, live.Label, cand.Label))
}

func (f *fakeBackend) Ready() error { f.mu.Lock(); defer f.mu.Unlock(); return f.notReady }

func (f *fakeBackend) Status() []ArchStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []ArchStatus
	for a, lm := range f.models {
		out = append(out, ArchStatus{Arch: a, Default: a == f.def, Loaded: lm.Artifact != nil, Hash: lm.Hash})
	}
	return out
}

func (f *fakeBackend) Reload() ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reloadCh, nil
}

func (f *fakeBackend) Promote(arch string) (string, error) {
	a := NormalizeArch(arch)
	f.mu.Lock()
	defer f.mu.Unlock()
	cand, ok := f.shadows[a]
	if !ok {
		return "", fmt.Errorf("no shadow for %q", a)
	}
	f.models[a] = cand
	delete(f.shadows, a)
	return cand.Hash, nil
}

func (f *fakeBackend) ShadowReport() any {
	return map[string]any{"fake": true}
}

func (f *fakeBackend) InstallShadow(string, []byte) (string, error) {
	return "", fmt.Errorf("fake backend takes no pushed candidates")
}

func (f *fakeBackend) RecordServed(string, Prediction, []float64) {}

func (f *fakeBackend) DriftReport() any { return map[string]any{"fake": true} }

func (f *fakeBackend) RecordOutcome(arch string, o Outcome) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.outcomes = append(f.outcomes, o)
	f.arches = append(f.arches, arch)
}

func (f *fakeBackend) QualityReport() any {
	f.mu.Lock()
	defer f.mu.Unlock()
	return map[string]any{"outcomes": len(f.outcomes)}
}

// trainArtifact fits a small semisup artifact over the shared corpus;
// seed/clusters vary so tests can mint genuinely different models.
func trainArtifact(t testing.TB, ms []*sparse.CSR, best []sparse.Format, clusters int, seed int64) *Artifact {
	t.Helper()
	sel, err := core.TrainSelector(ms, best, core.Options{NumClusters: clusters, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return NewSemisupArtifact(sel.Model(), "Turing")
}

func mmBytes(t testing.TB, m *sparse.CSR) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sparse.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSwapWithoutFlushServesNewModel is the regression test for the
// stale-answer bug: once the backend swaps to a different artifact, a
// repeat body must be answered by the new artifact — with no flush or
// swap hook involved — even though its memoized features still serve
// the request.
func TestSwapWithoutFlushServesNewModel(t *testing.T) {
	ms, best := labelledCorpus(t, "Turing")
	artA := trainArtifact(t, ms, best, 10, 7)
	artB := trainArtifact(t, ms, best, 6, 99)
	fb := newFakeBackend("turing")
	fb.set("turing", artA, "hash-a")
	srv, err := NewBackendServer(fb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	// A body the two artifacts answer differently, so a stale answer
	// cannot pass for a fresh one.
	var m *sparse.CSR
	var wantA, wantB Prediction
	for _, cand := range ms {
		wantA, wantB = artA.MustPredict(t, cand), artB.MustPredict(t, cand)
		if wantA != wantB {
			m = cand
			break
		}
	}
	if m == nil {
		t.Fatal("artifacts A and B agree on every corpus matrix")
	}
	mm := mmBytes(t, m)
	answer := func(label string) (Prediction, map[string]any) {
		t.Helper()
		rec, out := postJSON(t, h, "/v1/predict/matrix", mm)
		var resp predictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("%s: %d %s", label, rec.Code, rec.Body.String())
		}
		return resp.Prediction, out
	}

	if got, out := answer("first request"); got != wantA || out["cached"] != false || out["model_hash"] != "hash-a" {
		t.Fatalf("first request: %v, want uncached hash-a %+v", out, wantA)
	}
	if got, out := answer("repeat request"); got != wantA || out["cached"] != true || out["model_hash"] != "hash-a" {
		t.Fatalf("repeat request: %v, want memoized hash-a %+v", out, wantA)
	}

	// Hot-swap straight in the backend: no flush, no hook.
	fb.set("turing", artB, "hash-b")
	got, out := answer("post-swap request")
	if out["model_hash"] != "hash-b" || got != wantB {
		t.Fatalf("post-swap request = %v, want hash-b answering %+v (artifact A says %+v)", out, wantB, wantA)
	}
	if out["cached"] != true {
		t.Fatalf("post-swap repeat did not reuse the memoized features: %v", out)
	}
}

// TestBatchEndpoint covers the happy path, per-item errors, positional
// answers, cache interplay with the single endpoint, and the batch
// size bound.
func TestBatchEndpoint(t *testing.T) {
	srv, art, m, mm := testServer(t, Config{MaxBatchItems: 3})
	h := srv.Handler()
	ms, _ := labelledCorpus(t, "Turing")
	mm2 := mmBytes(t, ms[1])
	want := art.MustPredict(t, m)
	want2 := art.MustPredict(t, ms[1])

	body := bytes.Join([][]byte{mm, mm2, []byte("%%MatrixMarket nope\n")}, nil)
	rec, _ := postJSON(t, h, "/v1/predict/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body.String())
	}
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 3 || resp.Errors != 1 || len(resp.Results) != 3 {
		t.Fatalf("batch response = %+v", resp)
	}
	if resp.Results[0].Format != want.Format || resp.Results[1].Format != want2.Format {
		t.Errorf("batch predictions = %q %q, want %q %q",
			resp.Results[0].Format, resp.Results[1].Format, want.Format, want2.Format)
	}
	if resp.Results[2].Error == "" {
		t.Error("bad item produced no error")
	}
	if resp.ModelHash == "" || resp.Arch == "" {
		t.Errorf("batch response missing identity: %+v", resp)
	}

	// A single request for the same matrix reuses the features the
	// batch memoized.
	rec, out := postJSON(t, h, "/v1/predict/matrix", mm)
	if rec.Code != http.StatusOK || out["cached"] != true {
		t.Errorf("single request after batch: %d %v, want memo hit", rec.Code, out)
	}

	// A body with no banner lines cannot be split.
	rec, _ = postJSON(t, h, "/v1/predict/batch", []byte("not a matrix\n"))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unsplittable batch: %d, want 400", rec.Code)
	}

	// Over the per-request bound.
	rec, out = postJSON(t, h, "/v1/predict/batch", bytes.Repeat(mm, 4))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: %d %v, want 413", rec.Code, out)
	}

	// Empty batch.
	rec, _ = postJSON(t, h, "/v1/predict/batch", nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch: %d, want 400", rec.Code)
	}
}

// panickyClassifier stands in for an artifact that decodes and
// validates but panics at predict time.
type panickyClassifier struct{}

func (panickyClassifier) Fit([][]float64, []int, int) error { return nil }
func (panickyClassifier) Predict([]float64) int             { panic("corrupt model") }

// TestBatchRecoversModelPanic: a model that panics inside a batch
// worker, live or shadow, answers that request 500 and counts it in
// serve/errors instead of killing the process, and the next request is
// answered.
func TestBatchRecoversModelPanic(t *testing.T) {
	prev := obs.SetMaxWorkers(2)
	defer obs.SetMaxWorkers(prev)
	ms, best := labelledCorpus(t, "Turing")
	good := trainArtifact(t, ms, best, 6, 99)
	bad := &Artifact{Kind: KindClassifier, Formats: KernelFormatNames(), Clf: panickyClassifier{}}
	fb := newFakeBackend("turing")
	srv, err := NewBackendServer(fb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	batch := bytes.Join([][]byte{mmBytes(t, ms[0]), mmBytes(t, ms[1]), mmBytes(t, ms[2]), mmBytes(t, ms[3])}, nil)
	post := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict/batch", bytes.NewReader(batch))
		req.Header.Set("Content-Type", "text/plain")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	for _, tc := range []struct {
		name         string
		live, shadow *Artifact
	}{{"live", bad, nil}, {"shadow", good, bad}} {
		fb.set("turing", tc.live, "hash-live")
		fb.mu.Lock()
		delete(fb.shadows, "turing")
		fb.mu.Unlock()
		if tc.shadow != nil {
			fb.setShadow("turing", tc.shadow, "hash-shadow")
		}
		errs0 := srv.errors.Value()
		if rec := post(); rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s model panic: batch answered %d %s, want 500", tc.name, rec.Code, rec.Body.String())
		}
		if d := srv.errors.Value() - errs0; d != 1 {
			t.Fatalf("%s model panic: serve/errors advanced by %d, want 1", tc.name, d)
		}
	}

	fb.set("turing", good, "hash-good")
	fb.mu.Lock()
	delete(fb.shadows, "turing")
	fb.mu.Unlock()
	rec := post()
	if rec.Code != http.StatusOK {
		t.Fatalf("batch after the panics: %d %s", rec.Code, rec.Body.String())
	}
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 4 || resp.Errors != 0 {
		t.Fatalf("batch after the panics = %+v", resp)
	}
}

// TestArchRouting checks multi-arch resolution: default, explicit,
// unknown (404) and unloaded (503).
func TestArchRouting(t *testing.T) {
	ms, best := labelledCorpus(t, "Turing")
	fb := newFakeBackend("turing")
	fb.set("turing", trainArtifact(t, ms, best, 10, 7), "hash-t")
	fb.set("pascal", trainArtifact(t, ms, best, 8, 3), "hash-p")
	fb.models["volta"] = LiveModel{Arch: "volta"} // configured, unloaded
	srv, err := NewBackendServer(fb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	mm := mmBytes(t, ms[0])

	rec, out := postJSON(t, h, "/v1/predict/matrix", mm)
	if rec.Code != http.StatusOK || out["arch"] != "turing" || out["model_hash"] != "hash-t" {
		t.Fatalf("default arch: %d %v", rec.Code, out)
	}
	rec, out = postJSON(t, h, "/v1/predict/matrix?arch=Pascal", mm)
	if rec.Code != http.StatusOK || out["arch"] != "pascal" || out["model_hash"] != "hash-p" {
		t.Fatalf("explicit arch (case-folded): %d %v", rec.Code, out)
	}
	rec, out = postJSON(t, h, "/v1/predict/matrix?arch=ampere", mm)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown arch: %d %v, want 404", rec.Code, out)
	}
	rec, out = postJSON(t, h, "/v1/predict/matrix?arch=volta", mm)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("unloaded arch: %d %v, want 503", rec.Code, out)
	}

	// /v1/model routes the same way.
	recM := httptest.NewRecorder()
	h.ServeHTTP(recM, httptest.NewRequest(http.MethodGet, "/v1/model?arch=pascal", nil))
	var meta modelResponse
	if err := json.Unmarshal(recM.Body.Bytes(), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Arch != "pascal" || meta.Hash != "hash-p" || meta.Default {
		t.Fatalf("/v1/model?arch=pascal = %+v", meta)
	}
}

// TestReadyz checks the readiness endpoint flips 503 -> 200 with the
// backend's load state.
func TestReadyz(t *testing.T) {
	ms, best := labelledCorpus(t, "Turing")
	fb := newFakeBackend("turing")
	fb.set("turing", trainArtifact(t, ms, best, 10, 7), "hash-t")
	fb.notReady = fmt.Errorf("pascal not loaded yet")
	srv, err := NewBackendServer(fb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while loading: %d, want 503", rec.Code)
	}
	var resp ReadyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Ready || !strings.Contains(resp.Error, "pascal") || len(resp.Arches) == 0 {
		t.Fatalf("/readyz body = %+v", resp)
	}

	fb.notReady = nil
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz when ready: %d", rec.Code)
	}
	// Liveness stays 200 throughout.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz: %d", rec.Code)
	}
}

// TestShadowScoresEveryRequest: with a candidate registered, every
// request records one live-vs-candidate comparison, whether the body
// was parsed or its memoized features answered.
func TestShadowScoresEveryRequest(t *testing.T) {
	ms, best := labelledCorpus(t, "Turing")
	fb := newFakeBackend("turing")
	fb.set("turing", trainArtifact(t, ms, best, 10, 7), "hash-live")
	fb.setShadow("turing", trainArtifact(t, ms, best, 6, 99), "hash-cand")
	srv, err := NewBackendServer(fb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	mm := mmBytes(t, ms[0])

	for i := 0; i < 3; i++ {
		rec, out := postJSON(t, h, "/v1/predict/matrix", mm)
		if rec.Code != http.StatusOK || out["cached"] != (i > 0) {
			t.Fatalf("shadowed request %d: %d %v, want cached=%v", i, rec.Code, out, i > 0)
		}
	}
	if got := len(fb.records); got != 3 {
		t.Fatalf("recorded %d shadow comparisons, want 3", got)
	}

	// Batch items score too.
	rec, _ := postJSON(t, h, "/v1/predict/batch", append(append([]byte{}, mm...), mmBytes(t, ms[1])...))
	if rec.Code != http.StatusOK {
		t.Fatalf("shadowed batch: %d", rec.Code)
	}
	if got := len(fb.records); got != 5 {
		t.Fatalf("recorded %d shadow comparisons after batch, want 5", got)
	}
}

func adminReq(t *testing.T, h http.Handler, method, path, token string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, nil)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestAdminAuth: the admin surface refuses unauthenticated mutation by
// default (no token configured -> 401 for everyone), enforces the
// configured token, and still answers 501 for static backends on every
// endpoint that needs the admin backend.
func TestAdminAuth(t *testing.T) {
	ms, best := labelledCorpus(t, "Turing")
	art := trainArtifact(t, ms, best, 10, 7)
	backendPaths := []struct{ method, path string }{
		{http.MethodPost, "/v1/admin/reload"},
		{http.MethodPost, "/v1/admin/promote"},
		{http.MethodGet, "/v1/admin/shadow"},
		{http.MethodPost, "/v1/admin/shadow/install"},
		{http.MethodGet, "/v1/admin/drift"},
		{http.MethodGet, "/v1/admin/quality"},
	}

	// No token configured: every admin request is refused.
	srvNoToken, err := NewServer(art, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srvNoToken.Handler()
	for _, p := range backendPaths {
		rec := adminReq(t, h, p.method, p.path, "")
		if rec.Code != http.StatusUnauthorized {
			t.Errorf("%s with no token configured: %d, want 401", p.path, rec.Code)
		}
		// Even a guessed token cannot authenticate against an unset one.
		rec = adminReq(t, h, p.method, p.path, "")
		if rec.Code != http.StatusUnauthorized {
			t.Errorf("%s empty bearer: %d, want 401", p.path, rec.Code)
		}
	}

	// Token configured: wrong token 401 (with WWW-Authenticate), right
	// token reaches the handler (501 on a static backend).
	srv, err := NewServer(art, Config{AdminToken: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	h = srv.Handler()
	rec := adminReq(t, h, http.MethodPost, "/v1/admin/reload", "wrong")
	if rec.Code != http.StatusUnauthorized || rec.Header().Get("WWW-Authenticate") == "" {
		t.Errorf("wrong token: %d %q, want 401 + WWW-Authenticate", rec.Code, rec.Header().Get("WWW-Authenticate"))
	}
	for _, p := range backendPaths {
		if rec := adminReq(t, h, p.method, p.path, "s3cret"); rec.Code != http.StatusNotImplemented {
			t.Errorf("static backend %s: %d, want 501", p.path, rec.Code)
		}
	}
	rec = adminReq(t, h, http.MethodGet, "/v1/admin/reload", "s3cret")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET reload: %d, want 405", rec.Code)
	}
}

// TestAdminEndpointsWithBackend drives reload/promote/shadow against
// the fake admin backend, and checks that neither mutation drops the
// feature memo.
func TestAdminEndpointsWithBackend(t *testing.T) {
	ms, best := labelledCorpus(t, "Turing")
	fb := newFakeBackend("turing")
	fb.set("turing", trainArtifact(t, ms, best, 10, 7), "hash-live")
	fb.setShadow("turing", trainArtifact(t, ms, best, 6, 99), "hash-cand")
	srv, err := NewBackendServer(fb, Config{AdminToken: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	rec := adminReq(t, h, http.MethodGet, "/v1/admin/shadow", "s3cret")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "fake") {
		t.Fatalf("shadow report: %d %s", rec.Code, rec.Body.String())
	}

	rec = adminReq(t, h, http.MethodPost, "/v1/admin/promote?arch=turing", "s3cret")
	if rec.Code != http.StatusOK {
		t.Fatalf("promote: %d %s", rec.Code, rec.Body.String())
	}
	var pr promoteResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Arch != "turing" || pr.Hash != "hash-cand" {
		t.Fatalf("promote response = %+v", pr)
	}
	// The promoted candidate now answers with its hash.
	mm := mmBytes(t, ms[0])
	recP, out := postJSON(t, h, "/v1/predict/matrix", mm)
	if recP.Code != http.StatusOK || out["model_hash"] != "hash-cand" {
		t.Fatalf("post-promote predict: %d %v", recP.Code, out)
	}
	// The repeat body reuses its memoized features, and a reload that
	// swapped something keeps them: features do not depend on the model.
	if _, out = postJSON(t, h, "/v1/predict/matrix", mm); out["cached"] != true {
		t.Fatalf("expected memo hit, got %v", out)
	}
	fb.reloadCh = []string{"turing"}
	rec = adminReq(t, h, http.MethodPost, "/v1/admin/reload", "s3cret")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"turing"`) {
		t.Fatalf("reload: %d %s", rec.Code, rec.Body.String())
	}
	if _, out = postJSON(t, h, "/v1/predict/matrix", mm); out["cached"] != true || out["model_hash"] != "hash-cand" {
		t.Fatalf("expected memo hit answered by hash-cand after reload, got %v", out)
	}
	fb.reloadCh = nil
	rec = adminReq(t, h, http.MethodPost, "/v1/admin/reload", "s3cret")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"changed":[]`) {
		t.Fatalf("idempotent reload: %d %s", rec.Code, rec.Body.String())
	}
	if got := srv.featMemo.Len(); got != 1 {
		t.Fatalf("feature memo holds %d entries after the reloads, want 1", got)
	}
	// Promoting again fails: no candidate left.
	rec = adminReq(t, h, http.MethodPost, "/v1/admin/promote?arch=turing", "s3cret")
	if rec.Code != http.StatusConflict {
		t.Fatalf("re-promote: %d, want 409", rec.Code)
	}
}
