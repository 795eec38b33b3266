package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestModelHashHeader: every prediction answer (single and batch)
// carries the serving artifact's hash in X-Model-Hash, and the header
// flips the moment the backend hot-swaps or a shadow candidate is
// promoted — the proxy and replay assert on it instead of pairing each
// prediction with a /v1/model round-trip.
func TestModelHashHeader(t *testing.T) {
	ms, best := labelledCorpus(t, "Turing")
	artA := trainArtifact(t, ms, best, 10, 7)
	artB := trainArtifact(t, ms, best, 6, 99)
	fb := newFakeBackend("turing")
	fb.set("turing", artA, "hash-a")
	srv, err := NewBackendServer(fb, Config{AdminToken: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	mm := mmBytes(t, ms[0])

	header := func(path string, body []byte) string {
		t.Helper()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body.String())
		}
		return rec.Header().Get("X-Model-Hash")
	}

	if got := header("/v1/predict/matrix", mm); got != "hash-a" {
		t.Fatalf("single X-Model-Hash = %q, want hash-a", got)
	}
	if got := header("/v1/predict/batch", mm); got != "hash-a" {
		t.Fatalf("batch X-Model-Hash = %q, want hash-a", got)
	}

	// Hot-swap: the header must flip with the backend, memo hit or not.
	fb.set("turing", artB, "hash-b")
	if got := header("/v1/predict/matrix", mm); got != "hash-b" {
		t.Fatalf("post-swap X-Model-Hash = %q, want hash-b", got)
	}

	// Promotion: flip back to artA via the shadow path and the admin
	// endpoint, and the header follows.
	fb.setShadow("turing", artA, "hash-a2")
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/admin/promote", nil)
	req.Header.Set("Authorization", "Bearer tok")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("promote: %d %s", rec.Code, rec.Body.String())
	}
	if got := header("/v1/predict/matrix", mm); got != "hash-a2" {
		t.Fatalf("post-promote X-Model-Hash = %q, want hash-a2", got)
	}
}
