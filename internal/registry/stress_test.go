package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/serve"
	"repro/internal/sparse"
)

// TestStressHotSwapUnderLoad is the hot-swap correctness test: many
// goroutines hammer the single-matrix and batch prediction endpoints
// while another goroutine concurrently rewrites the artifact files,
// reloads, and promotes the shadow candidate. Every request must
// succeed and every response must carry a model hash that corresponds
// to one of the artifacts that was ever installed — a torn swap would
// surface as a failed request, an unknown hash, or a race report
// (this test is what `go test -race` is for).
func TestStressHotSwapUnderLoad(t *testing.T) {
	dir := t.TempDir()
	vA := saveArtifact(t, dir, "a.gob", 10, 7)
	vB := saveArtifact(t, dir, "b.gob", 6, 2)
	vC := saveArtifact(t, dir, "c.gob", 12, 9)
	live := filepath.Join(dir, "live.gob")
	cand := filepath.Join(dir, "cand.gob")
	copyFile(t, vA, live)
	copyFile(t, vC, cand)

	known := map[string]bool{
		fileHash(t, vA): true,
		fileHash(t, vB): true,
		fileHash(t, vC): true,
	}

	r := New()
	if err := r.Configure("turing", live); err != nil {
		t.Fatal(err)
	}
	if err := r.ConfigureShadow("turing", cand); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewBackendServer(r, serve.Config{
		AdminToken: "stress-token", MaxConcurrent: 16, MaxBatchItems: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	ms, _ := labelledCorpus(t)
	bodies := make([][]byte, 4)
	for i := range bodies {
		var buf bytes.Buffer
		if err := sparse.WriteMatrixMarket(&buf, ms[i]); err != nil {
			t.Fatal(err)
		}
		bodies[i] = buf.Bytes()
	}
	batchBody, err := json.Marshal(map[string]any{
		"matrices": []string{string(bodies[0]), string(bodies[1]), string(bodies[2])},
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		clients  = 8
		requests = 40
		swapsN   = 30
	)
	var failures atomic.Int64
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// The swapper: rewrite both artifact files, reload, and promote the
	// candidate once mid-run. Promotion re-points the live slot at the
	// candidate path, which the later iterations keep rewriting.
	wg.Add(1)
	go func() {
		defer wg.Done()
		files := [2]string{vA, vB}
		for i := 0; i < swapsN; i++ {
			copyFile(t, files[i%2], live)
			copyFile(t, files[(i+1)%2], cand)
			if _, err := r.Reload(); err != nil {
				fail("reload %d: %v", i, err)
			}
			if i == swapsN/2 {
				if _, err := r.Promote("turing"); err != nil {
					fail("promote: %v", err)
				}
			}
		}
		close(stop)
	}()

	checkHash := func(kind string, i int, hash string) {
		if !known[hash] {
			fail("%s %d: response hash %q is not any installed artifact", kind, i, hash)
		}
	}

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				if c%2 == 0 {
					req := httptest.NewRequest(http.MethodPost, "/v1/predict/matrix",
						bytes.NewReader(bodies[(c+i)%len(bodies)]))
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					var out struct {
						Format    string `json:"format"`
						ModelHash string `json:"model_hash"`
					}
					if rec.Code != http.StatusOK {
						fail("matrix %d/%d: %d %s", c, i, rec.Code, rec.Body.String())
						continue
					}
					if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Format == "" {
						fail("matrix %d/%d: bad body %q (%v)", c, i, rec.Body.String(), err)
						continue
					}
					checkHash("matrix", i, out.ModelHash)
				} else {
					req := httptest.NewRequest(http.MethodPost, "/v1/predict/batch",
						bytes.NewReader(batchBody))
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						fail("batch %d/%d: %d %s", c, i, rec.Code, rec.Body.String())
						continue
					}
					var out struct {
						ModelHash string `json:"model_hash"`
						Errors    int    `json:"errors"`
						Results   []struct {
							Format string `json:"format"`
						} `json:"results"`
					}
					if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
						fail("batch %d/%d: bad body (%v)", c, i, err)
						continue
					}
					if out.Errors != 0 || len(out.Results) != 3 {
						fail("batch %d/%d: %d errors, %d results", c, i, out.Errors, len(out.Results))
					}
					checkHash("batch", i, out.ModelHash)
				}
			}
		}(c)
	}

	// One more goroutine polls the read-only surfaces the whole time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/readyz", "/v1/model", "/v1/model?arch=turing"} {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK && rec.Code != http.StatusServiceUnavailable {
					fail("GET %s: %d", path, rec.Code)
				}
			}
			req := httptest.NewRequest(http.MethodGet, "/v1/admin/shadow", nil)
			req.Header.Set("Authorization", "Bearer stress-token")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				fail("shadow report: %d %s", rec.Code, rec.Body.String())
			}
		}
	}()

	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d failed requests under concurrent hot-swap", n)
	}
	// The registry settles coherent: ready, serving a known hash.
	if err := r.Ready(); err != nil {
		t.Fatalf("not ready after stress: %v", err)
	}
	lm, err := r.Live("")
	if err != nil || !known[lm.Hash] {
		t.Fatalf("final live = %+v, %v", lm, err)
	}
	if fmt.Sprint(r.Arches()) != "[turing]" {
		t.Fatalf("arches = %v", r.Arches())
	}
}
