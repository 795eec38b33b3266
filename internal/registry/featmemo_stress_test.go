package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/serve"
	"repro/internal/sparse"
)

// TestStressFeatMemoAcrossSwaps drives the feature-vector memo under
// exactly the conditions it exists for — repeat bodies arriving across
// concurrent hot-swaps and a promotion; the memo is the server's only
// request cache, so every repeat goes through it. A tiny memo
// capacity forces concurrent evictions (hits and misses interleave),
// and every answer is checked against the prediction the responding
// artifact computes for that body offline: a memoized feature vector
// feeding the wrong model, or a torn entry, would surface as a wrong
// format or a -race report.
func TestStressFeatMemoAcrossSwaps(t *testing.T) {
	dir := t.TempDir()
	vA := saveArtifact(t, dir, "a.gob", 10, 7)
	vB := saveArtifact(t, dir, "b.gob", 6, 2)
	live := filepath.Join(dir, "live.gob")
	cand := filepath.Join(dir, "cand.gob")
	copyFile(t, vA, live)
	copyFile(t, vB, cand)

	ms, _ := labelledCorpus(t)
	const nBodies = 6
	bodies := make([][]byte, nBodies)
	for i := range bodies {
		var buf bytes.Buffer
		if err := sparse.WriteMatrixMarket(&buf, ms[i]); err != nil {
			t.Fatal(err)
		}
		bodies[i] = buf.Bytes()
	}

	// Ground truth: what each installed artifact answers for each body,
	// computed outside the server. hash -> body index -> format.
	expect := map[string][]string{}
	for _, path := range []string{vA, vB} {
		art, err := serve.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		formats := make([]string, nBodies)
		for i := range bodies {
			m, err := sparse.ReadMatrixMarketBytes(bodies[i])
			if err != nil {
				t.Fatal(err)
			}
			pred, err := art.PredictMatrix(context.Background(), m, nil)
			if err != nil {
				t.Fatal(err)
			}
			formats[i] = pred.Format
		}
		expect[fileHash(t, path)] = formats
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
		MaxConcurrent: 16,
		FeatMemoSize:  4, // smaller than the body set: constant eviction churn
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	hits0, misses0 := srv.FeatMemoStats() // counters are process-global

	const (
		clients  = 8
		requests = 60
		swapsN   = 25
	)
	var failures atomic.Int64
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}

	var wg sync.WaitGroup
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
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				bi := (c + i) % nBodies
				req := httptest.NewRequest(http.MethodPost, "/v1/predict/matrix",
					bytes.NewReader(bodies[bi]))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					fail("client %d req %d: %d %s", c, i, rec.Code, rec.Body.String())
					continue
				}
				var out struct {
					Format    string `json:"format"`
					ModelHash string `json:"model_hash"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
					fail("client %d req %d: bad body %q (%v)", c, i, rec.Body.String(), err)
					continue
				}
				want, ok := expect[out.ModelHash]
				if !ok {
					fail("client %d req %d: unknown model hash %q", c, i, out.ModelHash)
					continue
				}
				if out.Format != want[bi] {
					fail("client %d req %d: body %d served %q by model %s, want %q — memoized features answered for the wrong body or model",
						c, i, bi, out.Format, out.ModelHash, want[bi])
				}
			}
		}(c)
	}

	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d failures under concurrent memo traffic and swaps", n)
	}

	// The memo did real work: with only 6 distinct bodies for 480
	// requests, hits must vastly outnumber bodies, and swaps must not
	// have emptied it.
	hits, misses := srv.FeatMemoStats()
	hits, misses = hits-hits0, misses-misses0
	if hits == 0 {
		t.Fatal("no feature-memo hits across 480 repeat-heavy requests")
	}
	if misses == 0 {
		t.Fatal("no feature-memo misses despite eviction-forcing capacity")
	}
	t.Logf("featmemo: %d hits, %d misses", hits, misses)
}
