package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// The batch prediction endpoint: one request carrying many MatrixMarket
// bodies, fanned out over the shared obs worker pool so parsing,
// feature extraction and inference parallelise across items. The whole
// batch is answered by one resolved model (a hot-swap mid-request
// never splits a batch across two model versions), holds one
// concurrency slot (the obs pool's global worker cap bounds the actual
// CPU fan-out), and each item goes through the same feature memo as the
// single-matrix endpoint.

// batchRequest is the JSON body of /v1/predict/batch. The endpoint
// also accepts a text/plain body: concatenated MatrixMarket files,
// split on their "%%MatrixMarket" banner lines. The text form skips
// JSON string decoding of the (large) matrix payloads entirely, which
// is what makes batching pay even for megabyte-scale matrices; arch
// routing then comes from the ?arch= query parameter.
type batchRequest struct {
	// Arch routes the whole batch; empty selects the default.
	Arch string `json:"arch,omitempty"`
	// Matrices are MatrixMarket texts, answered positionally.
	Matrices []string `json:"matrices"`
}

// splitMatrixMarket splits a concatenation of MatrixMarket files on
// their "%%MatrixMarket" banner lines (every well-formed file starts
// with one). The returned items alias body — no copies of the matrix
// payloads are made.
func splitMatrixMarket(body []byte) [][]byte {
	marker := []byte("%%MatrixMarket")
	var starts []int
	for i := 0; i < len(body); {
		if bytes.HasPrefix(body[i:], marker) {
			starts = append(starts, i)
		}
		j := bytes.IndexByte(body[i:], '\n')
		if j < 0 {
			break
		}
		i += j + 1
	}
	parts := make([][]byte, len(starts))
	for k, s := range starts {
		end := len(body)
		if k+1 < len(starts) {
			end = starts[k+1]
		}
		parts[k] = body[s:end]
	}
	return parts
}

// batchItem is one positional answer. Cached means what it means on
// the single-matrix endpoint: memoized features answered. Error is set
// (and the prediction fields zero) when that item failed; other items
// are unaffected.
type batchItem struct {
	Prediction
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`
}

// batchResponse is the JSON answer of /v1/predict/batch.
type batchResponse struct {
	Arch      string      `json:"arch"`
	ModelHash string      `json:"model_hash"`
	Count     int         `json:"count"`
	Errors    int         `json:"errors"`
	Results   []batchItem `json:"results"`
}

// predictBatchItem answers one batch position: the shared predictBody
// path plus the per-item feedback registration (batch item i of
// request ID reports as "ID#i").
func (s *Server) predictBatchItem(ctx context.Context, lm, cand LiveModel, shadowed bool, scratch *features.Scratch, ps *sparse.ParseScratch, item []byte, i int) batchItem {
	if err := ctx.Err(); err != nil {
		return batchItem{Error: "request cancelled: " + err.Error()}
	}
	if len(item) == 0 {
		return batchItem{Error: "empty matrix body"}
	}
	ans, err := s.predictBody(ctx, lm, cand, shadowed, scratch, ps, item)
	if err != nil {
		return batchItem{Error: err.Error()}
	}
	s.notePending(ctx, "#"+strconv.Itoa(i), lm, ans.pred, ans.cand, ans.candOK)
	return batchItem{Prediction: ans.pred, Cached: ans.cached}
}

// predictBatch answers a bounded batch of MatrixMarket bodies.
func (s *Server) predictBatch(ctx context.Context, r *http.Request) (any, error) {
	body, err := s.readBody(r)
	if err != nil {
		return nil, err
	}
	var items [][]byte
	var reqArch string
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") ||
		(ct == "" && bytes.HasPrefix(bytes.TrimLeft(body, " \t\r\n"), []byte("{"))) {
		var req batchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, badRequest("parsing JSON body: %v", err)
		}
		reqArch = req.Arch
		items = make([][]byte, len(req.Matrices))
		for i, m := range req.Matrices {
			items[i] = []byte(m)
		}
	} else {
		items = splitMatrixMarket(body)
		if len(items) == 0 {
			return nil, badRequest("text batch: no %%%%MatrixMarket banner lines in the body")
		}
	}
	arch := reqArch
	if arch == "" {
		arch = r.URL.Query().Get("arch")
	}
	lm, err := s.live(arch)
	if err != nil {
		return nil, err
	}
	noteModel(ctx, lm)
	n := len(items)
	if n == 0 {
		return nil, badRequest("empty batch: provide at least one matrix")
	}
	if n > s.cfg.MaxBatchItems {
		return nil, &httpError{status: http.StatusRequestEntityTooLarge,
			err: badRequest("batch of %d matrices exceeds the per-request limit of %d", n, s.cfg.MaxBatchItems)}
	}
	s.batchReqs.Inc()
	s.batchItems.Add(int64(n))

	cand, shadowed := s.backend.Shadow(lm.Arch)
	results := make([]batchItem, n)
	var itemErrs atomic.Int64
	obs.ParallelChunks(n, obs.Workers(n), func(w, lo, hi int) {
		// One feature-extraction scratch and one pooled parse scratch
		// per worker: a batch performs a handful of buffer allocations
		// instead of several per matrix.
		var scratch features.Scratch
		ps := sparse.GetParseScratch()
		defer sparse.PutParseScratch(ps)
		for i := lo; i < hi; i++ {
			// Each item gets its own span; ctx carries the request's
			// trace ID, so every item in the fan-out is attributable to
			// the parent X-Request-ID.
			ictx, span := obs.StartChild(ctx, "serve/batch/item")
			span.SetMetric("index", float64(i))
			results[i] = s.predictBatchItem(ictx, lm, cand, shadowed, &scratch, ps, items[i], i)
			if results[i].Error != "" {
				itemErrs.Add(1)
			}
			span.End()
		}
	})
	errs := int(itemErrs.Load())
	s.batchErrors.Add(int64(errs))
	preds := make([]string, n)
	for i := range results {
		preds[i] = results[i].Format // "" for failed items
	}
	s.captureRequest(ctx, "/v1/predict/batch", lm, ct, body, preds)
	return batchResponse{
		Arch:      lm.Arch,
		ModelHash: lm.Hash,
		Count:     n,
		Errors:    errs,
		Results:   results,
	}, nil
}
