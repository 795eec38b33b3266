package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"unicode"
	"unicode/utf8"

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
//
// The body is a concatenation of MatrixMarket files, split on their
// banner lines; arch routing comes from the ?arch= query parameter.
// Items alias the body, so the (large) matrix payloads are neither
// copied nor decoded before parsing, which is what makes batching pay
// even for megabyte-scale matrices.

// splitMatrixMarket splits a concatenation of MatrixMarket files at
// every banner line (isBanner). An item runs from the start of its
// banner line to the next one; bytes before the first banner belong to
// no item. The returned items alias body.
func splitMatrixMarket(body []byte) [][]byte {
	var starts []int
	for i := 0; i < len(body); {
		line := body[i:]
		j := bytes.IndexByte(line, '\n')
		if j >= 0 {
			line = line[:j]
		}
		if isBanner(line) {
			starts = append(starts, i)
		}
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

// isBanner applies the MatrixMarket readers' header test to one line:
// its first whitespace-separated field, lowercased, is
// "%%matrixmarket". Like the streaming reader, it splits on Unicode
// whitespace and lowercases with bytes.ToLower, so a batch item starts
// exactly where a file the readers accept does.
func isBanner(line []byte) bool {
	const banner = "%%matrixmarket"
	field := bytes.TrimLeftFunc(line, unicode.IsSpace)
	if !bytes.HasPrefix(field, []byte("%%")) {
		return false // the common case: a data or comment line
	}
	if end := bytes.IndexFunc(field, unicode.IsSpace); end >= 0 {
		field = field[:end]
	}
	// Lowercasing keeps the rune count, so only a field of the banner's
	// length is worth a (small) lowered copy.
	return utf8.RuneCount(field) == len(banner) && string(bytes.ToLower(field)) == banner
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
func (s *Server) predictBatchItem(ctx context.Context, lm LiveModel, scratch *features.Scratch, ps *sparse.ParseScratch, item []byte, i int) batchItem {
	if err := ctx.Err(); err != nil {
		return batchItem{Error: "request cancelled: " + err.Error()}
	}
	if len(item) == 0 {
		return batchItem{Error: "empty matrix body"}
	}
	ans, err := s.predictBody(ctx, lm, scratch, ps, item)
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
	items := splitMatrixMarket(body)
	if len(items) == 0 {
		return nil, badRequest("empty batch: no %%%%MatrixMarket banner lines in the body")
	}
	lm, err := s.live(r.URL.Query().Get("arch"))
	if err != nil {
		return nil, err
	}
	noteModel(ctx, lm)
	n := len(items)
	if n > s.cfg.MaxBatchItems {
		return nil, &httpError{status: http.StatusRequestEntityTooLarge,
			err: badRequest("batch of %d matrices exceeds the per-request limit of %d", n, s.cfg.MaxBatchItems)}
	}
	s.batchReqs.Inc()
	s.batchItems.Add(int64(n))

	results := make([]batchItem, n)
	var itemErrs atomic.Int64
	var crashed atomic.Pointer[string]
	obs.ParallelChunks(n, obs.Workers(n), func(w, lo, hi int) {
		// A model that decodes but panics at predict time (live or
		// shadow) fails this request, not the process: an unrecovered
		// panic in a worker goroutine would end every replica it reaches.
		defer func() {
			if p := recover(); p != nil {
				msg := fmt.Sprint(p)
				crashed.CompareAndSwap(nil, &msg)
			}
		}()
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
			results[i] = s.predictBatchItem(ictx, lm, &scratch, ps, items[i], i)
			if results[i].Error != "" {
				itemErrs.Add(1)
			}
			span.End()
		}
	})
	if msg := crashed.Load(); msg != nil {
		return nil, &httpError{status: http.StatusInternalServerError, err: fmt.Errorf("batch prediction panicked: %s", *msg)}
	}
	errs := int(itemErrs.Load())
	s.batchErrors.Add(int64(errs))
	preds := make([]string, n)
	for i := range results {
		preds[i] = results[i].Format // "" for failed items
	}
	s.captureRequest(ctx, "/v1/predict/batch", lm, r.Header.Get("Content-Type"), body, preds)
	return batchResponse{
		Arch:      lm.Arch,
		ModelHash: lm.Hash,
		Count:     n,
		Errors:    errs,
		Results:   results,
	}, nil
}
