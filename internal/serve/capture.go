package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/obs"
)

// Traffic recording. With Config.Capture set (the CLI's `serve
// -record DIR`), every successfully answered prediction request is
// appended to the capture log: a JSON metadata header — endpoint,
// resolved arch, trace ID, model hash, content type, the served
// predictions — followed by the verbatim request body, framed by
// obs.CaptureWriter's length-prefixed rotating files. `spmvselect
// replay` resends the bodies against a live server and diffs its
// answers against the recorded predictions, which is both a load
// generator with real traffic shapes and a model-regression check.

// CaptureRecord is the metadata header of one recorded request. The
// raw request body follows the header's newline verbatim.
type CaptureRecord struct {
	// UnixNano is the capture time.
	UnixNano int64 `json:"ts_unix_ns"`
	// Endpoint is the route that answered ("/v1/predict/matrix",
	// "/v1/predict/features" or "/v1/predict/batch").
	Endpoint string `json:"endpoint"`
	// Arch is the resolved architecture that answered (not the raw
	// request parameter), so replay can pin the same routing.
	Arch string `json:"arch"`
	// TraceID is the request's X-Request-ID.
	TraceID string `json:"trace_id"`
	// ModelHash identifies the artifact that produced the answers.
	ModelHash string `json:"model_hash"`
	// ContentType is the request's Content-Type header (replay must
	// resend JSON bodies as JSON).
	ContentType string `json:"content_type,omitempty"`
	// Predictions are the served format names — one entry for a single
	// prediction, one per item for a batch ("" for failed items).
	Predictions []string `json:"predictions"`
}

// EncodeCaptureRecord frames one request as a capture-log record:
// the JSON header, a newline, then the raw body.
func EncodeCaptureRecord(rec CaptureRecord, body []byte) ([]byte, error) {
	header, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("serve: encoding capture header: %w", err)
	}
	out := make([]byte, 0, len(header)+1+len(body))
	out = append(out, header...)
	out = append(out, '\n')
	out = append(out, body...)
	return out, nil
}

// DecodeCaptureRecord splits one capture-log record back into its
// metadata header and raw request body.
func DecodeCaptureRecord(raw []byte) (CaptureRecord, []byte, error) {
	i := bytes.IndexByte(raw, '\n')
	if i < 0 {
		return CaptureRecord{}, nil, fmt.Errorf("serve: capture record has no header line")
	}
	var rec CaptureRecord
	if err := json.Unmarshal(raw[:i], &rec); err != nil {
		return CaptureRecord{}, nil, fmt.Errorf("serve: decoding capture header: %w", err)
	}
	// Replay appends the endpoint to a base URL, so anything but a
	// predict route could send the body elsewhere: "@host/..." turns
	// the base's host into userinfo.
	switch rec.Endpoint {
	case "/v1/predict/matrix", "/v1/predict/features", "/v1/predict/batch":
	default:
		return CaptureRecord{}, nil, fmt.Errorf("serve: capture record names endpoint %q, not a predict route", rec.Endpoint)
	}
	return rec, raw[i+1:], nil
}

// captureRequest appends one answered request to the capture log.
// Recording failures never fail the request — they are counted and the
// answer already went out.
func (s *Server) captureRequest(ctx context.Context, endpoint string, lm LiveModel, contentType string, body []byte, preds []string) {
	if s.capture == nil {
		return
	}
	rec := CaptureRecord{
		UnixNano:    time.Now().UnixNano(),
		Endpoint:    endpoint,
		Arch:        lm.Arch,
		TraceID:     obs.TraceID(ctx),
		ModelHash:   lm.Hash,
		ContentType: contentType,
		Predictions: preds,
	}
	data, err := EncodeCaptureRecord(rec, body)
	if err == nil {
		err = s.capture.Append(data)
	}
	if err != nil {
		s.captureErrors.Inc()
		return
	}
	s.captureRecords.Inc()
}
