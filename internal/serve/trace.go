package serve

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Request tracing. Every HTTP request gets a trace ID (obs.RequestID) —
// honouring an incoming X-Request-ID header so a caller (or a proxy in
// front of the server) can stitch its own logs to ours, minting a random
// one otherwise. The ID is echoed in the X-Request-ID response header,
// carried through context into the span tree (obs.WithTraceID), and
// emitted in the structured JSON access log, so one grep connects a
// slow request's log line to its spans and its effect on the SLO
// windows.

// reqInfo is the per-request record the handlers fill in for the access
// log: which arch answered, with which artifact, and whether memoized
// features did (a single-matrix request whose body was not parsed). It
// travels by pointer in the request context.
type reqInfo struct {
	arch      string
	modelHash string
	cached    bool
}

type reqInfoKey struct{}

// reqInfoFrom returns the request's info record, or nil outside an
// instrumented request (direct handler tests).
func reqInfoFrom(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// noteModel records the resolved model on the request, for the access
// log line.
func noteModel(ctx context.Context, lm LiveModel) {
	if ri := reqInfoFrom(ctx); ri != nil {
		ri.arch = lm.Arch
		ri.modelHash = lm.Hash
	}
}

// noteCached records whether memoized features answered.
func noteCached(ctx context.Context, cached bool) {
	if ri := reqInfoFrom(ctx); ri != nil {
		ri.cached = cached
	}
}

// logThis applies access-log sampling: with -access-log-sample N only
// every Nth request is logged, but error responses, feedback and slow
// requests are always logged — errors are what the log is for,
// feedback closes the quality loop so its trail must stay complete
// even under replay or load-test traffic, and a slow request that the
// sampler happened to skip is precisely the one an operator greps for.
// "Slow" is obs.SlowRequest, the trace store's static threshold, so
// the log and the tail sampler agree on the word.
func (s *Server) logThis(endpoint string, status int, slow bool) bool {
	n := int64(s.cfg.AccessLogSample)
	if n <= 1 || status >= 400 || slow || endpoint == "/v1/feedback" {
		return true
	}
	return s.logSeq.Add(1)%n == 1
}

// statusWriter captures the response status for metrics and logging.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// instrument wraps one route with the request-telemetry envelope:
// trace-ID assignment and propagation, the per-endpoint labeled
// latency/status metrics, the SLO window observation and the access
// log. endpoint is the route pattern (not the raw path), keeping label
// cardinality fixed. Probe and scrape routes (/healthz, /readyz,
// /metrics) are measured and logged but excluded from the SLO windows,
// which track served traffic, not monitoring overhead.
//
// Prediction endpoints additionally get an always-on root span: the
// handlers hang stage children (parse, memo, features, cascade,
// predict, shadow, drift) off the request context, and the completed
// tree is offered to the tail-sampling trace store when one is
// configured (obs.TraceStore.StartRequest/FinishRequest). Span cost on
// this path is bounded and the store decides after the fact whether the
// tree is worth keeping.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	inSLO := strings.HasPrefix(endpoint, "/v1/")
	var traces *obs.TraceStore // nil: this route builds no span tree
	if strings.HasPrefix(endpoint, "/v1/predict/") {
		traces = s.traces
	}
	return func(w http.ResponseWriter, r *http.Request) {
		trace := obs.RequestID(r)
		w.Header().Set("X-Request-ID", trace)

		info := &reqInfo{}
		ctx := context.WithValue(obs.WithTraceID(r.Context(), trace), reqInfoKey{}, info)
		ctx, root := traces.StartRequest(ctx, r, endpoint)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}

		start := time.Now()
		h(sw, r.WithContext(ctx))
		dur := time.Since(start)

		arch := info.arch
		if arch == "" {
			arch = "none"
		}
		s.httpLatency.With(endpoint, arch).ObserveExemplar(dur.Seconds(), trace)
		s.httpRequests.With(endpoint, strconv.Itoa(sw.status)).Inc()
		if inSLO {
			s.slo.Observe(dur.Seconds(), sw.status >= 500)
		}
		traces.FinishRequest(root, r, sw.status)
		if s.accessLog != nil && s.logThis(endpoint, sw.status, dur >= obs.SlowRequest) {
			s.accessLog.LogAttrs(context.Background(), slog.LevelInfo, "request",
				slog.String("trace_id", trace),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("endpoint", endpoint),
				slog.Int("status", sw.status),
				slog.Float64("duration_ms", float64(dur)/1e6),
				slog.String("arch", info.arch),
				slog.String("model_hash", info.modelHash),
				slog.Bool("cached", info.cached),
				slog.String("remote", r.RemoteAddr),
			)
		}
	}
}
