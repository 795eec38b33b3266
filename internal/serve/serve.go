package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// Config tunes the prediction service. The zero value selects sensible
// production defaults.
type Config struct {
	// MaxConcurrent bounds in-flight predictions; excess requests wait
	// (up to the request timeout) for a slot. Default: obs.Workers of
	// GOMAXPROCS — the same bound the repository's parallel helpers
	// use, since prediction is CPU-bound.
	MaxConcurrent int
	// FeatMemoSize is the feature-vector memo capacity in entries
	// (default 4096; negative disables). The memo is the only request
	// cache: it fronts MatrixMarket parsing and feature extraction, is
	// keyed by body content alone and — feature vectors being
	// model-independent — survives hot-swaps, promotions and arch
	// routing.
	FeatMemoSize int
	// Timeout bounds one request end to end, including time spent
	// queueing for a concurrency slot (default 30s).
	Timeout time.Duration
	// MaxBodyBytes bounds the request body (default 64 MiB — a
	// MatrixMarket body of several million nonzeros).
	MaxBodyBytes int64
	// MaxBatchItems bounds the matrix count of one /v1/predict/batch
	// request (default 64).
	MaxBatchItems int
	// AdminToken guards /v1/admin/*: requests must carry it as a
	// bearer token. Empty (the default) refuses every admin request —
	// mutation is opt-in, never accidentally open.
	AdminToken string
	// AccessLog, when non-nil, receives one structured line per HTTP
	// request (trace ID, method, path, status, latency, arch, model
	// hash, whether memoized features answered). Nil disables access
	// logging.
	AccessLog *slog.Logger
	// AccessLogSample logs one in N requests when > 1 (errors, requests
	// slower than obs.SlowRequest and /v1/feedback are always logged),
	// bounding log volume under replay/load-test traffic. 0 or 1 logs
	// everything.
	AccessLogSample int
	// Capture, when non-nil, records every successfully answered
	// prediction request (metadata header + verbatim body) for
	// `spmvselect replay`.
	Capture *obs.CaptureWriter
	// TraceCapacity bounds the tail-sampled trace store behind
	// /v1/admin/trace (default 128 retained traces; negative disables
	// request tracing entirely, and the trace routes answer 501). The
	// store keeps every request slower than obs.SlowRequest and one in
	// 100 of the rest.
	TraceCapacity int
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = obs.Workers(runtime.GOMAXPROCS(0))
	}
	if c.FeatMemoSize == 0 {
		c.FeatMemoSize = 4096
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 64
	}
	return c
}

// Server answers format predictions over HTTP from a model Backend —
// a single static artifact or the multi-architecture registry:
//
//	GET  /healthz              liveness probe
//	GET  /readyz               per-arch load state; 503 until every
//	                           configured artifact has loaded
//	GET  /v1/model[?arch=X]    artifact metadata for one arch
//	POST /v1/predict/matrix    MatrixMarket body -> prediction
//	POST /v1/predict/features  {"features": [...], "arch": "..."} -> prediction
//	POST /v1/predict/batch     concatenated MatrixMarket files -> predictions
//	POST /v1/feedback          measured kernel times for a served
//	                           prediction, keyed by X-Request-ID
//	GET  /metrics              Prometheus text exposition (obs.Default,
//	                           SLO windows, drift and quality gauges
//	                           refreshed per scrape)
//	POST /v1/admin/reload      hot-swap changed artifacts from disk
//	POST /v1/admin/promote     flip a shadow candidate to live
//	GET  /v1/admin/shadow      shadow evaluation report
//	GET  /v1/admin/slo         rolling-window SLO report (1m/5m/1h)
//	GET  /v1/admin/drift       served-prediction drift report
//	GET  /v1/admin/quality     measured prediction-quality report
//	GET  /v1/admin/trace       retained request traces, newest first
//	GET  /v1/admin/trace/<id>  one retained span tree (obs.ServeTraces)
//
// Predictions route by the request's arch (query parameter, or the
// body field on /v1/predict/features); an empty arch selects the
// backend's default. Requests are bounded-concurrency (CPU-bound
// inference). MatrixMarket bodies go through the feature memo, keyed by body content
// hash: a repeat body skips parsing and extraction, and the live
// artifact still predicts every request, so a hot-swap needs no
// invalidation. Everything is instrumented in the obs.Default metrics
// registry:
//
//	serve/requests            counter    requests accepted per endpoint path
//	serve/errors              counter    requests answered with an error status
//	serve/rejected            counter    requests shed (queue wait exceeded the timeout)
//	serve/featmemo/hits       counter    matrix predictions answered from memoized features (parse + extract skipped)
//	serve/featmemo/misses     counter    matrix predictions computed without a usable feature-memo entry
//	serve/featmemo/entries    gauge      feature-memo entries resident
//	serve/featmemo/bytes      gauge      approximate feature-memo heap footprint
//	serve/batch/requests      counter    batch requests accepted
//	serve/batch/items         counter    matrices received in batches
//	serve/batch/item_errors   counter    batch items answered with a per-item error
//	serve/shadow/errors       counter    shadow candidate predictions that failed
//	serve/cascade/hits        counter    answers served by the cheap cascade stage
//	serve/cascade/fallthroughs counter   cascade requests that paid the full path
//	serve/cascade/confidence  histogram  cheap-stage top-class probability per computed answer
//	serve/capture/records     counter    requests appended to the capture log
//	serve/capture/errors      counter    capture appends that failed
//	serve/feedback/accepted   counter    feedback reports joined to a prediction
//	serve/feedback/rejected   counter    feedback reports refused
//	serve/admin/requests      counter    admin endpoint hits
//	serve/admin/unauthorized  counter    admin requests refused for a bad/missing token
//	serve/inflight            gauge      predictions currently executing
//	serve/request/seconds     histogram  end-to-end request latency
//
// and in labeled vectors (rendered with full label sets on /metrics):
//
//	serve/http/seconds{endpoint,arch}   histogram  per-route request latency
//	serve/http/requests{endpoint,status} counter   per-route answers by status
//	serve/predictions{arch,format}      counter    served answers by format
//
// Every request is traced: an X-Request-ID header is honoured (or a
// random ID minted), echoed back, stamped on the request's span tree
// and emitted in the access log. Requests to /v1/* also feed the
// rolling SLO windows behind /v1/admin/slo.
type Server struct {
	backend  Backend
	admin    AdminBackend // nil when the backend has no admin surface
	cfg      Config
	sem      chan struct{}
	featMemo *featMemo
	capture  *obs.CaptureWriter // nil unless recording traffic
	pending  *pendingStore      // nil unless admin != nil
	started  time.Time

	slo       *obs.SLOWindows
	accessLog *slog.Logger
	logSeq    atomic.Int64    // access-log sampling counter
	traces    *obs.TraceStore // nil when TraceCapacity < 0

	requests     *obs.Counter
	errors       *obs.Counter
	rejected     *obs.Counter
	memoHits     *obs.Counter
	memoMisses   *obs.Counter
	batchReqs    *obs.Counter
	batchItems   *obs.Counter
	batchErrors  *obs.Counter
	shadowErrors *obs.Counter
	cascadeHits  *obs.Counter
	cascadeFalls *obs.Counter
	cascadeConf  *obs.Histogram
	adminReqs    *obs.Counter
	adminDenied  *obs.Counter
	inflight     *obs.Gauge
	latency      *obs.Histogram
	httpLatency  *obs.HistogramVec
	httpRequests *obs.CounterVec
	predictions  *obs.CounterVec

	captureRecords   *obs.Counter
	captureErrors    *obs.Counter
	feedbackAccepted *obs.Counter
	feedbackRejected *obs.Counter
}

// NewServer wraps a single validated artifact — the original
// one-model deployment, kept as a convenience over NewBackendServer.
func NewServer(art *Artifact, cfg Config) (*Server, error) {
	b, err := NewStaticBackend(art, "")
	if err != nil {
		return nil, err
	}
	return NewBackendServer(b, cfg)
}

// NewBackendServer builds the HTTP service over any model backend.
// When the backend also implements AdminBackend, /v1/feedback and the
// /v1/admin/* model endpoints are live (the admin ones still gated by
// Config.AdminToken).
func NewBackendServer(b Backend, cfg Config) (*Server, error) {
	if b == nil {
		return nil, fmt.Errorf("serve: nil backend")
	}
	cfg = cfg.withDefaults()
	admin, _ := b.(AdminBackend)
	var pending *pendingStore
	if admin != nil {
		pending = newPendingStore(pendingFeedback)
	}
	s := &Server{
		backend:      b,
		admin:        admin,
		cfg:          cfg,
		sem:          make(chan struct{}, cfg.MaxConcurrent),
		featMemo:     newFeatMemo(cfg.FeatMemoSize),
		capture:      cfg.Capture,
		pending:      pending,
		started:      time.Now(),
		slo:          obs.NewSLOWindows(obs.SLOConfig{}),
		accessLog:    cfg.AccessLog,
		requests:     obs.Default.Counter("serve/requests"),
		errors:       obs.Default.Counter("serve/errors"),
		rejected:     obs.Default.Counter("serve/rejected"),
		memoHits:     obs.Default.Counter("serve/featmemo/hits"),
		memoMisses:   obs.Default.Counter("serve/featmemo/misses"),
		batchReqs:    obs.Default.Counter("serve/batch/requests"),
		batchItems:   obs.Default.Counter("serve/batch/items"),
		batchErrors:  obs.Default.Counter("serve/batch/item_errors"),
		shadowErrors: obs.Default.Counter("serve/shadow/errors"),
		cascadeHits:  obs.Default.Counter("serve/cascade/hits"),
		cascadeFalls: obs.Default.Counter("serve/cascade/fallthroughs"),
		cascadeConf:  obs.Default.Histogram("serve/cascade/confidence", confidenceBuckets),
		adminReqs:    obs.Default.Counter("serve/admin/requests"),
		adminDenied:  obs.Default.Counter("serve/admin/unauthorized"),
		inflight:     obs.Default.Gauge("serve/inflight"),
		latency:      obs.Default.Histogram("serve/request/seconds", obs.DurationBuckets),
		httpLatency:  obs.Default.HistogramVec("serve/http/seconds", obs.DurationBuckets, "endpoint", "arch"),
		httpRequests: obs.Default.CounterVec("serve/http/requests", "endpoint", "status"),
		predictions:  obs.Default.CounterVec("serve/predictions", "arch", "format"),

		captureRecords:   obs.Default.Counter("serve/capture/records"),
		captureErrors:    obs.Default.Counter("serve/capture/errors"),
		feedbackAccepted: obs.Default.Counter("serve/feedback/accepted"),
		feedbackRejected: obs.Default.Counter("serve/feedback/rejected"),
	}
	// The dynamic slow threshold tracks the exported 5m p99 gauge, which
	// refreshDerived keeps current on every /metrics scrape — reading a
	// gauge per request instead of recomputing the window.
	p99 := obs.Default.GaugeVec("slo/latency/seconds", "window", "quantile").With("5m", "p99")
	s.traces = obs.NewTraceStore(obs.TraceConfig{
		Capacity: cfg.TraceCapacity,
		DynamicSlow: func() time.Duration {
			return time.Duration(p99.Value() * float64(time.Second))
		},
		Metrics: obs.Default,
		Prefix:  "serve/trace",
	})
	return s, nil
}

// FlushCache does nothing. The server caches no answers: the feature
// memo holds body→features, which no model swap can invalidate, and
// every request runs the live artifact. It stays so that callers which
// still wire it into a swap hook (registry.OnSwap) keep compiling.
func (s *Server) FlushCache() {}

// FeatMemoStats reports the feature-memo hit/miss tallies (the
// process-wide serve/featmemo/* counters), for tests and diagnostics.
func (s *Server) FeatMemoStats() (hits, misses int64) {
	return s.memoHits.Value(), s.memoMisses.Value()
}

// predictResponse is the JSON answer of the prediction endpoints.
type predictResponse struct {
	Prediction
	// Arch is the resolved architecture that answered.
	Arch string `json:"arch"`
	// ModelHash identifies the artifact that produced the answer; it
	// changes on every hot-swap or promotion.
	ModelHash string `json:"model_hash"`
	// Cached reports that memoized features answered: the body was not
	// parsed and no features were extracted. The live model still ran.
	// Always false on /v1/predict/features.
	Cached bool `json:"cached"`
}

// modelResponse describes one hosted artifact.
type modelResponse struct {
	Kind       string   `json:"kind"`
	Classifier string   `json:"classifier,omitempty"`
	Arch       string   `json:"arch,omitempty"`
	Default    bool     `json:"default,omitempty"`
	Formats    []string `json:"formats"`
	Features   int      `json:"features"`
	Clusters   int      `json:"clusters,omitempty"`
	Version    int      `json:"version"`
	Hash       string   `json:"hash"`
	Source     string   `json:"source,omitempty"`
	ShadowHash string   `json:"shadow_hash,omitempty"`
	// Cascade calibration, present when the artifact carries a
	// cheap-first stage.
	Cascade           bool    `json:"cascade,omitempty"`
	CascadeClassifier string  `json:"cascade_classifier,omitempty"`
	CascadeThreshold  float64 `json:"cascade_threshold,omitempty"`
	CascadeAgreement  float64 `json:"cascade_heldout_agreement,omitempty"`
	CascadeTarget     float64 `json:"cascade_target_agreement,omitempty"`
	CascadeHitRate    float64 `json:"cascade_heldout_hit_rate,omitempty"`
}

// ReadyResponse is the /readyz body: readiness, process uptime and the
// per-arch live model hashes, so a fleet health check can both gate
// traffic (the status code) and detect stale artifacts (the hashes).
type ReadyResponse struct {
	Ready         bool         `json:"ready"`
	Error         string       `json:"error,omitempty"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	Arches        []ArchStatus `json:"arches"`
}

// Handler returns the service's HTTP handler (its own mux, so tests can
// drive it without a listener).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	route("/healthz", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	route("/readyz", s.handleReady)
	route("/metrics", obs.PromHandler(obs.Default, s.refreshDerived).ServeHTTP)
	route("/v1/model", s.handleModel)
	route("/v1/predict/matrix", s.limited(s.predictMatrix))
	route("/v1/predict/features", s.limited(s.predictFeatures))
	route("/v1/predict/batch", s.limited(s.predictBatch))
	route("/v1/feedback", s.handleFeedback)
	route("/v1/admin/reload", s.adminEndpoint(http.MethodPost, true, s.adminReload))
	route("/v1/admin/promote", s.adminEndpoint(http.MethodPost, true, s.adminPromote))
	route("/v1/admin/shadow", s.adminEndpoint(http.MethodGet, true, s.adminShadow))
	route("/v1/admin/shadow/install", s.adminEndpoint(http.MethodPost, true, s.adminShadowInstall))
	route("/v1/admin/slo", s.adminEndpoint(http.MethodGet, false, s.adminSLO))
	route("/v1/admin/drift", s.adminEndpoint(http.MethodGet, true, s.adminDrift))
	route("/v1/admin/quality", s.adminEndpoint(http.MethodGet, true, s.adminQuality))
	traces := s.adminEndpoint(http.MethodGet, false, obs.ServeTraces(s.traces, nil))
	route("/v1/admin/trace", traces)
	route("/v1/admin/trace/", traces)
	return mux
}

// refreshDerived brings lazily computed gauges (SLO windows, drift
// scores) up to date; PromHandler runs it before every scrape.
func (s *Server) refreshDerived() {
	s.slo.Export(obs.Default)
	if s.admin != nil {
		s.admin.DriftReport()   // updates the registry's drift gauges
		s.admin.QualityReport() // updates the registry's quality gauges
	}
}

// handleReady reports per-arch load state: 200 once every configured
// artifact is live, 503 (with the same body) while anything is still
// loading or failed — the signal orchestrators gate traffic on during
// startup and reload.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	resp := ReadyResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Arches:        s.backend.Status(),
	}
	if err := s.backend.Ready(); err != nil {
		resp.Error = err.Error()
		obs.WriteJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	resp.Ready = true
	obs.WriteJSON(w, http.StatusOK, resp)
}

// handleModel describes the artifact serving ?arch= (default arch when
// absent).
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	lm, err := s.live(r.URL.Query().Get("arch"))
	if err != nil {
		writeError(w, err)
		return
	}
	art := lm.Artifact
	resp := modelResponse{
		Kind:       art.Kind,
		Classifier: art.Classifier,
		Arch:       lm.Arch,
		Default:    lm.Arch == s.backend.DefaultArch(),
		Formats:    art.Formats,
		Features:   art.InDim(),
		Version:    ArtifactVersion,
		Hash:       lm.Hash,
		Source:     lm.Source,
	}
	if art.Kind == KindSemisup {
		resp.Clusters = art.Semisup.NumClusters()
	}
	if c := art.Cascade; c != nil {
		resp.Cascade = true
		resp.CascadeClassifier = c.Classifier
		resp.CascadeThreshold = c.Threshold
		resp.CascadeAgreement = c.HeldoutAgreement
		resp.CascadeTarget = c.TargetAgreement
		resp.CascadeHitRate = c.HeldoutHitRate
	}
	if c := lm.Candidate; c != nil {
		resp.ShadowHash = c.Hash
	}
	obs.WriteJSON(w, http.StatusOK, resp)
}

// httpError carries a status code with the error.
type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

// live resolves a request arch through the backend, mapping routing
// errors to HTTP statuses: unknown arch 404, not-yet-loaded 503.
func (s *Server) live(arch string) (LiveModel, error) {
	lm, err := s.backend.Live(arch)
	if err == nil {
		return lm, nil
	}
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownArch):
		status = http.StatusNotFound
	case errors.Is(err, ErrNotLoaded):
		status = http.StatusServiceUnavailable
	}
	return lm, &httpError{status: status, err: err}
}

// limited wraps a prediction handler with the request method check, the
// per-request timeout, the concurrency bound and the metrics. The
// handler returns the full response object (predictResponse or
// batchResponse).
func (s *Server) limited(h func(ctx context.Context, r *http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !obs.AllowMethod(w, r, http.MethodPost) {
			return
		}
		s.requests.Inc()
		start := time.Now()
		defer func() {
			s.latency.ObserveExemplar(time.Since(start).Seconds(), obs.TraceID(r.Context()))
		}()

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()

		// Bounded concurrency: wait for a slot, but never longer than
		// the request timeout — shed load instead of queueing without
		// bound.
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			s.rejected.Inc()
			s.errors.Inc()
			obs.WriteJSON(w, http.StatusServiceUnavailable,
				obs.ErrorBody{Error: "server at capacity, retry later"})
			return
		}
		s.inflight.Add(1)
		defer func() {
			s.inflight.Add(-1)
			<-s.sem
		}()

		resp, err := h(ctx, r)
		if err != nil {
			s.errors.Inc()
			writeError(w, err)
			return
		}
		// Stamp which artifact answered (single and batch: handlers note
		// the resolved model on the request info), so callers — the
		// fleet proxy, replay, rollout checks — can assert the serving
		// hash without a second /v1/model round-trip.
		if info := reqInfoFrom(ctx); info != nil && info.modelHash != "" {
			w.Header().Set("X-Model-Hash", info.modelHash)
		}
		obs.WriteJSON(w, http.StatusOK, resp)
	}
}

// readBody reads the (size-bounded) request body.
func (s *Server) readBody(r *http.Request) ([]byte, error) {
	body, err := obs.ReadBody(r, s.cfg.MaxBodyBytes)
	if err != nil {
		return nil, badRequest("reading request body: %v", err)
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		return nil, &httpError{status: http.StatusRequestEntityTooLarge,
			err: fmt.Errorf("request body exceeds %d bytes", s.cfg.MaxBodyBytes)}
	}
	if len(body) == 0 {
		return nil, badRequest("empty request body")
	}
	return body, nil
}

// answered is one resolved prediction: the served answer, whether
// memoized features produced it, and the shadow candidate's answer when
// one scored the same request — what feedback joins measured outcomes
// against.
type answered struct {
	pred   Prediction
	cached bool
	cand   Prediction
	candOK bool
}

// predictBody answers one MatrixMarket body against a resolved live
// model and its candidate: feature-memo lookup (keyed by body content
// alone), else parse and extract (through the caller's scratches), then
// predict and answer. Shared by the single-matrix endpoint and every
// batch item, so the two paths cannot drift.
//
// The memo holds features, never answers, so the live artifact decides
// every request: a hot-swap takes effect on the next request with no
// invalidation step. A full entry answers any request. A cheap-only
// entry answers only where the parse path would have answered from the
// cheap stage alone: the cascade clears its threshold on it and no
// shadow needs the full vector. Otherwise the body is parsed.
func (s *Server) predictBody(ctx context.Context, lm LiveModel, scratch *features.Scratch, ps *sparse.ParseScratch, body []byte) (answered, error) {
	memoKey := ""
	var memo featEntry
	if s.featMemo.Enabled() {
		sum := sha256.Sum256(body)
		memoKey = string(sum[:16])
		mctx, msp := obs.StartChild(ctx, "memo")
		var ok bool
		if memo, ok = s.featMemo.Get(memoKey); ok && (memo.full != nil || lm.Candidate == nil) {
			if pred, feats, err := lm.Artifact.predict(mctx, memo.cheap, memo.full, nil, nil); err == nil {
				msp.SetMetric("hit", 1)
				s.memoHits.Inc()
				ans := s.answer(mctx, lm, pred, feats.full)
				msp.End()
				ans.cached = true
				return ans, nil
			}
		}
		msp.SetMetric("hit", 0)
		msp.End()
		s.memoMisses.Inc()
	}
	_, psp := obs.StartChild(ctx, "parse")
	psp.SetMetric("bytes", float64(len(body)))
	m, err := sparse.ReadMatrixMarketBytesScratch(body, ps)
	psp.End()
	if err != nil {
		return answered{}, badRequest("parsing MatrixMarket body: %v", err)
	}
	pred, feats, err := lm.Artifact.predict(ctx, memo.cheap, nil, m, scratch)
	if err != nil {
		return answered{}, badRequest("%v", err)
	}
	if lm.Candidate != nil && feats.full == nil {
		// The candidate scores the full vector whichever stage answered,
		// so shadow agreement still compares whole models (shadowing
		// forfeits the cascade's win while it lasts).
		_, fsp := obs.StartChild(ctx, "features/full")
		feats = featEntry{full: scratch.Extract(m).Slice()}
		fsp.End()
	}
	if memoKey != "" {
		// Both vectors are fresh slices, so the memo keeps them as is; a
		// full vector upgrades a cheap-only entry.
		s.featMemo.Put(memoKey, feats)
	}
	return s.answer(ctx, lm, pred, feats.full), nil
}

// answer records one served prediction and is the only code that does:
// the cascade stage tally, the shadow candidate's score on the same full
// vector, the per-arch/format counter and the drift record. full is nil
// only when the cheap stage answered an unshadowed request; the drift
// monitor then advances only its predicted-format stream.
func (s *Server) answer(ctx context.Context, lm LiveModel, pred Prediction, full []float64) answered {
	if lm.Artifact.Cascade != nil {
		if pred.Stage == StageCheap {
			s.cascadeHits.Inc()
		} else {
			s.cascadeFalls.Inc()
		}
		s.cascadeConf.Observe(pred.Confidence)
	}
	ans := answered{pred: pred}
	if c := lm.Candidate; c != nil {
		// The candidate's answer feeds the backend's live-vs-candidate
		// tally and, through feedback, its measured-time score.
		_, ssp := obs.StartChild(ctx, "shadow")
		cp, err := c.Artifact.Predict(full)
		if err != nil {
			s.shadowErrors.Inc()
		} else {
			s.backend.RecordShadow(lm.Arch, pred, cp)
			ans.cand, ans.candOK = cp, true
		}
		ssp.End()
	}
	s.predictions.With(lm.Arch, pred.Format).Inc()
	if s.admin != nil {
		_, sp := obs.StartChild(ctx, "drift")
		s.admin.RecordServed(lm.Arch, pred, full)
		sp.End()
	}
	return ans
}

// Cascade confidences are probabilities; bucket the interesting top end
// where thresholds live.
var confidenceBuckets = []float64{0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1}

// CascadeStats reports the server's cascade tallies since start:
// cheap-stage answers, full-path fall-throughs, and the hit rate over
// computed predictions. Surfaced in /v1/admin/quality.
type CascadeStats struct {
	Hits         int64   `json:"hits"`
	Fallthroughs int64   `json:"fallthroughs"`
	HitRate      float64 `json:"hit_rate"`
}

func (s *Server) cascadeStats() CascadeStats {
	st := CascadeStats{
		Hits:         s.cascadeHits.Value(),
		Fallthroughs: s.cascadeFalls.Value(),
	}
	if n := st.Hits + st.Fallthroughs; n > 0 {
		st.HitRate = float64(st.Hits) / float64(n)
	}
	return st
}

// predictMatrix answers a MatrixMarket body, routed by ?arch=.
func (s *Server) predictMatrix(ctx context.Context, r *http.Request) (any, error) {
	lm, err := s.live(r.URL.Query().Get("arch"))
	if err != nil {
		return nil, err
	}
	noteModel(ctx, lm)
	body, err := s.readBody(r)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, &httpError{status: http.StatusServiceUnavailable, err: err}
	}
	var scratch features.Scratch
	ps := sparse.GetParseScratch()
	defer sparse.PutParseScratch(ps)
	ans, err := s.predictBody(ctx, lm, &scratch, ps, body)
	if err != nil {
		return nil, err
	}
	noteCached(ctx, ans.cached)
	s.notePending(ctx, "", lm, ans.pred, ans.cand, ans.candOK)
	s.captureRequest(ctx, "/v1/predict/matrix", lm, r.Header.Get("Content-Type"), body, []string{ans.pred.Format})
	return predictResponse{Prediction: ans.pred, Arch: lm.Arch, ModelHash: lm.Hash, Cached: ans.cached}, nil
}

// featuresRequest is the JSON body of /v1/predict/features.
type featuresRequest struct {
	Features []float64 `json:"features"`
	// Arch routes the request; empty selects the default (a ?arch=
	// query parameter also works and the body field wins).
	Arch string `json:"arch,omitempty"`
}

// predictFeatures answers a raw feature vector.
func (s *Server) predictFeatures(ctx context.Context, r *http.Request) (any, error) {
	body, err := s.readBody(r)
	if err != nil {
		return nil, err
	}
	var req featuresRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, badRequest("parsing JSON body: %v", err)
	}
	arch := req.Arch
	if arch == "" {
		arch = r.URL.Query().Get("arch")
	}
	lm, err := s.live(arch)
	if err != nil {
		return nil, err
	}
	noteModel(ctx, lm)
	if err := ctx.Err(); err != nil {
		return nil, &httpError{status: http.StatusServiceUnavailable, err: err}
	}
	pred, _, err := lm.Artifact.predict(ctx, nil, req.Features, nil, nil)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	ans := s.answer(ctx, lm, pred, req.Features)
	s.notePending(ctx, "", lm, ans.pred, ans.cand, ans.candOK)
	s.captureRequest(ctx, "/v1/predict/features", lm, r.Header.Get("Content-Type"), body, []string{pred.Format})
	return predictResponse{Prediction: pred, Arch: lm.Arch, ModelHash: lm.Hash}, nil
}

// Run serves on addr until ctx is cancelled (SIGTERM in the CLI), then
// shuts down gracefully through obs.RunServer, draining in-flight
// requests for up to 5 seconds. ready, when non-nil, receives the bound
// address once the listener is up — how callers learn the port of ":0".
func (s *Server) Run(ctx context.Context, addr string, ready func(bound string)) error {
	srv := &http.Server{Handler: s.Handler(), ReadTimeout: s.cfg.Timeout, WriteTimeout: s.cfg.Timeout}
	if err := obs.RunServer(ctx, addr, srv, ready); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// writeError renders err as its JSON error body, honouring an embedded
// httpError status.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		status = he.status
	}
	obs.WriteJSON(w, status, obs.ErrorBody{Error: err.Error()})
}
