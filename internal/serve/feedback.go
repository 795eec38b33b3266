package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/obs"
)

// Outcome feedback: the half of the quality loop the client drives.
// A caller that went on to run (or simulate) the SpMV kernels reports
// the measured per-format times — or just the realized time of the
// format it was told to use — keyed by the X-Request-ID its prediction
// answered under. The server joins the report against the prediction
// it remembers serving (a bounded consume-once table), computes the
// outcome (was the prediction the measured-fastest format, and how
// much slower than the oracle pick was it), and feeds the backend's
// quality windows — the online analogue of the paper's accuracy and
// slowdown-versus-oracle columns, measured on production traffic.

// maxFeedbackBody bounds a /v1/feedback body. A report carries one ID
// and at most a handful of format times; anything bigger is abuse.
const maxFeedbackBody = 4 << 10

// pendingFeedback is the consume-once table's capacity: how many recent
// predictions remain joinable against late-arriving feedback before the
// oldest fall out.
const pendingFeedback = 4096

// pendingPred is what the server remembers about one served
// prediction while it waits for feedback.
type pendingPred struct {
	arch      string
	modelHash string
	live      Prediction
	// formats is the artifact's label->format mapping, the universe a
	// full per-format sweep must cover.
	formats []string
	// cand is the shadow candidate's answer to the same request, when
	// one was registered.
	cand   Prediction
	candOK bool
}

// pendingStore is a bounded consume-once map: predictions register
// under their feedback key, feedback takes them out, and when the
// table is full the oldest un-consumed entry is evicted (its feedback,
// if it ever arrives, answers 404 like any unknown ID).
type pendingStore struct {
	mu   sync.Mutex
	m    map[string]pendingSlot
	ring []string // insertion order, for eviction
	head int
	n    int
}

// pendingSlot is one registered prediction and the ring position that
// owns its key. A key taken and registered again owns a newer position,
// so the older one must not evict it.
type pendingSlot struct {
	pred pendingPred
	pos  int
}

func newPendingStore(capacity int) *pendingStore {
	return &pendingStore{
		m:    make(map[string]pendingSlot, capacity),
		ring: make([]string, capacity),
	}
}

// put registers one served prediction. Re-registering a key (a client
// reusing a request ID) replaces the entry in place.
func (p *pendingStore) put(key string, v pendingPred) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, dup := p.m[key]; dup {
		p.m[key] = pendingSlot{pred: v, pos: e.pos}
		return
	}
	if p.n == len(p.ring) {
		if old := p.ring[p.head]; p.m[old].pos == p.head {
			delete(p.m, old)
		}
	} else {
		p.n++
	}
	p.ring[p.head] = key
	p.m[key] = pendingSlot{pred: v, pos: p.head}
	p.head = (p.head + 1) % len(p.ring)
}

// peek returns the entry without consuming it (validation must not
// burn the entry on a malformed report the client will retry).
func (p *pendingStore) peek(key string) (pendingPred, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.m[key]
	return e.pred, ok
}

// take consumes the entry. The ring keeps the dead key until eviction
// reaches it, and eviction only deletes a key its slot still owns.
func (p *pendingStore) take(key string) (pendingPred, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.m[key]
	delete(p.m, key)
	return e.pred, ok
}

// notePending remembers one served prediction under its feedback key
// so a later /v1/feedback can be joined against it. No-op unless the
// backend has an admin surface (feedback answers 501 without one).
func (s *Server) notePending(ctx context.Context, itemSuffix string, lm LiveModel, live Prediction, cand Prediction, candOK bool) {
	if s.pending == nil {
		return
	}
	trace := obs.TraceID(ctx)
	if trace == "" {
		return
	}
	s.pending.put(trace+itemSuffix, pendingPred{
		arch:      lm.Arch,
		modelHash: lm.Hash,
		live:      live,
		formats:   lm.Artifact.Formats,
		cand:      cand,
		candOK:    candOK,
	})
}

// feedbackRequest is the JSON body of POST /v1/feedback.
type feedbackRequest struct {
	// RequestID is the X-Request-ID the prediction answered under.
	RequestID string `json:"request_id"`
	// Item addresses one matrix of a /v1/predict/batch request by its
	// position. Absent for single-prediction requests.
	Item *int `json:"item,omitempty"`
	// TimesMs are measured per-format kernel times in milliseconds. A
	// sweep covering every format the model maps makes the outcome
	// "full" (it feeds accuracy, regret and the confusion matrix); a
	// partial map must at least cover the served format.
	TimesMs map[string]float64 `json:"times_ms,omitempty"`
	// ServedMs is the realized time of the served format, for clients
	// that only ran what they were told to run. TimesMs wins when it
	// covers the served format.
	ServedMs float64 `json:"served_ms,omitempty"`
}

// feedbackResponse acknowledges one accepted outcome.
type feedbackResponse struct {
	RequestID string `json:"request_id"`
	Arch      string `json:"arch"`
	ModelHash string `json:"model_hash"`
	// Predicted echoes the format the feedback was joined against.
	Predicted string `json:"predicted"`
	// Full, Best and Regret report the computed outcome when the sweep
	// covered every format.
	Full   bool    `json:"full"`
	Best   string  `json:"best,omitempty"`
	Regret float64 `json:"regret,omitempty"`
}

// handleFeedback is POST /v1/feedback.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if !obs.AllowMethod(w, r, http.MethodPost) {
		return
	}
	if s.admin == nil {
		s.feedbackRejected.Inc()
		obs.WriteJSON(w, http.StatusNotImplemented, errNoAdmin)
		return
	}
	resp, err := s.feedback(r)
	if err != nil {
		s.feedbackRejected.Inc()
		s.errors.Inc()
		writeError(w, err)
		return
	}
	s.feedbackAccepted.Inc()
	obs.WriteJSON(w, http.StatusOK, resp)
}

// feedback validates one report, joins it against the pending
// prediction, and feeds the outcome to the admin backend.
func (s *Server) feedback(r *http.Request) (*feedbackResponse, error) {
	body, err := obs.ReadBody(r, maxFeedbackBody)
	if err != nil {
		return nil, badRequest("reading feedback body: %v", err)
	}
	if len(body) > maxFeedbackBody {
		return nil, &httpError{status: http.StatusRequestEntityTooLarge,
			err: fmt.Errorf("feedback body exceeds %d bytes", maxFeedbackBody)}
	}
	var req feedbackRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, badRequest("parsing feedback JSON: %v", err)
	}
	if req.RequestID == "" {
		return nil, badRequest("feedback names no request_id")
	}
	if len(req.RequestID) > obs.MaxRequestIDLen {
		return nil, badRequest("request_id exceeds %d characters", obs.MaxRequestIDLen)
	}
	if req.Item != nil && *req.Item < 0 {
		return nil, badRequest("feedback item %d is negative", *req.Item)
	}
	for f, ms := range req.TimesMs {
		if !(ms > 0) || math.IsInf(ms, 1) { // catches 0, negatives, NaN, +Inf
			return nil, badRequest("times_ms[%s] = %v is not a positive finite time", f, ms)
		}
	}
	if req.ServedMs < 0 || math.IsNaN(req.ServedMs) || math.IsInf(req.ServedMs, 0) {
		return nil, badRequest("served_ms = %v is not a non-negative finite time", req.ServedMs)
	}

	key := req.RequestID
	if req.Item != nil {
		key += "#" + strconv.Itoa(*req.Item)
	}
	pp, ok := s.pending.peek(key)
	if !ok {
		return nil, &httpError{status: http.StatusNotFound,
			err: fmt.Errorf("no pending prediction for request ID %q (unknown, already reported, or evicted)", key)}
	}
	for f := range req.TimesMs {
		if !containsFormat(pp.formats, f) {
			return nil, badRequest("times_ms names format %q the %s model does not map (formats: %v)", f, pp.arch, pp.formats)
		}
	}
	servedMs, servedMeasured := req.TimesMs[pp.live.Format]
	if !servedMeasured {
		if req.ServedMs == 0 {
			return nil, badRequest("feedback covers neither the served format %q in times_ms nor served_ms", pp.live.Format)
		}
		servedMs = req.ServedMs
	}

	o := Outcome{
		Predicted:  pp.live,
		BestLabel:  -1,
		ServedMs:   servedMs,
		Full:       len(req.TimesMs) == len(pp.formats),
		BestFormat: "",
	}
	if o.Full {
		bestMs := math.Inf(1)
		for label, f := range pp.formats {
			if ms := req.TimesMs[f]; ms < bestMs {
				bestMs = ms
				o.BestLabel = label
				o.BestFormat = f
			}
		}
		o.Regret = servedMs / bestMs
	}
	if pp.candOK {
		o.HasCandidate = true
		o.Candidate = pp.cand
		o.CandidateMs = req.TimesMs[pp.cand.Format] // 0 when not measured
	}

	// Consume only after full validation, so a malformed report can be
	// corrected and retried. A concurrent duplicate losing this race
	// answers 404 like any consumed ID.
	if _, ok := s.pending.take(key); !ok {
		return nil, &httpError{status: http.StatusNotFound,
			err: fmt.Errorf("request ID %q was already reported", key)}
	}
	s.admin.RecordOutcome(pp.arch, o)

	return &feedbackResponse{
		RequestID: req.RequestID,
		Arch:      pp.arch,
		ModelHash: pp.modelHash,
		Predicted: pp.live.Format,
		Full:      o.Full,
		Best:      o.BestFormat,
		Regret:    o.Regret,
	}, nil
}

func containsFormat(formats []string, f string) bool {
	for _, g := range formats {
		if g == f {
			return true
		}
	}
	return false
}

// adminQuality is GET /v1/admin/quality: the measured-quality report,
// plus the server's cascade tallies.
func (s *Server) adminQuality(w http.ResponseWriter, r *http.Request) {
	report := s.admin.QualityReport()
	// Graft the cascade stats onto the backend's report without
	// changing its top-level shape — replay and the dashboards decode
	// the window_size/arches keys directly.
	raw, err := json.Marshal(report)
	if err != nil {
		obs.WriteJSON(w, http.StatusOK, report)
		return
	}
	var merged map[string]any
	if err := json.Unmarshal(raw, &merged); err != nil || merged == nil {
		obs.WriteJSON(w, http.StatusOK, report)
		return
	}
	merged["cascade"] = s.cascadeStats()
	obs.WriteJSON(w, http.StatusOK, merged)
}
