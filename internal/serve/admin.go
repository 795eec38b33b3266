package serve

import (
	"crypto/sha256"
	"crypto/subtle"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// The /v1/admin/* surface: reload, promote, shadow report. Admin
// requests mutate which model answers traffic, so they refuse
// unauthenticated callers by default — the server must be started with
// an admin token, and every request must present it as a bearer token.
// Comparison is constant-time over SHA-256 digests, so neither token
// length nor a matching prefix leaks through timing.

// authorized reports whether r carries the configured admin token. An
// empty configured token authorizes nothing.
func (s *Server) authorized(r *http.Request) bool {
	if s.cfg.AdminToken == "" {
		return false
	}
	got := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
	a := sha256.Sum256([]byte(got))
	b := sha256.Sum256([]byte(s.cfg.AdminToken))
	return subtle.ConstantTimeCompare(a[:], b[:]) == 1
}

// adminEndpoint wraps an admin handler with the method check, the
// token gate and the admin metrics. needBackend marks handlers that
// mutate or read the AdminBackend (reload, promote, shadow) — they
// answer 501 on a static server; read-only telemetry endpoints (SLO,
// drift) work on any backend and pass false.
func (s *Server) adminEndpoint(method string, needBackend bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.adminReqs.Inc()
		if r.Method != method {
			w.Header().Set("Allow", method)
			writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use " + method})
			return
		}
		if !s.authorized(r) {
			s.adminDenied.Inc()
			w.Header().Set("WWW-Authenticate", `Bearer realm="spmvselect admin"`)
			msg := "invalid admin token"
			if s.cfg.AdminToken == "" {
				msg = "admin API disabled: start the server with -admin-token"
			}
			writeJSON(w, http.StatusUnauthorized, errorResponse{Error: msg})
			return
		}
		if needBackend && s.admin == nil {
			writeJSON(w, http.StatusNotImplemented,
				errorResponse{Error: "this server hosts a static model; admin operations need the registry (-models)"})
			return
		}
		h(w, r)
	}
}

// reloadResponse is the /v1/admin/reload answer.
type reloadResponse struct {
	// Changed lists the hot-swapped entries ("arch", or "shadow:arch"
	// for candidates); empty when every artifact's content hash was
	// unchanged — reloads are idempotent.
	Changed []string `json:"changed"`
	Error   string   `json:"error,omitempty"`
}

// adminReload re-reads every artifact from disk, swapping only the
// changed ones.
func (s *Server) adminReload(w http.ResponseWriter, r *http.Request) {
	changed, err := s.admin.Reload()
	if changed == nil {
		changed = []string{}
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, reloadResponse{Changed: changed, Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, reloadResponse{Changed: changed})
}

// promoteResponse is the /v1/admin/promote answer.
type promoteResponse struct {
	Arch string `json:"arch"`
	// Hash is the new live artifact hash (the former shadow candidate).
	Hash string `json:"hash"`
}

// adminPromote flips ?arch='s shadow candidate to live (default arch
// when absent).
func (s *Server) adminPromote(w http.ResponseWriter, r *http.Request) {
	arch := r.URL.Query().Get("arch")
	if arch == "" {
		arch = s.backend.DefaultArch()
	}
	hash, err := s.admin.Promote(arch)
	if err != nil {
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, promoteResponse{Arch: NormalizeArch(arch), Hash: hash})
}

// adminShadow returns the shadow evaluation report.
func (s *Server) adminShadow(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.admin.ShadowReport())
}

// shadowInstallResponse is the /v1/admin/shadow/install answer.
type shadowInstallResponse struct {
	Arch string `json:"arch"`
	// Hash is the replica's own content hash of the received bytes;
	// rollout controllers compare it to what they sent.
	Hash string `json:"hash"`
}

// adminShadowInstall accepts a candidate artifact's raw bytes and
// installs it as ?arch='s shadow (default arch when absent) — the push
// phase of a fleet rollout, for replicas that do not share a
// filesystem with the controller. Scoring starts immediately;
// promotion stays a separate, explicit step.
func (s *Server) adminShadowInstall(w http.ResponseWriter, r *http.Request) {
	if s.installer == nil {
		writeJSON(w, http.StatusNotImplemented,
			errorResponse{Error: "this server cannot accept pushed candidates; serve from the registry (-models)"})
		return
	}
	data, err := s.readBody(r)
	if err != nil {
		writeError(w, err)
		return
	}
	arch := r.URL.Query().Get("arch")
	if arch == "" {
		arch = s.backend.DefaultArch()
	}
	hash, err := s.installer.InstallShadow(arch, data)
	if err != nil {
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, shadowInstallResponse{Arch: NormalizeArch(arch), Hash: hash})
}

// traceListResponse is the /v1/admin/trace list answer.
type traceListResponse struct {
	Count  int                `json:"count"`
	Traces []obs.TraceSummary `json:"traces"`
}

// adminTraceList returns summaries of every retained trace, newest
// first. 501 when the server was started with tracing disabled
// (-trace -1).
func (s *Server) adminTraceList(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		writeJSON(w, http.StatusNotImplemented,
			errorResponse{Error: "tracing disabled on this server (-trace -1)"})
		return
	}
	list := s.traces.List()
	if list == nil {
		list = []obs.TraceSummary{}
	}
	writeJSON(w, http.StatusOK, traceListResponse{Count: len(list), Traces: list})
}

// adminTraceGet returns one retained trace — the full span tree — by
// trace ID (the request's X-Request-ID). /v1/admin/trace/<id>.
func (s *Server) adminTraceGet(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		writeJSON(w, http.StatusNotImplemented,
			errorResponse{Error: "tracing disabled on this server (-trace -1)"})
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/admin/trace/")
	if id == "" {
		s.adminTraceList(w, r)
		return
	}
	e := s.traces.Get(id)
	if e == nil {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: "no retained trace with ID " + id + " (evicted, sampled out, or never seen)"})
		return
	}
	writeJSON(w, http.StatusOK, e)
}

// adminSLO returns the rolling-window SLO report (latency quantiles,
// availability and burn rate over 1m/5m/1h).
func (s *Server) adminSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.slo.Report())
}

// adminDrift returns the served-prediction drift report. 501 when the
// backend has no drift monitor (static servers, artifacts trained
// before baselines existed).
func (s *Server) adminDrift(w http.ResponseWriter, r *http.Request) {
	if s.drift == nil {
		writeJSON(w, http.StatusNotImplemented,
			errorResponse{Error: "this backend has no drift monitor; serve from the registry (-models)"})
		return
	}
	writeJSON(w, http.StatusOK, s.drift.DriftReport())
}
