package serve

import (
	"net/http"

	"repro/internal/obs"
)

// The /v1/admin/* surface: reload, promote, shadow, drift and quality
// reports. Admin requests mutate which model answers traffic, so they
// refuse unauthenticated callers by default — the server must be
// started with an admin token, and every request must present it as a
// bearer token (obs.CheckBearer).

// errNoAdmin is the 501 answer of every endpoint that needs an
// AdminBackend, on a server without one.
var errNoAdmin = obs.ErrorBody{Error: "this server hosts a static model; feedback and admin operations need the registry (-models)"}

// adminEndpoint wraps an admin handler with the method check, the
// token gate and the admin metrics. needBackend marks handlers that
// mutate or read the AdminBackend — they answer 501 on a static
// server; the SLO and trace endpoints work on any backend and pass
// false.
func (s *Server) adminEndpoint(method string, needBackend bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.adminReqs.Inc()
		if !obs.AllowMethod(w, r, method) {
			return
		}
		if !obs.CheckBearer(w, r, s.cfg.AdminToken, "spmvselect admin") {
			s.adminDenied.Inc()
			return
		}
		if needBackend && s.admin == nil {
			obs.WriteJSON(w, http.StatusNotImplemented, errNoAdmin)
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
		obs.WriteJSON(w, http.StatusInternalServerError, reloadResponse{Changed: changed, Error: err.Error()})
		return
	}
	obs.WriteJSON(w, http.StatusOK, reloadResponse{Changed: changed})
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
		obs.WriteJSON(w, http.StatusConflict, obs.ErrorBody{Error: err.Error()})
		return
	}
	obs.WriteJSON(w, http.StatusOK, promoteResponse{Arch: NormalizeArch(arch), Hash: hash})
}

// adminShadow returns the shadow evaluation report.
func (s *Server) adminShadow(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, s.admin.ShadowReport())
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
	data, err := s.readBody(r)
	if err != nil {
		writeError(w, err)
		return
	}
	arch := r.URL.Query().Get("arch")
	if arch == "" {
		arch = s.backend.DefaultArch()
	}
	hash, err := s.admin.InstallShadow(arch, data)
	if err != nil {
		obs.WriteJSON(w, http.StatusConflict, obs.ErrorBody{Error: err.Error()})
		return
	}
	obs.WriteJSON(w, http.StatusOK, shadowInstallResponse{Arch: NormalizeArch(arch), Hash: hash})
}

// adminSLO returns the rolling-window SLO report (latency quantiles,
// availability and burn rate over 1m/5m/1h).
func (s *Server) adminSLO(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, s.slo.Report())
}

// adminDrift returns the served-prediction drift report.
func (s *Server) adminDrift(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, s.admin.DriftReport())
}
