package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
)

// The Backend abstraction decouples the HTTP server from where its
// models come from. A single static artifact (the original `serve
// -model` deployment) and the multi-architecture registry
// (internal/registry, `serve -models`) both satisfy it; the registry
// additionally implements AdminBackend, which unlocks /v1/feedback and
// the /v1/admin/* model endpoints (reload, promote, shadow, drift,
// quality).

// Routing errors a Backend returns from Live. The server maps them to
// HTTP statuses: unknown arch -> 404, configured-but-unloaded -> 503.
var (
	// ErrUnknownArch means the request named an architecture the
	// backend does not host.
	ErrUnknownArch = errors.New("unknown architecture")
	// ErrNotLoaded means the architecture is configured but its
	// artifact has not (yet) loaded — expected during startup and
	// surfaced on /readyz.
	ErrNotLoaded = errors.New("model not loaded")
)

// LiveModel is one resolved model: the artifact plus the identity the
// server stamps on every response (resolved arch and content hash) and
// uses in cache keys, so answers stay attributable across hot-swaps.
type LiveModel struct {
	// Arch is the resolved (normalized) architecture key.
	Arch string
	// Hash identifies the artifact contents; it changes on every swap.
	Hash string
	// Source is where the artifact came from (a file path, or "memory").
	Source string
	// Artifact is the fitted pipeline itself.
	Artifact *Artifact
	// Candidate is the loaded shadow candidate for Arch, resolved in the
	// same lookup as the live model; nil when there is none. The server
	// scores it on every request the live model answers.
	Candidate *LiveModel
}

// ArchStatus is the per-architecture load state reported on /readyz and
// by registry status listings.
type ArchStatus struct {
	Arch       string `json:"arch"`
	Default    bool   `json:"default,omitempty"`
	Loaded     bool   `json:"loaded"`
	Hash       string `json:"hash,omitempty"`
	Source     string `json:"source,omitempty"`
	Error      string `json:"error,omitempty"`
	Shadow     bool   `json:"shadow,omitempty"`
	ShadowHash string `json:"shadow_hash,omitempty"`
}

// Backend is the model source behind a Server: it resolves request
// architectures to live artifacts and their shadow candidates, tallies
// live-vs-candidate comparisons, and reports readiness.
type Backend interface {
	// DefaultArch is the architecture serving requests that name none.
	DefaultArch() string
	// Live resolves arch ("" selects the default) to the model serving
	// it, with its candidate. Errors wrap ErrUnknownArch or ErrNotLoaded.
	Live(arch string) (LiveModel, error)
	// RecordShadow tallies one live-vs-candidate comparison for arch.
	RecordShadow(arch string, live, cand Prediction)
	// Ready returns nil once every configured artifact has loaded.
	Ready() error
	// Status lists the per-arch load state for /readyz.
	Status() []ArchStatus
}

// Outcome is one measured prediction outcome, assembled by the
// /v1/feedback handler from a client's reported kernel times and the
// prediction the server remembers serving under that request ID.
type Outcome struct {
	// Predicted is the answer the live model served.
	Predicted Prediction
	// BestLabel / BestFormat name the measured-fastest format when the
	// client reported a full per-format sweep (Full); -1 / "" otherwise.
	BestLabel  int
	BestFormat string
	// Regret is servedTime/bestTime (>= 1; 1 when the prediction was
	// the oracle pick). 0 when the sweep was not full.
	Regret float64
	// ServedMs is the measured time of the served format.
	ServedMs float64
	// Full marks a complete per-format sweep — only full outcomes feed
	// accuracy, regret and the confusion matrix; served-only outcomes
	// still count toward latency and volume.
	Full bool
	// HasCandidate marks requests a shadow candidate also answered;
	// Candidate is its prediction and CandidateMs its measured time
	// (0 when the client's sweep did not cover the candidate's format).
	HasCandidate bool
	Candidate    Prediction
	CandidateMs  float64
}

// AdminBackend is the optional surface of a backend that monitors and
// swaps its models, as the registry does. It receives every served
// prediction and feedback outcome, answers the drift, quality and
// shadow reports, and reloads, promotes and installs models. Without
// it, /v1/feedback and those /v1/admin/* endpoints answer 501.
type AdminBackend interface {
	// RecordServed feeds one served prediction into the drift monitor,
	// which compares rolling windows of served formats and features
	// with the live artifact's training baseline. vec is the full
	// feature vector, or nil when the cascade's cheap stage answered.
	RecordServed(arch string, p Prediction, vec []float64)
	// RecordOutcome feeds one measured outcome for arch into the
	// quality windows (top-1 accuracy, regret quantiles, a
	// predicted-vs-best confusion matrix) and, when a candidate also
	// answered, into the shadow report's measured tallies.
	RecordOutcome(arch string, o Outcome)
	// DriftReport, QualityReport and ShadowReport return the
	// JSON-serialisable reports; the first two also refresh their
	// gauges.
	DriftReport() any
	QualityReport() any
	ShadowReport() any
	// Reload re-reads every artifact from its source, swapping only the
	// ones whose content hash changed, and returns their names.
	Reload() (changed []string, err error)
	// Promote flips arch's shadow candidate to live and returns the new
	// live hash.
	Promote(arch string) (newHash string, err error)
	// InstallShadow accepts candidate artifact bytes over the wire (the
	// fleet rollout's push phase), so the candidate need not exist on
	// every replica's disk. The returned hash is the backend's own
	// content hash of what it received; the caller compares it with the
	// hash of what it sent to detect corruption.
	InstallShadow(arch string, data []byte) (hash string, err error)
}

// HashBytes is the content-hash identity used across the serving stack
// (artifact hashes, cache keys): a truncated hex SHA-256, short enough
// to read in transcripts, long enough that collisions are not a
// practical concern.
func HashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// ArtifactHash fingerprints an in-memory artifact via its serialized
// form, the identity a static backend stamps on responses.
func ArtifactHash(a *Artifact) (string, error) {
	h := sha256.New()
	if err := a.Save(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// NormalizeArch canonicalizes an architecture key: lower-cased,
// trimmed. Empty stays empty (the caller's "use the default" signal).
func NormalizeArch(arch string) string {
	return strings.ToLower(strings.TrimSpace(arch))
}

// staticBackend hosts exactly one artifact — the `serve -model FILE`
// deployment. It has no shadow slot and no admin surface.
type staticBackend struct {
	m LiveModel
}

// NewStaticBackend wraps a validated artifact as a single-arch Backend.
// The arch key is the artifact's recorded training architecture
// (normalized), or "default" when the artifact records none.
func NewStaticBackend(art *Artifact, source string) (Backend, error) {
	if err := art.Validate(); err != nil {
		return nil, err
	}
	hash, err := ArtifactHash(art)
	if err != nil {
		return nil, err
	}
	arch := NormalizeArch(art.Arch)
	if arch == "" {
		arch = "default"
	}
	if source == "" {
		source = "memory"
	}
	return &staticBackend{m: LiveModel{Arch: arch, Hash: hash, Source: source, Artifact: art}}, nil
}

func (b *staticBackend) DefaultArch() string { return b.m.Arch }

func (b *staticBackend) Live(arch string) (LiveModel, error) {
	a := NormalizeArch(arch)
	if a == "" || a == b.m.Arch {
		return b.m, nil
	}
	return LiveModel{}, fmt.Errorf("%w %q (this server hosts only %q)", ErrUnknownArch, arch, b.m.Arch)
}

func (b *staticBackend) RecordShadow(string, Prediction, Prediction) {}
func (b *staticBackend) Ready() error                                { return nil }

func (b *staticBackend) Status() []ArchStatus {
	return []ArchStatus{{
		Arch: b.m.Arch, Default: true, Loaded: true,
		Hash: b.m.Hash, Source: b.m.Source,
	}}
}
