package registry

import (
	"math"
	"sync"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Drift monitoring: per-arch rolling windows of what the live model
// actually serves — predicted formats and a handful of key features —
// compared against the artifact's training baseline (serve.Baseline)
// with the Population Stability Index and a chi-square statistic. A
// model whose request stream no longer looks like its training corpus
// is drifting even when nothing errors; the drift report is the
// operator's early signal to retrain or to route traffic elsewhere.
//
// Every signal keeps its own ring so the format stream (advanced on
// every served answer) and the feature streams (advanced only when the
// full feature vector was computed or memoized; a cheap-stage cascade
// answer never computes it) never desynchronise.
//
// Scores land in the obs registry as labeled gauges, refreshed by every
// DriftReport call (the /metrics handler runs one per scrape):
//
//	registry/drift/psi{arch,signal}   gauge  PSI of the window vs the baseline
//	registry/drift/chi2{arch,signal}  gauge  chi-square statistic
//	registry/drift/alert{arch}        gauge  1 when any signal's PSI >= threshold
//	registry/drift/samples{arch}      gauge  format-window fill

// DriftOptions tunes the monitor. The zero value selects defaults.
type DriftOptions struct {
	// WindowSize is the per-signal rolling-window capacity (default 512
	// observations).
	WindowSize int
	// PSIAlert is the PSI at or above which a signal alerts (default
	// 0.2 — the conventional "significant shift, investigate" bar; 0.1
	// is the conventional "moderate" bar).
	PSIAlert float64
	// MinSamples is the minimum window fill before a signal may alert,
	// keeping near-empty windows from paging anyone (default 50).
	MinSamples int
}

func (o DriftOptions) withDefaults() DriftOptions {
	if o.WindowSize <= 0 {
		o.WindowSize = 512
	}
	if o.PSIAlert <= 0 {
		o.PSIAlert = 0.2
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 50
	}
	return o
}

// SetDriftOptions replaces the monitor tuning. Existing per-arch
// windows are rebuilt empty on the next baseline install; call it
// before LoadAll.
func (r *Registry) SetDriftOptions(o DriftOptions) {
	r.mu.Lock()
	r.driftOpts = o.withDefaults()
	r.mu.Unlock()
}

// ringCounts is a fixed-capacity rolling histogram: a ring of bucket
// indices plus running per-bucket counts, so adding evicts the oldest
// observation in O(1) and the window distribution is always current.
type ringCounts struct {
	ring   []int
	head   int
	filled int
	counts []int64
	total  int64
}

func newRingCounts(buckets, window int) *ringCounts {
	return &ringCounts{ring: make([]int, window), counts: make([]int64, buckets)}
}

func (c *ringCounts) add(bucket int) {
	if bucket < 0 || bucket >= len(c.counts) {
		return
	}
	if c.filled == len(c.ring) {
		c.counts[c.ring[c.head]]--
		c.total--
	} else {
		c.filled++
	}
	c.ring[c.head] = bucket
	c.head = (c.head + 1) % len(c.ring)
	c.counts[bucket]++
	c.total++
}

// driftState is one arch's monitor: the live artifact's baseline plus
// one rolling window per signal.
type driftState struct {
	mu       sync.Mutex
	baseline *serve.Baseline
	formats  *ringCounts
	feats    []*ringCounts // parallel to baseline.Features
}

// installDriftLocked (re)builds arch's drift state for a newly
// installed live artifact. Called under the registry write lock on
// every live swap — reload and promote — so the windows always describe
// traffic served by the current model. Artifacts without a baseline
// clear the state (the arch opts out).
func (r *Registry) installDriftLocked(arch string, art *serve.Artifact) {
	if art == nil || art.Baseline == nil {
		delete(r.drift, arch)
		return
	}
	opts := r.driftOpts.withDefaults()
	b := art.Baseline
	st := &driftState{
		baseline: b,
		formats:  newRingCounts(len(b.FormatCounts), opts.WindowSize),
	}
	for _, fb := range b.Features {
		st.feats = append(st.feats, newRingCounts(len(fb.Counts), opts.WindowSize))
	}
	r.drift[arch] = st
}

// RecordServed feeds one served prediction into arch's monitor
// (serve.DriftBackend). vec is nil when the cascade's cheap stage
// answered; only the format stream advances then.
func (r *Registry) RecordServed(arch string, p serve.Prediction, vec []float64) {
	a := serve.NormalizeArch(arch)
	r.mu.RLock()
	if a == "" {
		a = r.def
	}
	st := r.drift[a]
	r.mu.RUnlock()
	if st == nil {
		return
	}
	st.mu.Lock()
	st.formats.add(p.Label)
	if vec != nil {
		for i, fb := range st.baseline.Features {
			if fb.Index < len(vec) {
				st.feats[i].add(serve.BucketIndex(fb.Bounds, vec[fb.Index]))
			}
		}
	}
	st.mu.Unlock()
}

// psiChi2 scores an observed window against baseline counts. Both
// distributions are Laplace-smoothed ((n_i+0.5)/(N+0.5k)) so an empty
// bucket on either side cannot blow the logarithm up; chi2 compares
// observed counts against the expectation the baseline implies for the
// window size.
func psiChi2(baseline, observed []int64) (psi, chi2 float64) {
	k := len(baseline)
	if k == 0 || k != len(observed) {
		return 0, 0
	}
	var bn, on int64
	for i := 0; i < k; i++ {
		bn += baseline[i]
		on += observed[i]
	}
	if bn == 0 || on == 0 {
		return 0, 0
	}
	for i := 0; i < k; i++ {
		e := (float64(baseline[i]) + 0.5) / (float64(bn) + 0.5*float64(k))
		o := (float64(observed[i]) + 0.5) / (float64(on) + 0.5*float64(k))
		psi += (o - e) * math.Log(o/e)
		exp := e * float64(on)
		d := float64(observed[i]) - exp
		chi2 += d * d / exp
	}
	return psi, chi2
}

// DriftSignal is one scored signal of one arch.
type DriftSignal struct {
	// Signal is "format" or a tracked feature name ("nnz_mu", ...).
	Signal string `json:"signal"`
	// Samples is the rolling-window fill for this signal.
	Samples int64 `json:"samples"`
	// PSI is the Population Stability Index of the window against the
	// training baseline (rule of thumb: <0.1 stable, 0.1-0.2 moderate,
	// >=0.2 significant shift).
	PSI float64 `json:"psi"`
	// Chi2 is the chi-square statistic over the same buckets.
	Chi2 float64 `json:"chi2"`
	// Alert marks PSI >= the threshold with enough samples.
	Alert bool `json:"alert"`
}

// ArchDriftReport is one arch's drift state.
type ArchDriftReport struct {
	Arch string `json:"arch"`
	// ModelHash identifies the live artifact the baseline came from.
	ModelHash string `json:"model_hash,omitempty"`
	// Alert is true when any signal alerts.
	Alert   bool          `json:"alert"`
	Signals []DriftSignal `json:"signals"`
}

// DriftReportData is the full /v1/admin/drift answer.
type DriftReportData struct {
	WindowSize int `json:"window_size"`
	// PSIAlert and MinSamples echo the thresholds the alerts used.
	PSIAlert   float64           `json:"psi_alert"`
	MinSamples int               `json:"min_samples"`
	Arches     []ArchDriftReport `json:"arches"`
}

// Drift gauges share the obs registry with everything else.
var (
	driftPSI     = obs.Default.GaugeVec("registry/drift/psi", "arch", "signal")
	driftChi2    = obs.Default.GaugeVec("registry/drift/chi2", "arch", "signal")
	driftAlert   = obs.Default.GaugeVec("registry/drift/alert", "arch")
	driftSamples = obs.Default.GaugeVec("registry/drift/samples", "arch")
)

// DriftReport scores every monitored arch and refreshes the drift
// gauges (serve.DriftBackend; the /metrics handler calls it per
// scrape).
func (r *Registry) DriftReport() any {
	opts := r.driftOpts.withDefaults()
	report := DriftReportData{
		WindowSize: opts.WindowSize,
		PSIAlert:   opts.PSIAlert,
		MinSamples: opts.MinSamples,
		Arches:     []ArchDriftReport{},
	}

	r.mu.RLock()
	type archState struct {
		arch string
		hash string
		st   *driftState
	}
	states := make([]archState, 0, len(r.drift))
	for _, a := range r.archesLocked() {
		st := r.drift[a]
		if st == nil {
			continue
		}
		as := archState{arch: a, st: st}
		if ls := r.live[a]; ls != nil && ls.entry != nil {
			as.hash = ls.entry.Hash
		}
		states = append(states, as)
	}
	r.mu.RUnlock()

	for _, as := range states {
		ar := ArchDriftReport{Arch: as.arch, ModelHash: as.hash}
		as.st.mu.Lock()
		signals := make([]DriftSignal, 0, 1+len(as.st.baseline.Features))
		psi, chi2 := psiChi2(as.st.baseline.FormatCounts, as.st.formats.counts)
		signals = append(signals, DriftSignal{
			Signal: "format", Samples: as.st.formats.total, PSI: psi, Chi2: chi2,
			Alert: psi >= opts.PSIAlert && as.st.formats.total >= int64(opts.MinSamples),
		})
		for i, fb := range as.st.baseline.Features {
			w := as.st.feats[i]
			p, c := psiChi2(fb.Counts, w.counts)
			signals = append(signals, DriftSignal{
				Signal: fb.Name, Samples: w.total, PSI: p, Chi2: c,
				Alert: p >= opts.PSIAlert && w.total >= int64(opts.MinSamples),
			})
		}
		formatSamples := as.st.formats.total
		as.st.mu.Unlock()

		for _, sg := range signals {
			driftPSI.With(as.arch, sg.Signal).Set(sg.PSI)
			driftChi2.With(as.arch, sg.Signal).Set(sg.Chi2)
			ar.Alert = ar.Alert || sg.Alert
		}
		ar.Signals = signals
		alertVal := 0.0
		if ar.Alert {
			alertVal = 1
		}
		driftAlert.With(as.arch).Set(alertVal)
		driftSamples.With(as.arch).Set(float64(formatSamples))
		report.Arches = append(report.Arches, ar)
	}
	return report
}
