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

// The monitors' fixed settings. Every rolling window — each drift
// signal's and each arch's quality window — holds the last windowSize
// observations. A drift signal alerts at a PSI of psiAlert or more (the
// conventional "significant shift, investigate" bar; 0.1 is the
// conventional "moderate" one), once its window holds minSamples
// observations, so near-empty windows page no one.
const (
	windowSize = 512
	psiAlert   = 0.2
	minSamples = 50
)

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

// newDriftState builds empty windows against the live artifact's
// training baseline b; nil without one (the arch opts out). setLive
// calls it on every live swap, so the windows always describe traffic
// served by the current model.
func newDriftState(b *serve.Baseline) *driftState {
	if b == nil {
		return nil
	}
	st := &driftState{baseline: b, formats: newRingCounts(len(b.FormatCounts), windowSize)}
	for _, fb := range b.Features {
		st.feats = append(st.feats, newRingCounts(len(fb.Counts), windowSize))
	}
	return st
}

// RecordServed feeds one served prediction into arch's monitor. vec is
// nil when the cascade's cheap stage answered; only the format stream
// advances then.
func (r *Registry) RecordServed(arch string, p serve.Prediction, vec []float64) {
	as, _ := r.current(arch)
	st := as.drift
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
// gauges (the /metrics handler calls it per scrape).
func (r *Registry) DriftReport() any {
	report := DriftReportData{
		WindowSize: windowSize,
		PSIAlert:   psiAlert,
		MinSamples: minSamples,
		Arches:     []ArchDriftReport{},
	}
	_, arches := r.snapshot()
	for _, as := range arches {
		st := as.drift
		if st == nil {
			continue
		}
		ar := ArchDriftReport{Arch: as.arch, ModelHash: as.live.hash()}
		st.mu.Lock()
		signals := make([]DriftSignal, 0, 1+len(st.baseline.Features))
		psi, chi2 := psiChi2(st.baseline.FormatCounts, st.formats.counts)
		signals = append(signals, DriftSignal{
			Signal: "format", Samples: st.formats.total, PSI: psi, Chi2: chi2,
			Alert: psi >= psiAlert && st.formats.total >= minSamples,
		})
		for i, fb := range st.baseline.Features {
			w := st.feats[i]
			p, c := psiChi2(fb.Counts, w.counts)
			signals = append(signals, DriftSignal{
				Signal: fb.Name, Samples: w.total, PSI: p, Chi2: c,
				Alert: p >= psiAlert && w.total >= minSamples,
			})
		}
		formatSamples := st.formats.total
		st.mu.Unlock()

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
