package registry

import (
	"math"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Measured prediction quality: the registry's half of the feedback
// loop. The serve layer joins /v1/feedback reports (measured per-format
// kernel times) to the predictions it served and hands the registry one
// Outcome per report; the registry keeps a per-arch rolling window of
// them and derives the paper's quality metrics online — top-1 accuracy
// (was the served format the measured-fastest?), oracle-slowdown
// ("regret", servedTime/bestTime) quantiles and geometric mean, and a
// predicted-vs-best confusion matrix. Windows reset on every live swap
// or promotion, so the report always describes the model currently
// answering traffic.
//
// Scores land in the obs registry as labeled vectors, refreshed by
// every QualityReport call (the /metrics handler runs one per scrape):
//
//	registry/quality/outcomes{arch}                counter  feedback outcomes accepted
//	registry/quality/accuracy{arch}                gauge    window top-1 accuracy
//	registry/quality/regret{arch,quantile}         gauge    oracle-slowdown p50/p90/p99
//	registry/quality/samples{arch}                 gauge    full outcomes in the window
//	registry/quality/confusion{arch,predicted,best} gauge   window predicted-vs-best counts

// outcomeRec is one windowed outcome.
type outcomeRec struct {
	pred     int
	best     int // -1 when the sweep was not full
	regret   float64
	servedMs float64
	full     bool
}

// qualityState is one arch's rolling outcome window plus running
// tallies, so recording is O(1) and only the regret quantiles need a
// walk at report time.
type qualityState struct {
	mu      sync.Mutex
	formats []string
	ring    []outcomeRec
	head    int
	filled  int
	// Running window tallies, adjusted on eviction.
	fulls       int64
	hits        int64
	servedOnly  int64
	servedMsSum float64
	confusion   [numClasses * numClasses]int64
	// accepted counts every outcome since the window was installed
	// (not capped by the window).
	accepted int64
}

// add pushes one outcome, evicting the oldest when the window is full.
func (q *qualityState) add(rec outcomeRec) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.filled == len(q.ring) {
		q.evictLocked(q.ring[q.head])
	} else {
		q.filled++
	}
	q.ring[q.head] = rec
	q.head = (q.head + 1) % len(q.ring)
	q.accepted++
	q.servedMsSum += rec.servedMs
	if !rec.full {
		q.servedOnly++
		return
	}
	q.fulls++
	if rec.pred == rec.best {
		q.hits++
	}
	if rec.pred >= 0 && rec.pred < numClasses && rec.best >= 0 && rec.best < numClasses {
		q.confusion[rec.pred*numClasses+rec.best]++
	}
}

func (q *qualityState) evictLocked(old outcomeRec) {
	q.servedMsSum -= old.servedMs
	if !old.full {
		q.servedOnly--
		return
	}
	q.fulls--
	if old.pred == old.best {
		q.hits--
	}
	if old.pred >= 0 && old.pred < numClasses && old.best >= 0 && old.best < numClasses {
		q.confusion[old.pred*numClasses+old.best]--
	}
}

// newQualityState builds an empty window for a live artifact mapping
// formats. setLive calls it on every live swap, so the window only ever
// tallies outcomes of the model currently serving.
func newQualityState(formats []string) *qualityState {
	return &qualityState{formats: formats, ring: make([]outcomeRec, windowSize)}
}

// Quality metrics share the obs registry with everything else.
var (
	qualityOutcomes  = obs.Default.CounterVec("registry/quality/outcomes", "arch")
	qualityAccuracy  = obs.Default.GaugeVec("registry/quality/accuracy", "arch")
	qualityRegret    = obs.Default.GaugeVec("registry/quality/regret", "arch", "quantile")
	qualitySamples   = obs.Default.GaugeVec("registry/quality/samples", "arch")
	qualityConfusion = obs.Default.GaugeVec("registry/quality/confusion", "arch", "predicted", "best")
)

// RecordOutcome feeds one measured outcome into arch's quality window.
// Outcomes carrying a shadow candidate's measured time also advance the
// shadow report's measured tallies, so promote decisions can weigh
// measured quality, not just agreement. Feedback arriving after a swap
// lands in the new window — it describes traffic the operator still
// considers this arch's.
func (r *Registry) RecordOutcome(arch string, o serve.Outcome) {
	st, _ := r.current(arch)
	q := st.quality
	if q == nil {
		return
	}
	q.add(outcomeRec{
		pred:     o.Predicted.Label,
		best:     o.BestLabel,
		regret:   o.Regret,
		servedMs: o.ServedMs,
		full:     o.Full,
	})
	qualityOutcomes.With(st.arch).Inc()
	if o.HasCandidate && st.stats != nil {
		st.stats.recordMeasured(o)
	}
}

// ArchQualityReport is one arch's measured-quality state.
type ArchQualityReport struct {
	Arch string `json:"arch"`
	// ModelHash identifies the live artifact the window describes.
	ModelHash string `json:"model_hash,omitempty"`
	// Accepted counts every outcome since the window was installed;
	// Samples (full sweeps) + ServedOnly is what the window holds now.
	Accepted   int64 `json:"accepted"`
	Samples    int64 `json:"samples"`
	ServedOnly int64 `json:"served_only"`
	// Accuracy is the window's top-1 rate: served format == measured
	// best (full outcomes only).
	Accuracy float64 `json:"accuracy"`
	// Regret quantiles and geometric mean over the window's full
	// outcomes: servedTime/bestTime, >= 1, 1 = the oracle pick.
	RegretP50 float64 `json:"regret_p50"`
	RegretP90 float64 `json:"regret_p90"`
	RegretP99 float64 `json:"regret_p99"`
	RegretGM  float64 `json:"regret_gm"`
	// MeanServedMs averages the measured served-format time over every
	// windowed outcome (full or not).
	MeanServedMs float64 `json:"mean_served_ms"`
	// Formats names the confusion grid axes; Confusion[i][j] counts
	// full outcomes predicted Formats[i] whose measured best was
	// Formats[j].
	Formats   []string  `json:"formats"`
	Confusion [][]int64 `json:"confusion"`
}

// QualityReportData is the full /v1/admin/quality answer.
type QualityReportData struct {
	WindowSize int                 `json:"window_size"`
	Arches     []ArchQualityReport `json:"arches"`
}

// QualityReport snapshots every arch's quality window and refreshes
// the quality gauges (the /metrics handler calls it per scrape).
func (r *Registry) QualityReport() any {
	report := QualityReportData{WindowSize: windowSize, Arches: []ArchQualityReport{}}
	_, arches := r.snapshot()
	for _, as := range arches {
		if as.quality == nil {
			continue
		}
		ar := as.quality.report(as.arch, as.live.hash())
		qualityAccuracy.With(as.arch).Set(ar.Accuracy)
		qualityRegret.With(as.arch, "p50").Set(ar.RegretP50)
		qualityRegret.With(as.arch, "p90").Set(ar.RegretP90)
		qualityRegret.With(as.arch, "p99").Set(ar.RegretP99)
		qualitySamples.With(as.arch).Set(float64(ar.Samples))
		for i, f := range ar.Formats {
			for j, g := range ar.Formats {
				qualityConfusion.With(as.arch, f, g).Set(float64(ar.Confusion[i][j]))
			}
		}
		report.Arches = append(report.Arches, ar)
	}
	return report
}

// report snapshots one window.
func (q *qualityState) report(arch, hash string) ArchQualityReport {
	q.mu.Lock()
	defer q.mu.Unlock()
	ar := ArchQualityReport{
		Arch:       arch,
		ModelHash:  hash,
		Accepted:   q.accepted,
		Samples:    q.fulls,
		ServedOnly: q.servedOnly,
		Formats:    q.formats,
	}
	if q.fulls > 0 {
		ar.Accuracy = float64(q.hits) / float64(q.fulls)
	}
	if n := q.fulls + q.servedOnly; n > 0 {
		ar.MeanServedMs = q.servedMsSum / float64(n)
	}
	// Walk the window once for the full outcomes' regrets (<= window
	// size floats; sorting them per report is cheap next to a scrape).
	regrets := make([]float64, 0, q.fulls)
	var logSum float64
	for k := 0; k < q.filled; k++ {
		rec := q.ring[(q.head-1-k+2*len(q.ring))%len(q.ring)]
		if rec.full && rec.regret > 0 {
			regrets = append(regrets, rec.regret)
			logSum += math.Log(rec.regret)
		}
	}
	if len(regrets) > 0 {
		sort.Float64s(regrets)
		// Ceil-rank quantiles: on a small window p99 must surface the
		// worst observed regret, not truncate down to the median.
		at := func(p float64) float64 {
			i := int(math.Ceil(p*float64(len(regrets)))) - 1
			if i < 0 {
				i = 0
			}
			return regrets[i]
		}
		ar.RegretP50 = at(0.50)
		ar.RegretP90 = at(0.90)
		ar.RegretP99 = at(0.99)
		ar.RegretGM = math.Exp(logSum / float64(len(regrets)))
	}
	grid := make([][]int64, numClasses)
	for i := range grid {
		grid[i] = make([]int64, numClasses)
		for j := range grid[i] {
			grid[i][j] = q.confusion[i*numClasses+j]
		}
	}
	ar.Confusion = grid
	return ar
}
