package registry

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// Shadow evaluation: while a candidate artifact is registered next to
// the live one, every request the live model answers is also scored by
// the candidate, and the registry tallies agreement atomically — no
// lock on the request path. The resulting report (agreement rate plus
// a live-label x candidate-label confusion matrix) is the evidence an
// operator promotes on: it is the production analogue of the paper's
// cross-architecture transfer experiments, measured on real traffic
// instead of a held-out fold.

// numClasses is the confusion-grid dimension. Every artifact this
// repository trains maps labels onto the same four kernel formats, so
// a fixed grid keeps the tallies allocation-free and atomic.
const numClasses = sparse.NumKernelFormats

// ShadowStats accumulates live-vs-candidate comparisons for one arch.
type ShadowStats struct {
	scored   atomic.Int64
	agree    atomic.Int64
	disagree atomic.Int64
	// confusion[live*numClasses+cand] counts comparisons where the live
	// model answered label `live` and the candidate label `cand`.
	confusion [numClasses * numClasses]atomic.Int64
	// outOfRange counts comparisons whose labels fell outside the grid
	// (a foreign artifact with more formats); they still count as
	// scored and agree/disagree.
	outOfRange atomic.Int64

	// Measured tallies, fed by /v1/feedback outcomes that cover both
	// sides' formats: how the pair compares on real kernel times, not
	// just label agreement. Guarded by a mutex — feedback volume is a
	// trickle next to the prediction path.
	measuredMu sync.Mutex
	measured   int64 // outcomes where both sides' formats were timed
	liveWins   int64
	candWins   int64
	ties       int64
	// Log-regret sums over full sweeps, for geometric means: how much
	// slower than the measured-best format each side's pick was.
	liveLogRegret  float64
	candLogRegret  float64
	regretMeasured int64
}

// recordMeasured tallies one feedback outcome against the pair. Only
// outcomes timing both the live and candidate picks compare them; full
// sweeps additionally feed the per-side regret geometric means.
func (s *ShadowStats) recordMeasured(o serve.Outcome) {
	if !(o.ServedMs > 0) || !(o.CandidateMs > 0) {
		return
	}
	s.measuredMu.Lock()
	defer s.measuredMu.Unlock()
	s.measured++
	switch {
	case o.CandidateMs < o.ServedMs:
		s.candWins++
	case o.CandidateMs > o.ServedMs:
		s.liveWins++
	default:
		s.ties++
	}
	if o.Full && o.Regret > 0 {
		// bestMs is recoverable from the live side's regret; the
		// candidate's regret is its own time over the same best.
		bestMs := o.ServedMs / o.Regret
		s.liveLogRegret += math.Log(o.Regret)
		s.candLogRegret += math.Log(o.CandidateMs / bestMs)
		s.regretMeasured++
	}
}

// record tallies one comparison.
func (s *ShadowStats) record(live, cand serve.Prediction) {
	s.scored.Add(1)
	if live.Label == cand.Label {
		s.agree.Add(1)
	} else {
		s.disagree.Add(1)
	}
	if live.Label >= 0 && live.Label < numClasses && cand.Label >= 0 && cand.Label < numClasses {
		s.confusion[live.Label*numClasses+cand.Label].Add(1)
	} else {
		s.outOfRange.Add(1)
	}
}

// Shadow metrics share the obs registry with everything else.
var (
	shadowScored   = obs.Default.Counter("registry/shadow/scored")
	shadowAgree    = obs.Default.Counter("registry/shadow/agree")
	shadowDisagree = obs.Default.Counter("registry/shadow/disagree")
)

// RecordShadow tallies one live-vs-candidate comparison for arch. A
// comparison racing a swap of either side lands in the replaced
// tallies, or nowhere once the candidate is gone: the pair it describes
// no longer exists.
func (r *Registry) RecordShadow(arch string, live, cand serve.Prediction) {
	st, _ := r.current(arch)
	if st.stats == nil {
		return
	}
	st.stats.record(live, cand)
	shadowScored.Inc()
	if live.Label == cand.Label {
		shadowAgree.Inc()
	} else {
		shadowDisagree.Inc()
	}
}

// ArchShadowReport is the evaluation state of one live/candidate pair.
type ArchShadowReport struct {
	Arch          string `json:"arch"`
	LiveHash      string `json:"live_hash,omitempty"`
	CandidateHash string `json:"candidate_hash,omitempty"`
	CandidatePath string `json:"candidate_path"`
	// Scored = Agree + Disagree: every request scored by both models.
	Scored   int64 `json:"scored"`
	Agree    int64 `json:"agree"`
	Disagree int64 `json:"disagree"`
	// AgreementRate is Agree/Scored (0 when nothing scored yet).
	AgreementRate float64 `json:"agreement_rate"`
	// Formats names the confusion grid axes; Confusion[i][j] counts
	// requests the live model labelled Formats[i] and the candidate
	// Formats[j]. OutOfRange counts comparisons outside the grid.
	Formats    []string  `json:"formats"`
	Confusion  [][]int64 `json:"confusion"`
	OutOfRange int64     `json:"out_of_range,omitempty"`
	// Measured quality, from /v1/feedback outcomes that timed both
	// sides' picks: head-to-head wins and (over full sweeps) each
	// side's oracle-slowdown geometric mean. The evidence to promote
	// on when agreement alone is ambiguous.
	MeasuredScored    int64   `json:"measured_scored,omitempty"`
	LiveWins          int64   `json:"live_wins,omitempty"`
	CandidateWins     int64   `json:"candidate_wins,omitempty"`
	Ties              int64   `json:"ties,omitempty"`
	LiveRegretGM      float64 `json:"live_regret_gm,omitempty"`
	CandidateRegretGM float64 `json:"candidate_regret_gm,omitempty"`
}

// ShadowReportData is the full /v1/admin/shadow answer.
type ShadowReportData struct {
	Arches []ArchShadowReport `json:"arches"`
	// Scored and Disagree aggregate over every pair.
	Scored   int64 `json:"scored"`
	Disagree int64 `json:"disagree"`
}

// ShadowReport snapshots every registered live/candidate pair.
func (r *Registry) ShadowReport() any {
	report := ShadowReportData{Arches: []ArchShadowReport{}}
	_, arches := r.snapshot()
	for _, s := range arches {
		st := s.stats
		if st == nil {
			continue
		}
		ar := ArchShadowReport{
			Arch:          s.arch,
			LiveHash:      s.live.hash(),
			CandidateHash: s.cand.hash(),
			CandidatePath: s.cand.path,
			Scored:        st.scored.Load(),
			Agree:         st.agree.Load(),
			Disagree:      st.disagree.Load(),
			OutOfRange:    st.outOfRange.Load(),
			Formats:       serve.KernelFormatNames(),
		}
		if ar.Scored > 0 {
			ar.AgreementRate = float64(ar.Agree) / float64(ar.Scored)
		}
		st.measuredMu.Lock()
		ar.MeasuredScored = st.measured
		ar.LiveWins = st.liveWins
		ar.CandidateWins = st.candWins
		ar.Ties = st.ties
		if st.regretMeasured > 0 {
			n := float64(st.regretMeasured)
			ar.LiveRegretGM = math.Exp(st.liveLogRegret / n)
			ar.CandidateRegretGM = math.Exp(st.candLogRegret / n)
		}
		st.measuredMu.Unlock()
		grid := make([][]int64, numClasses)
		for i := range grid {
			grid[i] = make([]int64, numClasses)
			for j := range grid[i] {
				grid[i][j] = st.confusion[i*numClasses+j].Load()
			}
		}
		ar.Confusion = grid
		report.Arches = append(report.Arches, ar)
		report.Scored += ar.Scored
		report.Disagree += ar.Disagree
	}
	return report
}
