package registry

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/serve"
)

// loadedRegistry builds a one-arch registry with a live artifact, the
// precondition for a quality window to exist.
func loadedRegistry(t *testing.T) *Registry {
	t.Helper()
	dir := t.TempDir()
	path := saveArtifact(t, dir, "live.gob", 8, 1)
	r := New()
	if err := r.Configure("turing", path); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}
	return r
}

// fullOutcome builds a full-sweep outcome: predicted label pred,
// measured best label best, with the served format regret x slower
// than the best.
func fullOutcome(pred, best int, regret float64) serve.Outcome {
	return serve.Outcome{
		Predicted:  serve.Prediction{Label: pred, Format: serve.KernelFormatNames()[pred]},
		BestLabel:  best,
		BestFormat: serve.KernelFormatNames()[best],
		Regret:     regret,
		ServedMs:   regret, // bestMs = 1
		Full:       true,
	}
}

func TestQualityWindowAccuracyRegretConfusion(t *testing.T) {
	r := loadedRegistry(t)

	// Three hits at the oracle pick, one miss 2x slower, one
	// served-only outcome.
	for i := 0; i < 3; i++ {
		r.RecordOutcome("turing", fullOutcome(1, 1, 1.0))
	}
	r.RecordOutcome("turing", fullOutcome(2, 1, 2.0))
	r.RecordOutcome("turing", serve.Outcome{
		Predicted: serve.Prediction{Label: 1, Format: "CSR"},
		BestLabel: -1, ServedMs: 5,
	})

	report := r.QualityReport().(QualityReportData)
	if report.WindowSize != 512 {
		t.Errorf("window size = %d, want 512", report.WindowSize)
	}
	if len(report.Arches) != 1 {
		t.Fatalf("report arches = %d, want 1", len(report.Arches))
	}
	ar := report.Arches[0]
	if ar.Arch != "turing" || ar.ModelHash == "" {
		t.Fatalf("report identity = %s/%s", ar.Arch, ar.ModelHash)
	}
	if ar.Accepted != 5 || ar.Samples != 4 || ar.ServedOnly != 1 {
		t.Fatalf("counts = accepted %d samples %d servedOnly %d", ar.Accepted, ar.Samples, ar.ServedOnly)
	}
	if ar.Accuracy != 0.75 {
		t.Fatalf("accuracy = %v, want 0.75", ar.Accuracy)
	}
	if ar.RegretP50 != 1.0 || ar.RegretP99 != 2.0 {
		t.Fatalf("regret p50 %v p99 %v, want 1.0 / 2.0", ar.RegretP50, ar.RegretP99)
	}
	wantGM := math.Exp(math.Log(2.0) / 4)
	if math.Abs(ar.RegretGM-wantGM) > 1e-12 {
		t.Fatalf("regret GM = %v, want %v", ar.RegretGM, wantGM)
	}
	if ar.Confusion[1][1] != 3 || ar.Confusion[2][1] != 1 {
		t.Fatalf("confusion = %v", ar.Confusion)
	}
	wantMean := (1.0 + 1.0 + 1.0 + 2.0 + 5.0) / 5
	if math.Abs(ar.MeanServedMs-wantMean) > 1e-12 {
		t.Fatalf("mean served = %v, want %v", ar.MeanServedMs, wantMean)
	}

	// Unknown arches drop silently; the default arch absorbs "".
	r.RecordOutcome("volta", fullOutcome(0, 0, 1.0))
	r.RecordOutcome("", fullOutcome(0, 0, 1.0))
	ar = r.QualityReport().(QualityReportData).Arches[0]
	if ar.Accepted != 6 {
		t.Fatalf("accepted after default-arch outcome = %d, want 6", ar.Accepted)
	}
}

func TestQualityWindowEvictionAndSwapReset(t *testing.T) {
	r := loadedRegistry(t)
	// A promotion installs a fresh window.
	r.RecordOutcome("turing", fullOutcome(0, 1, 3.0))
	dir := t.TempDir()
	cand := saveArtifact(t, dir, "cand.gob", 6, 2)
	if err := r.ConfigureShadow("turing", cand); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Promote("turing"); err != nil {
		t.Fatal(err)
	}
	if ar := r.QualityReport().(QualityReportData).Arches[0]; ar.Accepted != 0 {
		t.Fatalf("window survived a promotion: %+v", ar)
	}

	// Fill past the window: two misses, then a full window of hits.
	// The misses evict, leaving only hits → accuracy 1.0.
	for i := 0; i < 2; i++ {
		r.RecordOutcome("turing", fullOutcome(0, 1, 3.0))
	}
	for i := 0; i < windowSize; i++ {
		r.RecordOutcome("turing", fullOutcome(1, 1, 1.0))
	}
	ar := r.QualityReport().(QualityReportData).Arches[0]
	if ar.Samples != windowSize || ar.Accuracy != 1.0 {
		t.Fatalf("windowed samples %d accuracy %v, want %d / 1.0", ar.Samples, ar.Accuracy, windowSize)
	}
	if ar.Accepted != windowSize+2 {
		t.Fatalf("accepted = %d, want %d (eviction must not shrink the cumulative count)", ar.Accepted, windowSize+2)
	}
	if ar.Confusion[0][1] != 0 {
		t.Fatalf("evicted outcomes still in the confusion grid: %v", ar.Confusion)
	}

	// A live swap rebuilds the window empty.
	rewriteArtifact(t, r, "turing")
	ar = r.QualityReport().(QualityReportData).Arches[0]
	if ar.Accepted != 0 || ar.Samples != 0 {
		t.Fatalf("window survived a live swap: %+v", ar)
	}
}

// rewriteArtifact replaces arch's live artifact file with a different
// model and reloads, forcing a hash-change swap.
func rewriteArtifact(t *testing.T, r *Registry, arch string) {
	t.Helper()
	var path string
	for _, st := range r.Status() {
		if st.Arch == arch {
			path = st.Source
		}
	}
	if path == "" {
		t.Fatalf("no source path for %s", arch)
	}
	saveArtifact(t, filepath.Dir(path), filepath.Base(path), 5, 9)
	if _, err := r.Reload(); err != nil {
		t.Fatal(err)
	}
}

func TestShadowMeasuredTallies(t *testing.T) {
	dir := t.TempDir()
	live := saveArtifact(t, dir, "live.gob", 8, 1)
	cand := saveArtifact(t, dir, "cand.gob", 6, 2)
	r := New()
	if err := r.Configure("turing", live); err != nil {
		t.Fatal(err)
	}
	if err := r.ConfigureShadow("turing", cand); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}

	// Candidate measured faster twice, slower once, plus one outcome
	// with no candidate time (ignored by the measured tallies).
	mk := func(servedMs, candMs float64) serve.Outcome {
		o := fullOutcome(1, 1, servedMs) // bestMs = 1
		o.ServedMs = servedMs
		o.Regret = servedMs
		o.HasCandidate = true
		o.Candidate = serve.Prediction{Label: 2, Format: "ELL"}
		o.CandidateMs = candMs
		return o
	}
	r.RecordOutcome("turing", mk(2.0, 1.0))
	r.RecordOutcome("turing", mk(2.0, 1.0))
	r.RecordOutcome("turing", mk(1.0, 4.0))
	r.RecordOutcome("turing", mk(2.0, 0)) // candidate pick not timed

	report := r.ShadowReport().(ShadowReportData)
	if len(report.Arches) != 1 {
		t.Fatalf("shadow arches = %d, want 1", len(report.Arches))
	}
	ar := report.Arches[0]
	if ar.MeasuredScored != 3 || ar.CandidateWins != 2 || ar.LiveWins != 1 || ar.Ties != 0 {
		t.Fatalf("measured tallies = %+v", ar)
	}
	// live regrets: 2, 2, 1 → GM = (2*2*1)^(1/3); cand: 1, 1, 4 → same.
	wantGM := math.Pow(4.0, 1.0/3.0)
	if math.Abs(ar.LiveRegretGM-wantGM) > 1e-12 || math.Abs(ar.CandidateRegretGM-wantGM) > 1e-12 {
		t.Fatalf("regret GMs = %v / %v, want %v", ar.LiveRegretGM, ar.CandidateRegretGM, wantGM)
	}

	// Promotion clears the pair and with it the measured tallies.
	if _, err := r.Promote("turing"); err != nil {
		t.Fatal(err)
	}
	report = r.ShadowReport().(ShadowReportData)
	if len(report.Arches) != 0 {
		t.Fatalf("shadow report survived promotion: %+v", report.Arches)
	}
}
