package registry

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// saveBaselineArtifact trains a semisup artifact like saveArtifact but
// attaches the training baseline, arming the drift monitor.
func saveBaselineArtifact(t *testing.T, dir, name string) string {
	t.Helper()
	ms, best := labelledCorpus(t)
	sel, err := core.TrainSelector(ms, best, core.Options{NumClusters: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	art := serve.NewSemisupArtifact(sel.Model(), "Turing")
	y := make([]int, len(best))
	for i, f := range best {
		for k, kf := range sparse.KernelFormats() {
			if kf == f {
				y[i] = k
			}
		}
	}
	art.Baseline = serve.ComputeBaseline(features.Matrix(features.ExtractAll(ms)), y, sparse.NumKernelFormats)
	path := filepath.Join(dir, name)
	if err := serve.SaveFile(path, art); err != nil {
		t.Fatal(err)
	}
	return path
}

func driftArch(t *testing.T, rep DriftReportData, arch string) ArchDriftReport {
	t.Helper()
	for _, a := range rep.Arches {
		if a.Arch == arch {
			return a
		}
	}
	t.Fatalf("arch %q missing from drift report", arch)
	return ArchDriftReport{}
}

func driftSignal(t *testing.T, ar ArchDriftReport, name string) DriftSignal {
	t.Helper()
	for _, s := range ar.Signals {
		if s.Signal == name {
			return s
		}
	}
	t.Fatalf("signal %q missing from %+v", name, ar)
	return DriftSignal{}
}

// TestDriftBaselineRoundTrip: the baseline survives the gob save/load
// cycle and arms the monitor on LoadAll.
func TestDriftBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := saveBaselineArtifact(t, dir, "turing.gob")
	art, err := serve.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if art.Baseline == nil {
		t.Fatal("baseline lost in save/load round trip")
	}
	if err := art.Baseline.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(art.Baseline.Features) == 0 {
		t.Fatal("baseline tracks no features")
	}

	r := New()
	if err := r.Configure("turing", path); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}
	rep := r.DriftReport().(DriftReportData)
	if rep.WindowSize != 512 || rep.PSIAlert != 0.2 || rep.MinSamples != 50 {
		t.Errorf("drift settings = window %d, psi alert %v, min samples %d; want 512, 0.2, 50",
			rep.WindowSize, rep.PSIAlert, rep.MinSamples)
	}
	ar := driftArch(t, rep, "turing")
	if ar.Alert {
		t.Error("empty windows alert")
	}
	if s := driftSignal(t, ar, "format"); s.Samples != 0 {
		t.Errorf("fresh monitor has %d samples", s.Samples)
	}
}

// TestDriftAlertsOnSkewedStream is the tentpole acceptance test: a
// served stream matching the training distribution stays quiet; a
// stream skewed to one format and out-of-range features flips the
// report to alert.
func TestDriftAlertsOnSkewedStream(t *testing.T) {
	dir := t.TempDir()
	path := saveBaselineArtifact(t, dir, "turing.gob")
	r := New()
	if err := r.Configure("turing", path); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}
	lm, err := r.Live("turing")
	if err != nil {
		t.Fatal(err)
	}
	base := lm.Artifact.Baseline

	// Phase 1: replay the training distribution — labels proportional to
	// the baseline counts, features drawn from each baseline bucket in
	// proportion. PSI over the same distribution must stay far below the
	// alert bar.
	var total int64
	for _, c := range base.FormatCounts {
		total += c
	}
	var stream []int
	for label, c := range base.FormatCounts {
		n := int(200 * float64(c) / float64(total))
		for i := 0; i < n; i++ {
			stream = append(stream, label)
		}
	}
	for j, label := range stream {
		r.RecordServed("turing", serve.Prediction{Label: label}, trainingLikeVec(base, j))
	}
	rep := r.DriftReport().(DriftReportData)
	ar := driftArch(t, rep, "turing")
	if ar.Alert {
		t.Fatalf("training-like stream alerted: %+v", ar.Signals)
	}

	// Phase 2: skew — a full window of answers that are all label 0,
	// with every feature far beyond the training range (overflow
	// buckets).
	huge := make([]float64, features.Count)
	for i := range huge {
		huge[i] = 1e18
	}
	for i := 0; i < windowSize; i++ {
		r.RecordServed("turing", serve.Prediction{Label: 0}, huge)
	}
	rep = r.DriftReport().(DriftReportData)
	ar = driftArch(t, rep, "turing")
	if !ar.Alert {
		t.Fatalf("skewed stream did not alert: %+v", ar.Signals)
	}
	if s := driftSignal(t, ar, "nnz_mu"); !s.Alert || s.PSI < 0.2 {
		t.Errorf("feature signal did not alert: %+v", s)
	}
	if s := driftSignal(t, ar, "format"); s.Samples == 0 {
		t.Errorf("format stream empty: %+v", s)
	}
}

// trainingLikeVec returns a feature vector whose tracked features land
// in baseline bucket (i mod buckets), cycling through the training
// distribution's support.
func trainingLikeVec(base *serve.Baseline, i int) []float64 {
	vec := make([]float64, features.Count)
	for _, fb := range base.Features {
		if len(fb.Bounds) == 0 {
			continue
		}
		// Weighted cycling: pick the bucket proportionally via the counts.
		var total int64
		for _, c := range fb.Counts {
			total += c
		}
		target := int64(i) % total
		bucket := 0
		var acc int64
		for b, c := range fb.Counts {
			acc += c
			if target < acc {
				bucket = b
				break
			}
		}
		if bucket < len(fb.Bounds) {
			vec[fb.Index] = fb.Bounds[bucket]
		} else {
			vec[fb.Index] = fb.Bounds[len(fb.Bounds)-1] * 2
		}
	}
	return vec
}

// TestDriftStateResetsOnSwap: a hot-swap installs fresh windows for the
// new model's baseline.
func TestDriftStateResetsOnSwap(t *testing.T) {
	dir := t.TempDir()
	path := saveBaselineArtifact(t, dir, "turing.gob")
	r := New()
	if err := r.Configure("turing", path); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		r.RecordServed("turing", serve.Prediction{Label: 0}, nil)
	}
	ar := driftArch(t, r.DriftReport().(DriftReportData), "turing")
	if s := driftSignal(t, ar, "format"); s.Samples != 60 {
		t.Fatalf("format samples = %d, want 60", s.Samples)
	}
	// Swap to a different artifact file: the windows must restart.
	other := saveArtifact(t, dir, "other.gob", 8, 3) // no baseline
	copyFile(t, other, path)
	if _, err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	rep := r.DriftReport().(DriftReportData)
	if len(rep.Arches) != 0 {
		t.Errorf("baseline-less artifact still monitored: %+v", rep.Arches)
	}
	// RecordServed on an unmonitored arch is a safe no-op.
	r.RecordServed("turing", serve.Prediction{Label: 0}, nil)
}

// TestRingCountsEviction: the rolling window forgets old observations.
func TestRingCountsEviction(t *testing.T) {
	c := newRingCounts(3, 4)
	for i := 0; i < 4; i++ {
		c.add(0)
	}
	if c.counts[0] != 4 || c.total != 4 {
		t.Fatalf("fill: %+v", c)
	}
	for i := 0; i < 4; i++ {
		c.add(2)
	}
	if c.counts[0] != 0 || c.counts[2] != 4 || c.total != 4 {
		t.Errorf("eviction: counts=%v total=%d", c.counts, c.total)
	}
	c.add(-1) // out of range: ignored
	c.add(3)
	if c.total != 4 {
		t.Errorf("out-of-range buckets counted: %+v", c)
	}
}

func TestPSIChi2(t *testing.T) {
	// Identical distributions: PSI ~ 0.
	psi, chi2 := psiChi2([]int64{50, 30, 20}, []int64{500, 300, 200})
	if psi > 0.001 {
		t.Errorf("identical distributions: psi=%v", psi)
	}
	if chi2 > 1 {
		t.Errorf("identical distributions: chi2=%v", chi2)
	}
	// Total mass shift: PSI far above the alert bar.
	psi, chi2 = psiChi2([]int64{100, 0, 0}, []int64{0, 0, 100})
	if psi < 1 {
		t.Errorf("total shift: psi=%v", psi)
	}
	if chi2 < 100 {
		t.Errorf("total shift: chi2=%v", chi2)
	}
	// Degenerate inputs are quiet zeros, not NaNs.
	if psi, chi2 = psiChi2(nil, nil); psi != 0 || chi2 != 0 {
		t.Error("nil inputs")
	}
	if psi, chi2 = psiChi2([]int64{1}, []int64{0}); psi != 0 || chi2 != 0 {
		t.Error("empty observed window should score 0")
	}
}
