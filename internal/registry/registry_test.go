package registry

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gpusim"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// corpus generates the shared labelled training set once per test
// binary (training dominates test time otherwise).
var corpus struct {
	ms   []*sparse.CSR
	best []sparse.Format
}

func labelledCorpus(t *testing.T) ([]*sparse.CSR, []sparse.Format) {
	t.Helper()
	if corpus.ms != nil {
		return corpus.ms, corpus.best
	}
	arch, _ := gpusim.ArchByName("Turing")
	items, err := dataset.Generate(dataset.Config{
		Seed: 5, BaseCount: 40, Scale: 0.3, DropELLFailures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		meas := arch.Measure(it.Name, gpusim.NewProfile(it.Matrix))
		if !meas.Feasible() {
			continue
		}
		bf, _ := meas.BestFormat()
		corpus.ms = append(corpus.ms, it.Matrix)
		corpus.best = append(corpus.best, bf)
	}
	if len(corpus.ms) < 20 {
		t.Fatalf("labelled corpus too small: %d matrices", len(corpus.ms))
	}
	return corpus.ms, corpus.best
}

// saveArtifact trains a small semisup artifact (clusters/seed vary the
// model, and therefore the file hash) and writes it to dir/name.
func saveArtifact(t *testing.T, dir, name string, clusters int, seed int64) string {
	t.Helper()
	ms, best := labelledCorpus(t)
	sel, err := core.TrainSelector(ms, best, core.Options{NumClusters: clusters, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := serve.SaveFile(path, serve.NewSemisupArtifact(sel.Model(), "Turing")); err != nil {
		t.Fatal(err)
	}
	return path
}

func fileHash(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return serve.HashBytes(data)
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// candidateOf returns arch's loaded shadow candidate as Live reports
// it alongside the live model.
func candidateOf(t *testing.T, r *Registry, arch string) (serve.LiveModel, bool) {
	t.Helper()
	lm, err := r.Live(arch)
	if err != nil {
		t.Fatal(err)
	}
	if lm.Candidate == nil {
		return serve.LiveModel{}, false
	}
	return *lm.Candidate, true
}

func TestConfigureAndLoad(t *testing.T) {
	dir := t.TempDir()
	pT := saveArtifact(t, dir, "turing.gob", 10, 7)
	pP := saveArtifact(t, dir, "pascal.gob", 8, 3)

	r := New()
	if err := r.Configure("Turing", pT); err != nil {
		t.Fatal(err)
	}
	if err := r.Configure("pascal", pP); err != nil {
		t.Fatal(err)
	}
	if err := r.Configure("turing", pT); err == nil {
		t.Error("duplicate Configure accepted")
	}
	if err := r.ConfigureShadow("ampere", pT); err == nil {
		t.Error("shadow for unconfigured arch accepted")
	}
	if r.DefaultArch() != "turing" {
		t.Errorf("default = %q, want first configured", r.DefaultArch())
	}
	if err := r.SetDefault("pascal"); err != nil {
		t.Fatal(err)
	}
	if err := r.SetDefault("ampere"); err == nil {
		t.Error("SetDefault accepted an unconfigured arch")
	}

	// Nothing loaded yet: not ready, Live fails with ErrNotLoaded.
	if err := r.Ready(); err == nil {
		t.Error("Ready before LoadAll")
	}
	if _, err := r.Live("turing"); err == nil || !strings.Contains(err.Error(), "not loaded") {
		t.Errorf("Live before load = %v", err)
	}

	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}
	if err := r.Ready(); err != nil {
		t.Errorf("Ready after LoadAll: %v", err)
	}

	// Routing: default, explicit (case-folded), unknown.
	lm, err := r.Live("")
	if err != nil || lm.Arch != "pascal" || lm.Hash != fileHash(t, pP) {
		t.Errorf("Live(default) = %+v, %v", lm, err)
	}
	lm, err = r.Live("TURING")
	if err != nil || lm.Arch != "turing" || lm.Artifact == nil {
		t.Errorf("Live(TURING) = %+v, %v", lm, err)
	}
	if _, err := r.Live("ampere"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("Live(ampere) = %v, want unknown-arch error naming arches", err)
	}

	st := r.Status()
	if len(st) != 2 || !st[0].Loaded || !st[1].Loaded {
		t.Errorf("Status = %+v", st)
	}
	if got := r.Arches(); len(got) != 2 || got[0] != "pascal" || got[1] != "turing" {
		t.Errorf("Arches = %v", got)
	}
}

func TestReloadHashDetectionAndHooks(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "live.gob")
	vA := saveArtifact(t, dir, "a.gob", 10, 7)
	vB := saveArtifact(t, dir, "b.gob", 6, 2)
	copyFile(t, vA, live)

	r := New()
	if err := r.Configure("turing", live); err != nil {
		t.Fatal(err)
	}
	var swaps atomic.Int64
	r.OnSwap(func() { swaps.Add(1) })
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}
	if swaps.Load() != 1 {
		t.Fatalf("initial load fired %d swap hooks, want 1", swaps.Load())
	}
	hashA, _ := r.Live("")
	if hashA.Hash != fileHash(t, vA) {
		t.Fatalf("live hash = %s, want file hash of A", hashA.Hash)
	}

	// Idempotent: same bytes, nothing changes, no hook.
	changed, err := r.Reload()
	if err != nil || len(changed) != 0 {
		t.Fatalf("no-op reload = %v, %v", changed, err)
	}
	copyFile(t, vA, live) // rewrite identical content: still a no-op
	if changed, _ := r.Reload(); len(changed) != 0 {
		t.Fatalf("identical-content reload swapped %v", changed)
	}
	if swaps.Load() != 1 {
		t.Fatalf("no-op reloads fired hooks (%d)", swaps.Load())
	}

	// Changed content hot-swaps exactly that entry.
	copyFile(t, vB, live)
	changed, err = r.Reload()
	if err != nil || len(changed) != 1 || changed[0] != "turing" {
		t.Fatalf("reload after change = %v, %v", changed, err)
	}
	if swaps.Load() != 2 {
		t.Fatalf("swap hook count = %d, want 2", swaps.Load())
	}
	lm, _ := r.Live("")
	if lm.Hash != fileHash(t, vB) {
		t.Fatalf("post-swap hash = %s, want B's", lm.Hash)
	}
}

func TestReloadFailureKeepsServing(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "live.gob")
	vA := saveArtifact(t, dir, "a.gob", 10, 7)
	copyFile(t, vA, live)

	r := New()
	if err := r.Configure("turing", live); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}
	before, _ := r.Live("")

	// Corrupt the file: reload errors but the old model keeps serving.
	if err := os.WriteFile(live, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	changed, err := r.Reload()
	if err == nil || len(changed) != 0 {
		t.Fatalf("reload of corrupt file = %v, %v; want error, no swaps", changed, err)
	}
	after, lerr := r.Live("")
	if lerr != nil || after.Hash != before.Hash {
		t.Fatalf("corrupt reload disturbed the live entry: %+v, %v", after, lerr)
	}
	// The failure is visible in status; the entry stays loaded so the
	// registry stays ready.
	st := r.Status()
	if len(st) != 1 || st[0].Error == "" || !st[0].Loaded {
		t.Fatalf("Status after failed reload = %+v", st)
	}
	if err := r.Ready(); err != nil {
		t.Fatalf("Ready after failed reload = %v (old model still serves)", err)
	}

	// A registry whose artifact never loaded is unready and names the arch.
	r2 := New()
	if err := r2.Configure("volta", filepath.Join(dir, "missing.gob")); err != nil {
		t.Fatal(err)
	}
	if err := r2.LoadAll(); err == nil {
		t.Fatal("LoadAll of a missing file succeeded")
	}
	if err := r2.Ready(); err == nil || !strings.Contains(err.Error(), "volta") {
		t.Fatalf("Ready = %v, want failure naming volta", err)
	}
}

func TestPromote(t *testing.T) {
	dir := t.TempDir()
	pLive := saveArtifact(t, dir, "live.gob", 10, 7)
	pCand := saveArtifact(t, dir, "cand.gob", 6, 2)

	r := New()
	if err := r.Configure("turing", pLive); err != nil {
		t.Fatal(err)
	}
	if err := r.ConfigureShadow("turing", pCand); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}
	cand, ok := candidateOf(t, r, "turing")
	if !ok || cand.Hash != fileHash(t, pCand) {
		t.Fatalf("Shadow = %+v, %v", cand, ok)
	}

	// Tally a few comparisons, then promote.
	r.RecordShadow("turing", serve.Prediction{Label: 1}, serve.Prediction{Label: 1})
	r.RecordShadow("turing", serve.Prediction{Label: 1}, serve.Prediction{Label: 2})
	rep := r.ShadowReport().(ShadowReportData)
	if rep.Scored != 2 || rep.Disagree != 1 {
		t.Fatalf("pre-promote report = %+v", rep)
	}

	var swaps atomic.Int64
	r.OnSwap(func() { swaps.Add(1) })
	hash, err := r.Promote("Turing")
	if err != nil {
		t.Fatal(err)
	}
	if hash != fileHash(t, pCand) {
		t.Fatalf("promoted hash = %s, want candidate's", hash)
	}
	if swaps.Load() != 1 {
		t.Fatalf("promote fired %d hooks, want 1", swaps.Load())
	}
	lm, _ := r.Live("turing")
	if lm.Hash != hash || lm.Source != pCand {
		t.Fatalf("post-promote live = %+v", lm)
	}
	if _, ok := candidateOf(t, r, "turing"); ok {
		t.Error("shadow slot survived promotion")
	}
	rep = r.ShadowReport().(ShadowReportData)
	if len(rep.Arches) != 0 || rep.Scored != 0 {
		t.Errorf("post-promote report = %+v, want empty", rep)
	}
	if _, err := r.Promote("turing"); err == nil {
		t.Error("second promote succeeded without a candidate")
	}
	if _, err := r.Promote("ampere"); err == nil {
		t.Error("promote of unknown arch succeeded")
	}

	// After promotion the live slot reloads from the candidate's path:
	// rewriting it hot-swaps.
	copyFile(t, saveArtifact(t, dir, "cand2.gob", 12, 9), pCand)
	changed, err := r.Reload()
	if err != nil || len(changed) != 1 || changed[0] != "turing" {
		t.Fatalf("reload after promote = %v, %v", changed, err)
	}
}

func TestShadowStatsTallies(t *testing.T) {
	dir := t.TempDir()
	r := New()
	if err := r.Configure("turing", saveArtifact(t, dir, "live.gob", 10, 7)); err != nil {
		t.Fatal(err)
	}
	if err := r.ConfigureShadow("turing", saveArtifact(t, dir, "cand.gob", 6, 2)); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}

	// 3 agreements on label 1, 2 disagreements 0->2, 1 out-of-grid.
	for i := 0; i < 3; i++ {
		r.RecordShadow("turing", serve.Prediction{Label: 1}, serve.Prediction{Label: 1})
	}
	for i := 0; i < 2; i++ {
		r.RecordShadow("turing", serve.Prediction{Label: 0}, serve.Prediction{Label: 2})
	}
	r.RecordShadow("turing", serve.Prediction{Label: 7}, serve.Prediction{Label: 0})
	// Unknown arch: dropped silently.
	r.RecordShadow("ampere", serve.Prediction{Label: 0}, serve.Prediction{Label: 0})

	rep := r.ShadowReport().(ShadowReportData)
	if len(rep.Arches) != 1 {
		t.Fatalf("report arches = %d", len(rep.Arches))
	}
	ar := rep.Arches[0]
	if ar.Scored != 6 || ar.Agree != 3 || ar.Disagree != 3 {
		t.Fatalf("tallies = %+v", ar)
	}
	if ar.Agree+ar.Disagree != ar.Scored {
		t.Fatalf("agree+disagree != scored: %+v", ar)
	}
	if got := ar.AgreementRate; got != 0.5 {
		t.Errorf("agreement rate = %v", got)
	}
	if ar.Confusion[1][1] != 3 || ar.Confusion[0][2] != 2 || ar.OutOfRange != 1 {
		t.Errorf("confusion = %v out_of_range=%d", ar.Confusion, ar.OutOfRange)
	}
	var gridSum int64
	for _, row := range ar.Confusion {
		for _, c := range row {
			gridSum += c
		}
	}
	if gridSum+ar.OutOfRange != ar.Scored {
		t.Errorf("confusion grid sums to %d (+%d out of range), scored %d", gridSum, ar.OutOfRange, ar.Scored)
	}
	if ar.LiveHash == "" || ar.CandidateHash == "" || ar.LiveHash == ar.CandidateHash {
		t.Errorf("report hashes = %q / %q", ar.LiveHash, ar.CandidateHash)
	}
}
