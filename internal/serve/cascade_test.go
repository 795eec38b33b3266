package serve

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// cascadeArtifact trains a semisup artifact over the shared corpus and
// distils a cheap-first stage onto it. The modest agreement target
// keeps calibration attainable on the small synthetic corpus.
func cascadeArtifact(t testing.TB, target float64) (*Artifact, []*sparse.CSR) {
	t.Helper()
	ms, best := labelledCorpus(t, "Turing")
	sel, err := core.TrainSelector(ms, best, core.Options{NumClusters: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	art := NewSemisupArtifact(sel.Model(), "Turing")
	x := features.Matrix(features.ExtractAll(ms))
	c, err := TrainCascade(art, x, CascadeOptions{TargetAgreement: target, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	art.Cascade = c
	if err := art.Validate(); err != nil {
		t.Fatal(err)
	}
	return art, ms
}

// stripped returns a copy of the artifact with the cascade removed —
// the cascade-off reference model.
func stripped(a *Artifact) *Artifact {
	b := *a
	b.Cascade = nil
	return &b
}

func TestTrainCascadeCalibration(t *testing.T) {
	art, _ := cascadeArtifact(t, 0.6)
	c := art.Cascade
	if c.Threshold > 1 {
		t.Fatalf("calibration could not reach target 0.6 (threshold %v)", c.Threshold)
	}
	if c.HeldoutAgreement < c.TargetAgreement {
		t.Errorf("heldout agreement %v below target %v", c.HeldoutAgreement, c.TargetAgreement)
	}
	if c.HeldoutHitRate <= 0 || c.HeldoutHitRate > 1 {
		t.Errorf("heldout hit rate %v outside (0, 1]", c.HeldoutHitRate)
	}
	if c.HeldoutSize < 2 {
		t.Errorf("heldout size %d", c.HeldoutSize)
	}
	if !slices.Equal(c.Indices, features.CheapIndices[:]) {
		t.Error("trained cascade does not use the cheap feature order")
	}
}

func TestTrainCascadeUnattainableTargetDisablesStage(t *testing.T) {
	ms, best := labelledCorpus(t, "Turing")
	sel, err := core.TrainSelector(ms, best, core.Options{NumClusters: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	art := NewSemisupArtifact(sel.Model(), "Turing")
	x := features.Matrix(features.ExtractAll(ms))
	// An agreement target of exactly 1.0 on a noisy distillation is
	// normally unattainable; if this corpus happens to reach it the
	// threshold is simply <= 1 and the stage fires — both outcomes must
	// leave the artifact consistent.
	c, err := TrainCascade(art, x, CascadeOptions{TargetAgreement: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	art.Cascade = c
	if err := art.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Threshold > 1 {
		// Disabled stage: every prediction must take the full path.
		for _, m := range ms[:5] {
			pred := art.MustPredict(t, m)
			if pred.Stage != StageFull {
				t.Fatalf("disabled cascade answered from stage %q", pred.Stage)
			}
		}
	}
}

// TestCascadeRejectsForeignFeatureOrder: the serve path feeds the stage
// its features in features.CheapIndices order only, so Validate refuses
// a cascade recorded with any other list.
func TestCascadeRejectsForeignFeatureOrder(t *testing.T) {
	art, _ := cascadeArtifact(t, 0.6)
	reversed := slices.Clone(art.Cascade.Indices)
	slices.Reverse(reversed)
	for _, idx := range [][]int{nil, art.Cascade.Indices[:4], reversed} {
		c := *art.Cascade
		c.Indices = idx
		bad := *art
		bad.Cascade = &c
		if err := bad.Validate(); err == nil {
			t.Errorf("cascade with feature indices %v validated", idx)
		}
	}
}

// TestCascadeDeterminism is the safety property: cascade-on and
// cascade-off answers differ only on requests the cheap stage answered
// (above threshold); every fall-through is bit-identical to the full
// path.
func TestCascadeDeterminism(t *testing.T) {
	art, ms := cascadeArtifact(t, 0.6)
	off := stripped(art)
	var s features.Scratch
	cheap, full := 0, 0
	for i, m := range ms {
		on, feats, err := art.predict(context.Background(), nil, nil, m, &s)
		vec := feats.full
		if err != nil {
			t.Fatal(err)
		}
		want := off.MustPredict(t, m)
		switch on.Stage {
		case StageCheap:
			cheap++
			if on.Confidence < art.Cascade.Threshold {
				t.Fatalf("matrix %d: cheap answer below threshold (%v < %v)", i, on.Confidence, art.Cascade.Threshold)
			}
			if vec != nil {
				t.Fatalf("matrix %d: cheap answer returned a full feature vector", i)
			}
		case StageFull:
			full++
			if on.Format != want.Format || on.Label != want.Label || on.Cluster != want.Cluster {
				t.Fatalf("matrix %d: fall-through answer %+v differs from full path %+v", i, on, want)
			}
			if vec == nil {
				t.Fatalf("matrix %d: fall-through did not return the feature vector", i)
			}
		default:
			t.Fatalf("matrix %d: cascade artifact answered with stage %q", i, on.Stage)
		}
		// The features entry point must agree with the matrix entry
		// point on both stage and answer.
		viaVec, err := art.Predict(s.Extract(m).Slice())
		if err != nil {
			t.Fatal(err)
		}
		if viaVec.Stage != on.Stage || viaVec.Format != on.Format || viaVec.Confidence != on.Confidence {
			t.Fatalf("matrix %d: vector path %+v != matrix path %+v", i, viaVec, on)
		}
	}
	if cheap == 0 {
		t.Error("cheap stage never fired on the corpus")
	}
	t.Logf("corpus: %d cheap, %d fall-through", cheap, full)
}

func TestCascadeArtifactRoundTrip(t *testing.T) {
	art, ms := cascadeArtifact(t, 0.6)
	var buf bytes.Buffer
	if err := art.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cascade == nil {
		t.Fatal("cascade lost in round trip")
	}
	if got.Cascade.Threshold != art.Cascade.Threshold ||
		got.Cascade.TargetAgreement != art.Cascade.TargetAgreement ||
		got.Cascade.HeldoutAgreement != art.Cascade.HeldoutAgreement {
		t.Fatalf("calibration drifted: %+v vs %+v", got.Cascade, art.Cascade)
	}
	for i, m := range ms {
		a, b := art.MustPredict(t, m), got.MustPredict(t, m)
		if a != b {
			t.Fatalf("matrix %d: loaded artifact predicts %+v, original %+v", i, b, a)
		}
	}
}

// TestV1ArtifactRoundTrip checks a version-1 envelope (no cascade)
// still loads and serves through the full path.
func TestV1ArtifactRoundTrip(t *testing.T) {
	art, ms := cascadeArtifact(t, 0.6)
	v1 := stripped(art)
	var buf bytes.Buffer
	if _, err := io.WriteString(&buf, artifactMagic); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&buf).Encode(artifactEnvelope{Version: 1, Payload: *v1}); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("v1 artifact rejected: %v", err)
	}
	if got.Cascade != nil {
		t.Fatal("v1 artifact decoded with a cascade")
	}
	for i, m := range ms[:10] {
		pred := got.MustPredict(t, m)
		if pred.Stage != "" || pred.Confidence != 0 {
			t.Fatalf("matrix %d: v1 artifact answered with cascade fields %+v", i, pred)
		}
		if want := v1.MustPredict(t, m); pred != want {
			t.Fatalf("matrix %d: v1 round trip predicts %+v, want %+v", i, pred, want)
		}
	}
}

// TestCascadeServerPath drives the HTTP hot path: a repeat body is
// answered from its memoized features with the identical answer and
// stage, and the stage metrics advance once per answer — a memo hit
// runs the cascade again on the memoized features.
func TestCascadeServerPath(t *testing.T) {
	art, ms := cascadeArtifact(t, 0.6)
	srv, err := NewServer(art, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	// Pick a matrix the cheap stage answers so the test exercises the
	// cascade branch specifically (fall back to ms[0] if none).
	var s features.Scratch
	body := func(m *sparse.CSR) []byte {
		var mm bytes.Buffer
		if err := sparse.WriteMatrixMarket(&mm, m); err != nil {
			t.Fatal(err)
		}
		return mm.Bytes()
	}
	mm := body(ms[0])
	for _, m := range ms {
		if pred, err := art.PredictMatrix(context.Background(), m, &s); err == nil && pred.Stage == StageCheap {
			mm = body(m)
			break
		}
	}

	hits0, falls0 := srv.cascadeHits.Value(), srv.cascadeFalls.Value()
	post := func() map[string]any {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/predict/matrix", bytes.NewReader(mm))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("predict: %d %s", rec.Code, rec.Body.String())
		}
		var out map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := post()
	if first["stage"] == nil {
		t.Fatalf("cascade artifact answered without a stage: %v", first)
	}
	if d := srv.cascadeHits.Value() + srv.cascadeFalls.Value() - hits0 - falls0; d != 1 {
		t.Fatalf("cascade counters advanced by %d, want 1", d)
	}
	if first["cached"] != false {
		t.Fatalf("first request answered from the memo: %v", first)
	}
	second := post()
	if second["cached"] != true {
		t.Fatalf("second identical request not answered from the memo: %v", second)
	}
	if second["format"] != first["format"] || second["stage"] != first["stage"] {
		t.Fatalf("memoized answer %v differs from computed %v", second, first)
	}
	if d := srv.cascadeHits.Value() + srv.cascadeFalls.Value() - hits0 - falls0; d != 2 {
		t.Fatalf("cascade counters advanced by %d over two answers, want 2", d)
	}

	st := srv.cascadeStats()
	if st.Hits+st.Fallthroughs < 2 {
		t.Fatalf("cascade stats %+v after 2 computed answers", st)
	}
	if st.HitRate < 0 || st.HitRate > 1 {
		t.Fatalf("hit rate %v", st.HitRate)
	}
}

// TestCascadePredictAllocs pins the allocation cost of Predict on a
// cascade artifact when the cheap stage answers: the cheap row is read
// out of the caller's vector on the stack, so only the stage's own
// preprocessing and probability buffers allocate.
func TestCascadePredictAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	art, ms := cascadeArtifact(t, 0.6)
	var vec []float64
	for _, m := range ms {
		v := features.Extract(m).Slice()
		if pred, err := art.Predict(v); err == nil && pred.Stage == StageCheap {
			vec = v
			break
		}
	}
	if vec == nil {
		t.Fatal("cheap stage never fired on the corpus")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := art.Predict(vec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("cascade Predict allocates %.0f objects per run, want <= 4", allocs)
	}
}
