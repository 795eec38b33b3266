package semisup

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/preprocess"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := clusteredTask(rng, 400, 8, 4)
	m, err := Train(x, y, 4, Config{NumClusters: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumClusters() != m.NumClusters() {
		t.Fatalf("clusters %d != %d", loaded.NumClusters(), m.NumClusters())
	}
	for i, row := range x {
		if m.Predict(row) != loaded.Predict(row) {
			t.Fatalf("prediction diverges at row %d", i)
		}
		if m.ClusterOf(row) != loaded.ClusterOf(row) {
			t.Fatalf("cluster assignment diverges at row %d", i)
		}
	}
	for c := 0; c < m.NumClusters(); c++ {
		if m.ClusterLabel(c) != loaded.ClusterLabel(c) || m.ClusterSize(c) != loaded.ClusterSize(c) {
			t.Fatalf("cluster %d metadata diverges", c)
		}
	}
}

func TestLoadedModelRelabels(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := clusteredTask(rng, 400, 8, 4)
	yFlip := make([]int, len(y))
	for i, l := range y {
		yFlip[i] = (l + 2) % 4
	}
	m, err := Train(x, y, 4, Config{NumClusters: 16, Seed: 4,
		Preprocess: preprocess.Options{SkipPCA: true}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Port the loaded model to the "new architecture".
	if err := loaded.Relabel(x, yFlip); err != nil {
		t.Fatal(err)
	}
	hit := 0
	for i, row := range x {
		if loaded.Predict(row) == yFlip[i] {
			hit++
		}
	}
	if acc := float64(hit) / float64(len(x)); acc < 0.9 {
		t.Errorf("relabelled loaded model accuracy %.3f", acc)
	}
}

// TestRoundTripPreservesFittedChain checks the fitted preprocessing
// chain itself — skew thresholds, scaler bounds, PCA basis — survives
// serialization bit for bit, not merely "close enough": every
// transformed coordinate must be identical, and the strict
// TransformChecked path must behave the same on the loaded model.
func TestRoundTripPreservesFittedChain(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y := clusteredTask(rng, 400, 8, 4)
	m, err := Train(x, y, 4, Config{NumClusters: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.InDim() != m.InDim() || loaded.Classes() != m.Classes() {
		t.Fatalf("metadata diverges: InDim %d/%d Classes %d/%d",
			loaded.InDim(), m.InDim(), loaded.Classes(), m.Classes())
	}
	if len(loaded.pipeline) != len(m.pipeline) {
		t.Fatalf("chain length %d != %d", len(loaded.pipeline), len(m.pipeline))
	}
	for i, row := range x {
		want := m.pipeline.Transform(row)
		got := loaded.pipeline.Transform(row)
		if len(got) != len(want) {
			t.Fatalf("row %d: transformed dim %d != %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("row %d coord %d: %v != %v after round-trip", i, j, got[j], want[j])
			}
		}
		wantP, errW := m.PredictChecked(row)
		gotP, errG := loaded.PredictChecked(row)
		if errW != nil || errG != nil || wantP != gotP {
			t.Fatalf("row %d: PredictChecked %d,%v != %d,%v", i, gotP, errG, wantP, errW)
		}
	}
	// The strict path still rejects bad dimensions after loading.
	if _, err := loaded.PredictChecked([]float64{1, 2}); err == nil {
		t.Error("loaded model accepted a 2-vector")
	}
}

// TestModelGobValue exercises the GobEncoder/GobDecoder hooks that let
// a *Model travel as a field of a larger gob message (the serve
// artifact does exactly this).
func TestModelGobValue(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, y := clusteredTask(rng, 300, 4, 3)
	m, err := Train(x, y, 3, Config{NumClusters: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	type carrier struct {
		Name  string
		Model *Model
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(carrier{Name: "m", Model: m}); err != nil {
		t.Fatal(err)
	}
	var out carrier
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Model == nil {
		t.Fatal("model field decoded to nil")
	}
	for i, row := range x {
		if m.Predict(row) != out.Model.Predict(row) {
			t.Fatalf("embedded round-trip diverges at row %d", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob stream")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
}

// TestLoadRejectsMisshapenModel: Train produces none of these payloads,
// and each would decode, load and then panic in Predict on a vector as
// wide as the model's InDim (any width when InDim is 0): the pipeline
// dereferences a nil PCA, or emits vectors of another width than the
// centroids.
func TestLoadRejectsMisshapenModel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, y := clusteredTask(rng, 200, 4, 3)
	m, err := Train(x, y, 3, Config{NumClusters: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var good modelGob
	if err := gob.NewDecoder(&buf).Decode(&good); err != nil {
		t.Fatal(err)
	}
	skew, scaler, pca := good.Pipeline[0], good.Pipeline[1], *good.Pipeline[2].(*preprocess.PCA)
	pca.Components = nil
	narrow := func(w int) [][]float64 {
		out := make([][]float64, len(good.Centroids))
		for i, c := range good.Centroids {
			out[i] = c[:w]
		}
		return out
	}
	wide := narrow(len(good.Centroids[0]))
	wide[0] = append(wide[0], 0)
	for name, edit := range map[string]func(g *modelGob){
		"no pipeline":            func(g *modelGob) { g.Pipeline = nil },
		"pca without components": func(g *modelGob) { g.Pipeline = preprocess.Chain{skew, scaler, &pca} },
		"skew narrower than the scaler before it": func(g *modelGob) {
			g.Pipeline = preprocess.Chain{scaler, &preprocess.SkewTransform{Mode: []int{0, 0}}}
			g.Centroids = narrow(2)
		},
		"skew of no width": func(g *modelGob) {
			g.Pipeline = preprocess.Chain{&preprocess.SkewTransform{}}
			g.Centroids = narrow(0)
		},
		"wide centroid": func(g *modelGob) { g.Centroids = wide },
	} {
		bad := good
		edit(&bad)
		var enc bytes.Buffer
		if err := gob.NewEncoder(&enc).Encode(bad); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&enc); err == nil {
			t.Errorf("%s: Load accepted it", name)
		}
	}
}

func TestSaveLoadAllRulesAndAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := clusteredTask(rng, 300, 4, 3)
	for _, algo := range []Algorithm{AlgoKMeans, AlgoBirch, AlgoMeanShift} {
		for _, rule := range []Rule{RuleVote, RuleLR, RuleRF} {
			m, err := Train(x, y, 3, Config{Algorithm: algo, Rule: rule,
				NumClusters: 8, Seed: 1})
			if err != nil {
				t.Fatalf("%s/%s: %v", algo, rule, err)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatalf("%s/%s save: %v", algo, rule, err)
			}
			loaded, err := Load(&buf)
			if err != nil {
				t.Fatalf("%s/%s load: %v", algo, rule, err)
			}
			for i := 0; i < 30; i++ {
				row := x[rng.Intn(len(x))]
				if m.Predict(row) != loaded.Predict(row) {
					t.Fatalf("%s/%s: prediction diverges", algo, rule)
				}
			}
		}
	}
}
