package serve

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/gpusim"
	"repro/internal/preprocess"
	"repro/internal/sparse"
)

// labelledCorpus generates a small synthetic collection labelled on the
// given simulated architecture, shared by the artifact and server
// tests.
func labelledCorpus(t testing.TB, archName string) (ms []*sparse.CSR, best []sparse.Format) {
	t.Helper()
	arch, ok := gpusim.ArchByName(archName)
	if !ok {
		t.Fatalf("unknown architecture %q", archName)
	}
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
		ms = append(ms, it.Matrix)
		best = append(best, bf)
	}
	if len(ms) < 20 {
		t.Fatalf("labelled corpus too small: %d matrices", len(ms))
	}
	return ms, best
}

func labelsOf(best []sparse.Format) []int {
	y := make([]int, len(best))
	for i, f := range best {
		for k, kf := range sparse.KernelFormats() {
			if kf == f {
				y[i] = k
			}
		}
	}
	return y
}

// TestSemisupArtifactRoundTrip checks save→load→predict matches the
// in-memory pipeline bit-for-bit, matrix by matrix.
func TestSemisupArtifactRoundTrip(t *testing.T) {
	ms, best := labelledCorpus(t, "Turing")
	sel, err := core.TrainSelector(ms, best, core.Options{NumClusters: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	art := NewSemisupArtifact(sel.Model(), "Turing")
	var buf bytes.Buffer
	if err := art.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Kind != KindSemisup || loaded.Arch != "Turing" {
		t.Fatalf("loaded metadata: kind %q arch %q", loaded.Kind, loaded.Arch)
	}
	for i, m := range ms {
		inMem := sel.Select(m).String()
		pred, err := loaded.PredictMatrix(context.Background(), m, nil)
		if err != nil {
			t.Fatalf("matrix %d: %v", i, err)
		}
		if pred.Format != inMem {
			t.Fatalf("matrix %d: loaded artifact predicts %s, in-memory selector %s", i, pred.Format, inMem)
		}
		// The feature-vector path must agree with the matrix path.
		vecPred, err := loaded.Predict(features.Extract(m).Slice())
		if err != nil {
			t.Fatalf("matrix %d features: %v", i, err)
		}
		if vecPred != pred {
			t.Fatalf("matrix %d: vector path %+v != matrix path %+v", i, vecPred, pred)
		}
		if pred.Cluster < 0 {
			t.Fatalf("matrix %d: semisup prediction has no cluster", i)
		}
	}
}

// TestClassifierArtifactRoundTrip does the same for every supervised
// classifier the artifact supports, including the fitted preprocessing
// chain.
func TestClassifierArtifactRoundTrip(t *testing.T) {
	ms, best := labelledCorpus(t, "Pascal")
	x := features.Matrix(features.ExtractAll(ms))
	y := labelsOf(best)
	for _, name := range []string{"knn", "tree", "forest", "logreg"} {
		art, err := TrainClassifierArtifact(name, "Pascal", x, y, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := art.Save(&buf); err != nil {
			t.Fatalf("%s save: %v", name, err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s load: %v", name, err)
		}
		if loaded.Classifier != name {
			t.Fatalf("%s: loaded classifier name %q", name, loaded.Classifier)
		}
		for i, row := range x {
			want, err := art.Predict(row)
			if err != nil {
				t.Fatalf("%s row %d: %v", name, i, err)
			}
			got, err := loaded.Predict(row)
			if err != nil {
				t.Fatalf("%s row %d after load: %v", name, i, err)
			}
			if got != want {
				t.Fatalf("%s row %d: loaded %+v != in-memory %+v", name, i, got, want)
			}
		}
	}
}

// TestTrainClassifierArtifactRejectsUnknown covers the classifier-name
// validation.
func TestTrainClassifierArtifactRejectsUnknown(t *testing.T) {
	if _, err := TrainClassifierArtifact("cnn", "Turing", [][]float64{{1}}, []int{0}, 1); err == nil {
		t.Error("unknown classifier accepted")
	}
}

// kindArtifacts trains one artifact of each shape a replica serves: a
// semi-supervised model, a KNN classifier and a cascade.
func kindArtifacts(t testing.TB) map[string]*Artifact {
	t.Helper()
	ms, best := labelledCorpus(t, "Turing")
	sel, err := core.TrainSelector(ms, best, core.Options{NumClusters: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	semi := NewSemisupArtifact(sel.Model(), "Turing")
	x := features.Matrix(features.ExtractAll(ms))
	clf, err := TrainClassifierArtifact("knn", "Turing", x, labelsOf(best), 1)
	if err != nil {
		t.Fatal(err)
	}
	casc, _ := cascadeArtifact(t, 0.6)
	return map[string]*Artifact{"semisup": semi, "classifier": clf, "cascade": casc}
}

// TestArtifactPredictValidatesDimensions feeds wrong-length vectors —
// the untrusted serve input — through every artifact kind, a cascade
// artifact included (its cheap stage must not answer a vector it can
// only gather from by position), and through /v1/predict/features.
func TestArtifactPredictValidatesDimensions(t *testing.T) {
	bads := [][]float64{nil, {1, 2, 3}, make([]float64, features.CheapCount), make([]float64, features.Count+4)}
	for name, art := range kindArtifacts(t) {
		if got := art.InDim(); got != features.Count {
			t.Errorf("%s InDim = %d, want %d", name, got, features.Count)
		}
		for _, bad := range bads {
			if _, err := art.Predict(bad); err == nil {
				t.Errorf("%s accepted a %d-vector", name, len(bad))
			}
		}
		srv, err := NewServer(art, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range bads {
			body, _ := json.Marshal(featuresRequest{Features: bad})
			if rec, out := postJSON(t, srv.Handler(), "/v1/predict/features", body); rec.Code != http.StatusBadRequest {
				t.Errorf("%s /v1/predict/features on a %d-vector = %d %v, want 400", name, len(bad), rec.Code, out)
			}
		}
	}
}

// FuzzLoadArtifact mutates saved artifacts: whatever Load accepts must
// answer a full-width feature vector without panicking (an error is
// fine), so no artifact file can crash a replica at its first request.
func FuzzLoadArtifact(f *testing.F) {
	arts := kindArtifacts(f)
	for _, kind := range []string{"semisup", "classifier", "cascade"} {
		art := arts[kind]
		var buf bytes.Buffer
		if err := art.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	ones := make([]float64, features.Count)
	for i := range ones {
		ones[i] = 1
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		art, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		_, _ = art.Predict(ones)
	})
}

// TestLoadRejectsForeignStreams covers magic, truncation, version and
// consistency checks.
func TestLoadRejectsForeignStreams(t *testing.T) {
	if _, err := Load(strings.NewReader("not a model at all, not even close")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := Load(strings.NewReader(artifactMagic)); err == nil {
		t.Error("magic-only stream accepted")
	}
	// A version from the future must be refused, not misparsed.
	var buf bytes.Buffer
	io.WriteString(&buf, artifactMagic)
	if err := gob.NewEncoder(&buf).Encode(artifactEnvelope{
		Version: ArtifactVersion + 1,
		Payload: Artifact{Kind: KindSemisup, Formats: KernelFormatNames()},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version error = %v", err)
	}
	// An artifact without a model is inconsistent.
	if err := (&Artifact{Kind: KindSemisup, Formats: KernelFormatNames()}).Validate(); err == nil {
		t.Error("model-less semisup artifact validated")
	}
	if err := (&Artifact{Kind: "mystery", Formats: KernelFormatNames()}).Validate(); err == nil {
		t.Error("unknown kind validated")
	}
}

// craftedForest decodes a forest of one leaf-only estimator over
// features inputs that labels classes classes, as a crafted artifact
// could carry it: its Predict allocates one vote per class.
func craftedForest(t *testing.T, features, classes int) *classify.Forest {
	t.Helper()
	type node struct{ Leaf bool }
	var tree bytes.Buffer
	if err := gob.NewEncoder(&tree).Encode(struct {
		Nodes      []node
		Classes    int
		Fitted     bool
		Importance []float64
	}{[]node{{Leaf: true}}, classes, true, make([]float64, features)}); err != nil {
		t.Fatal(err)
	}
	est := new(classify.Tree)
	if err := est.GobDecode(tree.Bytes()); err != nil {
		t.Fatal(err)
	}
	var forest bytes.Buffer
	if err := gob.NewEncoder(&forest).Encode(struct {
		Estimators []*classify.Tree
		Classes    int
		Fitted     bool
	}{[]*classify.Tree{est}, classes, true}); err != nil {
		t.Fatal(err)
	}
	f := new(classify.Forest)
	if err := f.GobDecode(forest.Bytes()); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestLoadRejectsMisfitPipeline: each of these artifacts decodes, and
// unchecked each would either load and then panic in Predict (a KNN
// fitted on 3-vectors behind the 8-wide pipeline, measuring distances
// between vectors of unequal length; an empty pipeline stage; a PCA
// stage without components; a scaler whose Max is shorter than its
// Min; a PCA whose components are wider than its Mean), panic in Load
// itself (a cascade whose first stage is empty), or load and then
// allocate 128 MB of votes in every Predict (a forest, or a cascade
// forest, labelling 1<<24 classes). A reload or a pushed shadow
// candidate reaches all of them through Load, which must refuse them
// with an error.
func TestLoadRejectsMisfitPipeline(t *testing.T) {
	ms, best := labelledCorpus(t, "Turing")
	knn, err := TrainClassifierArtifact("knn", "Turing", features.Matrix(features.ExtractAll(ms)), labelsOf(best), 1)
	if err != nil {
		t.Fatal(err)
	}
	narrow := classify.NewKNN(1)
	if err := narrow.Fit([][]float64{{0, 0, 0}, {1, 1, 1}}, []int{0, 1}, 2); err != nil {
		t.Fatal(err)
	}
	narrowKNN := *knn
	narrowKNN.Clf = narrow
	emptyStage := *knn
	emptyStage.Pipeline = preprocess.Chain{knn.Pipeline[0], nil, knn.Pipeline[2]}
	pca := *knn.Pipeline[2].(*preprocess.PCA)
	pca.Components = nil
	noComponents := *knn
	noComponents.Pipeline = preprocess.Chain{knn.Pipeline[0], knn.Pipeline[1], &pca}
	casc, _ := cascadeArtifact(t, 0.6)
	stage := *casc.Cascade
	stage.Pipeline = append(preprocess.Chain{nil}, stage.Pipeline[1:]...)
	emptyCascadeStage := *casc
	emptyCascadeStage.Cascade = &stage
	scaler := *knn.Pipeline[1].(*preprocess.MinMaxScaler)
	scaler.Max = scaler.Max[:5]
	shortMax := *knn
	shortMax.Pipeline = preprocess.Chain{knn.Pipeline[0], &scaler, knn.Pipeline[2]}
	narrowPCA := *knn.Pipeline[2].(*preprocess.PCA)
	narrowPCA.Mean = narrowPCA.Mean[:5]
	pcaWiderThanMean := *knn
	pcaWiderThanMean.Pipeline = preprocess.Chain{knn.Pipeline[0], knn.Pipeline[1], &narrowPCA}
	manyClasses := *knn
	manyClasses.Clf = craftedForest(t, knn.Pipeline.OutDim(), 1<<24)
	cascStage := *casc.Cascade
	cascStage.Clf = craftedForest(t, cascStage.Pipeline.OutDim(), 1<<24)
	manyCascadeClasses := *casc
	manyCascadeClasses.Cascade = &cascStage

	for name, art := range map[string]Artifact{
		"knn fitted on 3-vectors":         narrowKNN,
		"empty pipeline stage":            emptyStage,
		"pca without components":          noComponents,
		"empty cascade stage":             emptyCascadeStage,
		"scaler max shorter than min":     shortMax,
		"pca components wider than mean":  pcaWiderThanMean,
		"forest of 1<<24 classes":         manyClasses,
		"cascade forest of 1<<24 classes": manyCascadeClasses,
	} {
		// Save validates, so the artifact is encoded the way Save would.
		var buf bytes.Buffer
		io.WriteString(&buf, artifactMagic)
		if err := gob.NewEncoder(&buf).Encode(artifactEnvelope{Version: ArtifactVersion, Payload: art}); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil {
			t.Errorf("%s: Load accepted it", name)
		}
	}
}

// TestSaveFileAtomic checks the file round-trip (and that SaveFile
// installs the artifact under the final name).
func TestSaveFileAtomic(t *testing.T) {
	ms, best := labelledCorpus(t, "Volta")
	sel, err := core.TrainSelector(ms, best, core.Options{NumClusters: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.gob"
	if err := SaveFile(path, NewSemisupArtifact(sel.Model(), "Volta")); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms[:5] {
		pred, err := loaded.PredictMatrix(context.Background(), m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if pred.Format != sel.Select(m).String() {
			t.Fatalf("file round-trip diverges: %s != %s", pred.Format, sel.Select(m))
		}
	}
}
