// Package serve turns a fitted format selector into a deployable
// artifact and an HTTP prediction service: the step from "reproduction
// script" to "system". An Artifact bundles everything prediction needs
// — the fitted preprocessing chain, the model (semi-supervised
// cluster→label or a supervised classifier), and the label→format
// mapping — behind versioned gob serialization, so `spmvselect train
// -save` fits once and `spmvselect serve` / `predict -model` answer
// from the saved file without retraining.
package serve

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/classify"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/preprocess"
	"repro/internal/semisup"
	"repro/internal/sparse"
)

// Artifact kinds.
const (
	// KindSemisup is the paper's cluster→label pipeline (the fitted
	// preprocessing chain travels inside the semisup model).
	KindSemisup = "semisup"
	// KindClassifier is a supervised classifier over the fitted
	// preprocessing chain.
	KindClassifier = "classifier"
)

// ArtifactVersion is the current wire version written by Save. Load
// accepts any version up to this one. Version 2 added the optional
// cheap-first Cascade stage; version-1 artifacts decode with a nil
// Cascade (gob tolerates the absent field both ways) and serve through
// the full path.
const ArtifactVersion = 2

// artifactMagic prefixes every saved artifact, so mistaking an
// arbitrary gob stream (or an arbitrary file) for a model fails fast
// with a clear message.
const artifactMagic = "spmvselect-model\n"

// Artifact is the full fitted prediction pipeline: everything needed to
// map a raw matrix (or its 21-feature vector) to a storage format.
type Artifact struct {
	// Kind is KindSemisup or KindClassifier.
	Kind string
	// Classifier names the supervised model ("knn", "tree", "forest",
	// "logreg") when Kind is KindClassifier.
	Classifier string
	// Arch records the architecture the training labels were
	// benchmarked on (informational).
	Arch string
	// Formats maps label index to format name, in the
	// sparse.KernelFormats order the model was trained with.
	Formats []string
	// Semisup is the fitted cluster→label model (KindSemisup).
	Semisup *semisup.Model
	// Pipeline and Clf are the fitted preprocessing chain and
	// classifier (KindClassifier).
	Pipeline preprocess.Chain
	Clf      classify.Classifier
	// Baseline records the training-data distribution for drift
	// monitoring. Nil for artifacts saved before baselines existed (gob
	// tolerates the absent field both ways, so the wire version is
	// unchanged); such artifacts opt out of drift monitoring.
	Baseline *Baseline
	// Cascade is the optional cheap-first stage (wire version 2): a tiny
	// classifier over the O(rows) features plus a confidence threshold
	// calibrated on held-out data at train time. Nil (every v1 artifact)
	// means every prediction takes the full path.
	Cascade *Cascade
}

// artifactEnvelope is what Save gob-encodes after the magic string. The
// version travels in the same struct, decoded before anything is
// interpreted, so future versions can change Payload freely.
type artifactEnvelope struct {
	Version int
	Payload Artifact
}

func init() {
	// The preprocessing transformers inside Pipeline are interface
	// values; registration mirrors internal/semisup/persist.go (gob
	// tolerates the duplicate registration of identical name/type
	// pairs). The classify models register themselves in their own
	// package init.
	gob.Register(&preprocess.SkewTransform{})
	gob.Register(&preprocess.MinMaxScaler{})
	gob.Register(&preprocess.PCA{})
}

// KernelFormatNames returns the format names in label order, the
// Formats mapping every artifact trained in this repository uses.
func KernelFormatNames() []string {
	names := make([]string, 0, sparse.NumKernelFormats)
	for _, f := range sparse.KernelFormats() {
		names = append(names, f.String())
	}
	return names
}

// NewSemisupArtifact wraps a fitted semi-supervised model.
func NewSemisupArtifact(m *semisup.Model, arch string) *Artifact {
	return &Artifact{
		Kind:    KindSemisup,
		Arch:    arch,
		Formats: KernelFormatNames(),
		Semisup: m,
	}
}

// TrainClassifierArtifact fits the paper's preprocessing chain and a
// supervised classifier on raw feature rows x with format labels y in
// KernelFormats order. name selects the model: "knn", "tree", "forest"
// or "logreg" (the gob-persistable classifiers).
func TrainClassifierArtifact(name, arch string, x [][]float64, y []int, seed int64) (*Artifact, error) {
	var clf classify.Classifier
	switch name {
	case "knn":
		clf = classify.NewKNN(5)
	case "tree":
		clf = classify.NewTree(10)
	case "forest":
		clf = classify.NewForest(seed)
	case "logreg":
		clf = classify.NewLogReg()
	default:
		return nil, fmt.Errorf("serve: unknown classifier %q (want knn, tree, forest or logreg)", name)
	}
	pipeline, err := preprocess.FitPipeline(x, preprocess.Options{})
	if err != nil {
		return nil, fmt.Errorf("serve: fitting preprocessing: %w", err)
	}
	if err := clf.Fit(preprocess.Apply(pipeline, x), y, sparse.NumKernelFormats); err != nil {
		return nil, fmt.Errorf("serve: fitting %s: %w", name, err)
	}
	return &Artifact{
		Kind:       KindClassifier,
		Classifier: name,
		Arch:       arch,
		Formats:    KernelFormatNames(),
		Pipeline:   pipeline,
		Clf:        clf,
	}, nil
}

// Validate checks the artifact is internally consistent and usable for
// prediction.
func (a *Artifact) Validate() error {
	if len(a.Formats) < 2 {
		return fmt.Errorf("serve: artifact maps only %d formats", len(a.Formats))
	}
	switch a.Kind {
	case KindSemisup:
		if a.Semisup == nil {
			return fmt.Errorf("serve: semisup artifact has no model")
		}
		if c := a.Semisup.Classes(); c > len(a.Formats) {
			return fmt.Errorf("serve: model labels %d classes but artifact maps %d formats", c, len(a.Formats))
		}
	case KindClassifier:
		if a.Clf == nil {
			return fmt.Errorf("serve: classifier artifact has no model")
		}
		if !classify.Persistable(a.Clf) {
			return fmt.Errorf("serve: classifier %T is not persistable", a.Clf)
		}
		if err := checkPipeline("classifier", a.Pipeline, a.Clf, len(a.Formats)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("serve: unknown artifact kind %q", a.Kind)
	}
	if a.Baseline != nil {
		if err := a.Baseline.Validate(); err != nil {
			return err
		}
	}
	if a.Cascade != nil {
		if err := a.Cascade.Validate(len(a.Formats)); err != nil {
			return err
		}
	}
	return nil
}

// checkPipeline rejects a decoded pipeline that preprocess.Chain.Validate
// refuses, a classifier fitted on vectors of another width than its
// pipeline emits, and a classifier labelling more classes than the
// artifact maps formats. The first two would panic at predict time (a
// scaler reading past its Max, a PCA projecting a vector of another
// width than its components, a KNN measuring the distance between
// vectors of unequal length); the last would allocate a vote per class
// on every request.
func checkPipeline(what string, p preprocess.Chain, clf classify.Classifier, formats int) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("serve: %s pipeline: %w", what, err)
	}
	if in, out := classify.InputDim(clf), p.OutDim(); in != out {
		return fmt.Errorf("serve: %s takes %d features but its pipeline emits %d", what, in, out)
	}
	if c := classify.Classes(clf); c > formats {
		return fmt.Errorf("serve: %s labels %d classes but artifact maps %d formats", what, c, formats)
	}
	return nil
}

// InDim returns the raw feature dimension the artifact expects
// (features.Count for every artifact trained in this repository).
func (a *Artifact) InDim() int {
	if a.Kind == KindSemisup && a.Semisup != nil {
		return a.Semisup.InDim()
	}
	return a.Pipeline.InDim()
}

// Prediction stages, reported when the artifact carries a cascade.
const (
	// StageCheap marks an answer from the cascade's cheap-feature
	// classifier (confident at or above the calibrated threshold).
	StageCheap = "cheap"
	// StageFull marks an answer from the full pipeline, either because
	// the artifact has no cascade (Stage is then empty) or because the
	// cheap stage's confidence fell below the threshold.
	StageFull = "full"
)

// Prediction is one answer from the artifact.
type Prediction struct {
	// Format is the recommended storage format name.
	Format string `json:"format"`
	// Label is the class index behind Format.
	Label int `json:"label"`
	// Cluster and ClusterSize explain a semi-supervised prediction
	// (Cluster is -1 for classifier artifacts).
	Cluster     int `json:"cluster"`
	ClusterSize int `json:"cluster_size,omitempty"`
	// Stage and Confidence explain a cascade artifact's answer: which
	// stage produced it and the cheap stage's top-class probability.
	// Both are zero for artifacts without a cascade.
	Stage      string  `json:"stage,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
}

// Predict maps a raw Table 1 feature vector to a format, validating the
// input dimension — the artifact's entry point for untrusted vectors.
// With a cascade the cheap columns of x are tried first; the full model
// only runs below the confidence threshold.
func (a *Artifact) Predict(x []float64) (Prediction, error) {
	pred, _, err := a.predict(context.Background(), nil, x, nil, nil)
	return pred, err
}

// PredictMatrix extracts the features of a matrix and predicts; with a
// cascade the full 21-feature extraction only happens when the cheap
// stage is not confident. s may be nil; passing one reuses its
// extraction buffers across calls.
func (a *Artifact) PredictMatrix(ctx context.Context, m *sparse.CSR, s *features.Scratch) (Prediction, error) {
	if s == nil {
		s = new(features.Scratch)
	}
	pred, _, err := a.predict(ctx, nil, nil, m, s)
	return pred, err
}

// predict is the artifact's one cheap-or-full decision. The caller
// passes what it already has — the cheap-feature row, the full
// 21-feature vector, or the parsed matrix and a scratch to extract
// either from — and predict computes only what the decision needs. With
// a cascade, the cheap row goes through the cheap stage first and the
// full model runs only below the confidence threshold. The returned
// entry holds the features the answer was decided on, in the memo's
// form: the full vector when it was given or computed, otherwise the
// cheap row. Each stage is a child span of ctx; with no span in ctx and
// observability disabled, a span costs one context lookup.
func (a *Artifact) predict(ctx context.Context, cheap, full []float64, m *sparse.CSR, s *features.Scratch) (Prediction, featEntry, error) {
	var conf float64
	if c := a.Cascade; c != nil {
		// in is the cheap stage's input. Gathering it from full keeps it
		// on the stack, because only cheap is ever returned.
		in := cheap
		switch {
		case cheap != nil:
		case m != nil:
			_, csp := obs.StartChild(ctx, "features/cheap")
			cheap = s.ExtractCheap(m).Slice()
			csp.End()
			in = cheap
		default:
			// The cascade reads Vector positions out of the caller's
			// vector, so its length is checked before the cascade runs.
			if len(full) != features.Count {
				return Prediction{}, featEntry{}, fmt.Errorf("serve: model expects %d features, got %d", features.Count, len(full))
			}
			var row features.CheapVector
			for i, idx := range features.CheapIndices {
				row[i] = full[idx]
			}
			in = row[:]
		}
		_, dsp := obs.StartChild(ctx, "cascade")
		label, p, err := c.decide(in)
		conf = p
		dsp.SetMetric("confidence", conf)
		if err != nil {
			dsp.End()
			return Prediction{}, featEntry{}, err
		}
		if conf >= c.Threshold && label >= 0 && label < len(a.Formats) {
			dsp.SetMetric("hit", 1)
			dsp.End()
			feats := featEntry{cheap: cheap}
			if full != nil {
				feats = featEntry{full: full}
			}
			return Prediction{
				Format:     a.Formats[label],
				Label:      label,
				Cluster:    -1,
				Stage:      StageCheap,
				Confidence: conf,
			}, feats, nil
		}
		dsp.SetMetric("hit", 0)
		dsp.End()
	}
	switch {
	case full != nil:
	case m != nil:
		_, fsp := obs.StartChild(ctx, "features/full")
		full = s.Extract(m).Slice()
		fsp.End()
	case cheap != nil:
		// Only a cheap row (a cheap-only memo entry) that no confident
		// cascade answered: a parse has to supply the full vector.
		return Prediction{}, featEntry{}, errors.New("serve: the full feature vector is needed")
	}
	_, psp := obs.StartChild(ctx, "predict")
	pred, err := a.predictFull(full)
	psp.End()
	if err != nil {
		return Prediction{}, featEntry{}, err
	}
	if a.Cascade != nil {
		pred.Stage = StageFull
		pred.Confidence = conf
	}
	return pred, featEntry{full: full}, nil
}

// predictFull runs the full pipeline: dimension check, preprocessing
// chain (or semisup cluster lookup), model.
func (a *Artifact) predictFull(x []float64) (Prediction, error) {
	var label, clusterID, clusterSize int
	clusterID = -1
	switch a.Kind {
	case KindSemisup:
		if d := a.Semisup.InDim(); d != 0 && len(x) != d {
			return Prediction{}, fmt.Errorf("serve: model expects %d features, got %d", d, len(x))
		}
		clusterID = a.Semisup.ClusterOf(x)
		label = a.Semisup.ClusterLabel(clusterID)
		clusterSize = a.Semisup.ClusterSize(clusterID)
	case KindClassifier:
		tx, err := a.Pipeline.TransformChecked(x)
		if err != nil {
			return Prediction{}, fmt.Errorf("serve: %w", err)
		}
		label = a.Clf.Predict(tx)
	default:
		return Prediction{}, fmt.Errorf("serve: unknown artifact kind %q", a.Kind)
	}
	if label < 0 || label >= len(a.Formats) {
		return Prediction{}, fmt.Errorf("serve: model produced label %d outside the %d-format mapping", label, len(a.Formats))
	}
	return Prediction{
		Format:      a.Formats[label],
		Label:       label,
		Cluster:     clusterID,
		ClusterSize: clusterSize,
	}, nil
}

// Save writes the artifact: the magic prefix, then the gob-encoded
// versioned envelope.
func (a *Artifact) Save(w io.Writer) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if _, err := io.WriteString(w, artifactMagic); err != nil {
		return fmt.Errorf("serve: writing artifact magic: %w", err)
	}
	env := artifactEnvelope{Version: ArtifactVersion, Payload: *a}
	if err := gob.NewEncoder(w).Encode(env); err != nil {
		return fmt.Errorf("serve: encoding artifact: %w", err)
	}
	return nil
}

// Load reads an artifact written by Save, rejecting foreign streams and
// newer wire versions with descriptive errors.
func Load(r io.Reader) (*Artifact, error) {
	magic := make([]byte, len(artifactMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("serve: reading artifact magic: %w", err)
	}
	if string(magic) != artifactMagic {
		return nil, fmt.Errorf("serve: not a spmvselect model artifact (bad magic)")
	}
	var env artifactEnvelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("serve: decoding artifact: %w", err)
	}
	if env.Version < 1 || env.Version > ArtifactVersion {
		return nil, fmt.Errorf("serve: artifact version %d not supported (this build reads <= %d)", env.Version, ArtifactVersion)
	}
	a := env.Payload
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := a.probe(); err != nil {
		return nil, err
	}
	return &a, nil
}

// probe predicts once on a vector of ones, through the cascade's cheap
// stage when there is one and through the full model. A decoded
// artifact can pass Validate and still panic at predict time; the probe
// makes that panic a Load error, so a reload or shadow install rejects
// the artifact instead of live requests failing on it. An error answer
// is no fault here: requests get the same error.
func (a *Artifact) probe() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: artifact panics on a probe prediction: %v", r)
		}
	}()
	ones := make([]float64, features.Count)
	for i := range ones {
		ones[i] = 1
	}
	if a.Cascade != nil {
		_, _, _ = a.Cascade.decide(ones[:features.CheapCount])
	}
	_, _ = a.predictFull(ones)
	return nil
}

// SaveFile writes the artifact to path (atomically via a temp file in
// the same directory, so a crashed save never leaves a truncated
// model).
func SaveFile(path string, a *Artifact) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".spmvselect-model-*")
	if err != nil {
		return fmt.Errorf("serve: creating temp model file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := a.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: closing temp model file: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("serve: installing model file: %w", err)
	}
	return nil
}

// LoadFile reads an artifact from path.
func LoadFile(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: opening model file: %w", err)
	}
	defer f.Close()
	return Load(f)
}
