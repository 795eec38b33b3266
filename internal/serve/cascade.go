package serve

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/classify"
	"repro/internal/features"
	"repro/internal/preprocess"
)

// The cheap-first cascade: most matrices classify correctly from a
// handful of structural features (rows/cols/nnz/row-stats — Elafrou et
// al.'s lightweight selection observation), so a tiny classifier over
// features.CheapIndices answers a request whenever its top-class
// probability clears a threshold, and only the uncertain remainder pays
// full 21-feature extraction + preprocessing + model. The stage is
// distilled from the full artifact at train time — its labels are the
// full model's own predictions, not ground truth — so "agreement" below
// always means agreement with what the full path would have served, and
// the threshold is calibrated on held-out rows to hit a target
// agreement rate.

// ProbaClassifier is the slice of classify.Classifier the cascade
// needs: a per-class probability estimate to threshold on. LogReg and
// Forest implement it.
type ProbaClassifier interface {
	Proba(x []float64) []float64
}

// Cascade is the optional cheap-first stage of a version-2 artifact.
type Cascade struct {
	// Indices are the Vector indices of the cheap features, in the
	// order the stage's pipeline expects them. Validate accepts only
	// features.CheapIndices, the order TrainCascade writes.
	Indices []int
	// Classifier names the cheap model ("logreg" or "forest").
	Classifier string
	// Pipeline and Clf are the fitted cheap-feature preprocessing chain
	// (skew + min-max, no PCA) and classifier.
	Pipeline preprocess.Chain
	Clf      classify.Classifier
	// Threshold is the calibrated confidence cutoff: the cheap answer
	// is served iff its top-class probability is >= Threshold. A value
	// above 1 means calibration could not reach the target agreement
	// and the stage never fires.
	Threshold float64
	// Calibration provenance, recorded for /v1/model and the bench
	// gates: the requested agreement target, and the agreement and
	// hit rate actually measured on the held-out split at Threshold.
	TargetAgreement  float64
	HeldoutAgreement float64
	HeldoutHitRate   float64
	HeldoutSize      int
}

// Validate checks the cascade is usable for prediction by an artifact
// mapping formats formats.
func (c *Cascade) Validate(formats int) error {
	// The serve path feeds the stage ExtractCheap's row, or the same
	// positions gathered from a full vector, so no other order can work.
	if !slices.Equal(c.Indices, features.CheapIndices[:]) {
		return fmt.Errorf("serve: cascade feature indices %v are not the cheap feature order %v", c.Indices, features.CheapIndices)
	}
	if c.Clf == nil {
		return fmt.Errorf("serve: cascade has no classifier")
	}
	if !classify.Persistable(c.Clf) {
		return fmt.Errorf("serve: cascade classifier %T is not persistable", c.Clf)
	}
	if _, ok := c.Clf.(ProbaClassifier); !ok {
		return fmt.Errorf("serve: cascade classifier %T has no probability estimate", c.Clf)
	}
	if err := checkPipeline("cascade classifier", c.Pipeline, c.Clf, formats); err != nil {
		return err
	}
	if d := c.Pipeline.InDim(); d != 0 && d != features.CheapCount {
		return fmt.Errorf("serve: cascade pipeline expects %d features, stage has %d", d, features.CheapCount)
	}
	if c.Threshold < 0 {
		return fmt.Errorf("serve: cascade threshold %v negative", c.Threshold)
	}
	if c.TargetAgreement < 0 || c.TargetAgreement > 1 {
		return fmt.Errorf("serve: cascade target agreement %v outside [0, 1]", c.TargetAgreement)
	}
	return nil
}

// decide runs the cheap stage on a cheap-feature row (CheapIndices
// order) and returns the argmax label and its probability.
func (c *Cascade) decide(cheap []float64) (label int, conf float64, err error) {
	pc, ok := c.Clf.(ProbaClassifier)
	if !ok {
		return 0, 0, fmt.Errorf("serve: cascade classifier %T has no probability estimate", c.Clf)
	}
	p := pc.Proba(c.Pipeline.Transform(cheap))
	label = -1
	for k, v := range p {
		if label < 0 || v > conf {
			label, conf = k, v
		}
	}
	if label < 0 {
		return 0, 0, fmt.Errorf("serve: cascade produced an empty probability vector")
	}
	return label, conf, nil
}

// CascadeOptions tunes TrainCascade. The zero value selects defaults.
type CascadeOptions struct {
	// Model is the cheap classifier: "logreg" (default) or "forest".
	Model string
	// TargetAgreement is the agreement rate with the full model the
	// threshold must reach on the held-out answered subset (default
	// 0.95).
	TargetAgreement float64
	// Seed drives the split shuffle and the forest.
	Seed int64
}

func (o CascadeOptions) withDefaults() CascadeOptions {
	if o.Model == "" {
		o.Model = "logreg"
	}
	if o.TargetAgreement == 0 {
		o.TargetAgreement = 0.95
	}
	return o
}

// TrainCascade distils art into a cheap-first stage: it labels the raw
// training rows x with the full artifact's own predictions, fits a
// small classifier on the cheap feature columns of a shuffled training
// split, and calibrates the confidence threshold on the held-out
// remainder — the smallest cutoff whose answered subset agrees with
// the full model at rate >= TargetAgreement (maximising hit rate
// subject to the agreement constraint). When no cutoff reaches the
// target the returned stage carries Threshold > 1 and never fires.
func TrainCascade(art *Artifact, x [][]float64, opt CascadeOptions) (*Cascade, error) {
	opt = opt.withDefaults()
	if len(x) < 8 {
		return nil, fmt.Errorf("serve: cascade needs at least 8 training rows, got %d", len(x))
	}

	// Distillation labels: the full model's answers on the raw rows.
	labels := make([]int, len(x))
	for i, row := range x {
		pred, err := art.predictFull(row)
		if err != nil {
			return nil, fmt.Errorf("serve: labelling cascade row %d: %w", i, err)
		}
		labels[i] = pred.Label
	}

	// Shuffled split. The holdout rows calibrate the threshold, so they
	// must not have trained the stage.
	rng := rand.New(rand.NewSource(opt.Seed))
	perm := rng.Perm(len(x))
	nHold := len(x) / 4 // the calibration quarter
	if nHold < 2 {
		nHold = 2
	}
	hold, train := perm[:nHold], perm[nHold:]

	cheapAt := func(i int) []float64 { return features.CheapSlice(x[i]) }
	trainX := make([][]float64, len(train))
	trainY := make([]int, len(train))
	for k, i := range train {
		trainX[k] = cheapAt(i)
		trainY[k] = labels[i]
	}

	// Skew + min-max only: the stage has 8 inputs, a PCA would cost as
	// much as it saves on the hot path.
	pipeline, err := preprocess.FitPipeline(trainX, preprocess.Options{SkipPCA: true})
	if err != nil {
		return nil, fmt.Errorf("serve: fitting cascade preprocessing: %w", err)
	}
	var clf classify.Classifier
	switch opt.Model {
	case "logreg":
		clf = classify.NewLogReg()
	case "forest":
		clf = classify.NewForest(opt.Seed)
	default:
		return nil, fmt.Errorf("serve: cascade model %q has no probability estimate (want logreg or forest)", opt.Model)
	}
	if err := clf.Fit(preprocess.Apply(pipeline, trainX), trainY, len(art.Formats)); err != nil {
		return nil, fmt.Errorf("serve: fitting cascade %s: %w", opt.Model, err)
	}

	c := &Cascade{
		Indices:         append([]int(nil), features.CheapIndices[:]...),
		Classifier:      opt.Model,
		Pipeline:        pipeline,
		Clf:             clf,
		TargetAgreement: opt.TargetAgreement,
		HeldoutSize:     len(hold),
	}

	// Calibrate on the holdout: per row, the stage's confidence and
	// whether its answer matches the full model's.
	type calPoint struct {
		conf  float64
		agree bool
	}
	points := make([]calPoint, 0, len(hold))
	for _, i := range hold {
		label, conf, err := c.decide(cheapAt(i))
		if err != nil {
			return nil, err
		}
		points = append(points, calPoint{conf: conf, agree: label == labels[i]})
	}
	sort.Slice(points, func(a, b int) bool { return points[a].conf > points[b].conf })

	// Sweep thresholds from most to least confident; the prefix ending
	// at each distinct confidence is the answered subset at that
	// cutoff. Keep the largest prefix still meeting the target.
	best := -1 // points answered at the chosen threshold
	bestAgree := 0.0
	agreed := 0
	for k := 0; k < len(points); k++ {
		if points[k].agree {
			agreed++
		}
		// Only cut between distinct confidence values: a threshold
		// equal to points[k].conf answers every tied point too.
		if k+1 < len(points) && points[k+1].conf == points[k].conf {
			continue
		}
		if rate := float64(agreed) / float64(k+1); rate >= opt.TargetAgreement {
			best, bestAgree = k, rate
		}
	}
	if best < 0 {
		// Unattainable target: the stage ships disabled rather than
		// serving answers below the agreement bar.
		c.Threshold = 2
		return c, nil
	}
	c.Threshold = points[best].conf
	c.HeldoutAgreement = bestAgree
	c.HeldoutHitRate = float64(best+1) / float64(len(points))
	return c, nil
}
