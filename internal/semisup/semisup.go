// Package semisup implements the paper's contribution: semi-supervised
// sparse-format selection by clustering matrices in a preprocessed
// feature space and assigning each cluster an optimal format.
//
// The pipeline (Section 4 of the paper):
//
//  1. fit the preprocessing chain (log/sqrt transform, min-max scaling,
//     PCA to 8 components) on the training features;
//  2. cluster the transformed training set with K-Means, Mean-Shift or
//     Birch;
//  3. assign each cluster a format label with one of three rules —
//     majority VOTE over the benchmarked members, Logistic Regression,
//     or Random Forest — using only the members whose ground truth has
//     actually been benchmarked (the semi-supervised part: a fraction of
//     the members suffices);
//  4. classify a new matrix by the label of the cluster whose centroid
//     is nearest to it.
//
// Because the features and therefore the clusters are architecture
// invariant, porting to a new GPU only requires re-running step 3 with a
// few benchmarked matrices per cluster (Relabel), which is the paper's
// transfer-learning story.
package semisup

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/preprocess"
)

// Algorithm selects the clustering algorithm.
type Algorithm string

// The clustering algorithms of the paper's Section 4.
const (
	AlgoKMeans    Algorithm = "kmeans"
	AlgoMeanShift Algorithm = "meanshift"
	AlgoBirch     Algorithm = "birch"
)

// Rule selects the cluster-labelling rule.
type Rule string

// The labelling rules of the paper's Section 4: majority vote, logistic
// regression and random forest.
const (
	RuleVote Rule = "vote"
	RuleLR   Rule = "lr"
	RuleRF   Rule = "rf"
)

// Config configures Train.
type Config struct {
	// Algorithm is the clustering algorithm (default AlgoKMeans).
	Algorithm Algorithm
	// Rule is the cluster-labelling rule (default RuleVote).
	Rule Rule
	// NumClusters is K for K-Means and Birch; Mean-Shift ignores it and
	// discovers its own cluster count. Default 100.
	NumClusters int
	// BenchmarkFraction in (0, 1] is the fraction of training matrices
	// whose ground-truth label is revealed to the labelling rule — the
	// paper's "benchmark only a few matrices per cluster". Default 1.
	BenchmarkFraction float64
	// Preprocess configures the feature pipeline (defaults to the
	// paper's full chain).
	Preprocess preprocess.Options
	// Seed drives clustering and the benchmark sample.
	Seed int64
}

// Model is a trained semi-supervised format selector.
type Model struct {
	cfg      Config
	pipeline preprocess.Chain
	clust    cluster.Clusterer
	// labels[c] is the format assigned to cluster c; -1 when the rule
	// had no data for the cluster (falls back to majority class).
	labels   []int
	fallback int // global majority class among revealed labels
	classes  int
	// memberCount[c] tracks training cluster sizes for explainability.
	memberCount []int
}

// Train fits the full pipeline on raw feature rows x with ground-truth
// format labels y in [0, classes).
func Train(x [][]float64, y []int, classes int, cfg Config) (*Model, error) {
	return TrainCtx(context.Background(), x, y, classes, cfg)
}

// TrainCtx is Train with a context parenting the obs spans of the three
// pipeline stages ("semisup/train" with children "preprocess",
// "cluster/<algo>" and "label/<rule>").
func TrainCtx(ctx context.Context, x [][]float64, y []int, classes int, cfg Config) (*Model, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("semisup: bad training input: %d rows, %d labels", len(x), len(y))
	}
	if classes < 2 {
		return nil, fmt.Errorf("semisup: need >= 2 classes, got %d", classes)
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = AlgoKMeans
	}
	if cfg.Rule == "" {
		cfg.Rule = RuleVote
	}
	if cfg.NumClusters <= 0 {
		cfg.NumClusters = 100
	}
	if cfg.BenchmarkFraction <= 0 || cfg.BenchmarkFraction > 1 {
		cfg.BenchmarkFraction = 1
	}
	ctx, span := obs.Start(ctx, "semisup/train")
	defer span.End()
	span.SetMetric("rows", float64(len(x)))

	_, psp := obs.Start(ctx, "preprocess")
	pipeline, err := preprocess.FitPipeline(x, cfg.Preprocess)
	if err != nil {
		psp.End()
		return nil, fmt.Errorf("semisup: fitting preprocessing: %w", err)
	}
	tx := preprocess.Apply(pipeline, x)
	psp.End()

	var cl cluster.Clusterer
	switch cfg.Algorithm {
	case AlgoKMeans:
		cl = cluster.NewKMeans(cfg.NumClusters, cfg.Seed)
	case AlgoMeanShift:
		cl = cluster.NewMeanShift(cfg.Seed)
	case AlgoBirch:
		cl = cluster.NewBirch(cfg.NumClusters, cfg.Seed)
	default:
		return nil, fmt.Errorf("semisup: unknown clustering algorithm %q", cfg.Algorithm)
	}
	_, csp := obs.Start(ctx, "cluster/"+string(cfg.Algorithm))
	if err := cl.Fit(tx); err != nil {
		csp.End()
		return nil, fmt.Errorf("semisup: clustering: %w", err)
	}
	csp.SetMetric("clusters", float64(cl.NumClusters()))
	if km, ok := cl.(*cluster.KMeans); ok {
		csp.SetMetric("iterations", float64(km.Iterations()))
	}
	csp.End()

	m := &Model{
		cfg:      cfg,
		pipeline: pipeline,
		clust:    cl,
		classes:  classes,
	}
	m.memberCount = make([]int, cl.NumClusters())
	for _, c := range cl.Labels() {
		m.memberCount[c]++
	}

	// Reveal the benchmarked subset and label the clusters.
	_, lsp := obs.Start(ctx, "label/"+string(cfg.Rule))
	revealed := m.sampleRevealed(len(x))
	if err := m.labelClusters(tx, y, cl.Labels(), revealed); err != nil {
		lsp.End()
		return nil, err
	}
	lsp.End()
	return m, nil
}

// sampleRevealed picks the benchmarked subset deterministically.
func (m *Model) sampleRevealed(n int) []bool {
	revealed := make([]bool, n)
	if m.cfg.BenchmarkFraction >= 1 {
		for i := range revealed {
			revealed[i] = true
		}
		return revealed
	}
	rng := rand.New(rand.NewSource(m.cfg.Seed + 101))
	count := int(m.cfg.BenchmarkFraction * float64(n))
	if count < 1 {
		count = 1
	}
	for _, idx := range rng.Perm(n)[:count] {
		revealed[idx] = true
	}
	return revealed
}

// labelClusters assigns a format to every cluster from the revealed
// members, applying the configured rule.
func (m *Model) labelClusters(tx [][]float64, y []int, assign []int, revealed []bool) error {
	k := m.clust.NumClusters()
	m.labels = make([]int, k)
	for c := range m.labels {
		m.labels[c] = -1
	}

	// Global fallback: majority among revealed labels.
	global := make([]int, m.classes)
	var rx [][]float64
	var ry []int
	for i, ok := range revealed {
		if !ok {
			continue
		}
		global[y[i]]++
		rx = append(rx, tx[i])
		ry = append(ry, y[i])
	}
	if len(ry) == 0 {
		return fmt.Errorf("semisup: no revealed labels to assign clusters")
	}
	m.fallback = argmax(global)

	switch m.cfg.Rule {
	case RuleVote:
		counts := make([][]int, k)
		for c := range counts {
			counts[c] = make([]int, m.classes)
		}
		for i, ok := range revealed {
			if ok {
				counts[assign[i]][y[i]]++
			}
		}
		for c := range m.labels {
			if sum(counts[c]) > 0 {
				m.labels[c] = argmax(counts[c])
			}
		}
	case RuleLR, RuleRF:
		var clf classify.Classifier
		if m.cfg.Rule == RuleLR {
			clf = classify.NewLogReg()
		} else {
			clf = classify.NewForest(m.cfg.Seed + 7)
		}
		if err := clf.Fit(rx, ry, m.classes); err != nil {
			return fmt.Errorf("semisup: fitting %s labelling rule: %w", m.cfg.Rule, err)
		}
		// Each cluster is labelled by the rule's vote over its members
		// (all members, labelled or not — the classifier generalises).
		votes := make([][]int, k)
		for c := range votes {
			votes[c] = make([]int, m.classes)
		}
		for i, p := range tx {
			votes[assign[i]][clf.Predict(p)]++
		}
		for c := range m.labels {
			if sum(votes[c]) > 0 {
				m.labels[c] = argmax(votes[c])
			}
		}
	default:
		return fmt.Errorf("semisup: unknown labelling rule %q", m.cfg.Rule)
	}
	return nil
}

func sum(v []int) int {
	s := 0
	for _, x := range v {
		s += x
	}
	return s
}

func argmax(v []int) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// NumClusters returns the number of clusters in the fitted model.
func (m *Model) NumClusters() int { return m.clust.NumClusters() }

// ClusterOf returns the cluster a raw feature vector falls into.
func (m *Model) ClusterOf(x []float64) int {
	return m.clust.Assign(m.pipeline.Transform(x))
}

// ClusterLabel returns the format label of cluster c (the fallback class
// when the cluster received no benchmarked data).
func (m *Model) ClusterLabel(c int) int {
	if l := m.labels[c]; l >= 0 {
		return l
	}
	return m.fallback
}

// ClusterSize returns the training membership count of cluster c.
func (m *Model) ClusterSize(c int) int { return m.memberCount[c] }

// Predict returns the format label for a raw feature vector: the label
// of its nearest cluster.
func (m *Model) Predict(x []float64) int {
	return m.ClusterLabel(m.ClusterOf(x))
}

// InDim returns the raw feature dimension the model was fitted on.
func (m *Model) InDim() int { return m.pipeline.InDim() }

// Classes returns the number of format classes the model labels.
func (m *Model) Classes() int { return m.classes }

// PredictChecked is Predict with input validation: it rejects feature
// vectors whose dimension does not match the fitted pipeline instead of
// silently truncating or padding them. Serving paths that accept
// untrusted client vectors must use this entry point.
func (m *Model) PredictChecked(x []float64) (int, error) {
	tx, err := m.pipeline.TransformChecked(x)
	if err != nil {
		return 0, fmt.Errorf("semisup: %w", err)
	}
	return m.ClusterLabel(m.clust.Assign(tx)), nil
}

// PredictAll classifies every row, fanning the rows out over the shared
// obs worker pool. The fitted pipeline and clusterer are read-only
// during prediction (Transform copies its input), so row-parallelism is
// safe; the positional output keeps the result identical to a
// sequential loop.
func (m *Model) PredictAll(x [][]float64) []int {
	out := make([]int, len(x))
	obs.ParallelFor(len(x), func(i int) {
		out[i] = m.Predict(x[i])
	})
	return out
}

// Relabel re-assigns cluster labels from a new set of benchmarked
// matrices — the transfer-learning step when porting to a different
// architecture. Clusters that receive no new data keep their current
// label, so Relabel with a small sample ports the model cheaply. The
// rows must be raw (untransformed) features.
func (m *Model) Relabel(x [][]float64, y []int) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("semisup: bad relabel input: %d rows, %d labels", len(x), len(y))
	}
	tx := preprocess.Apply(m.pipeline, x)
	assign := make([]int, len(tx))
	for i, p := range tx {
		assign[i] = m.clust.Assign(p)
	}
	old := m.labels
	revealed := make([]bool, len(x))
	for i := range revealed {
		revealed[i] = true
	}
	if err := m.labelClusters(tx, y, assign, revealed); err != nil {
		m.labels = old
		return err
	}
	// Keep the previous label where the new data said nothing.
	for c, l := range m.labels {
		if l < 0 {
			m.labels[c] = old[c]
		}
	}
	if obs.Enabled() {
		obs.Default.Counter("semisup/relabels").Inc()
	}
	return nil
}

// Purity returns the per-cluster purity of a labelled sample (the
// paper's purity definition: the share of the cluster's dominant format)
// together with each cluster's sample count. Clusters the sample never
// touches have purity 0 and count 0.
func (m *Model) Purity(x [][]float64, y []int) (purity []float64, count []int, err error) {
	if len(x) != len(y) {
		return nil, nil, fmt.Errorf("semisup: purity input mismatch: %d rows, %d labels", len(x), len(y))
	}
	k := m.clust.NumClusters()
	hist := make([][]int, k)
	for c := range hist {
		hist[c] = make([]int, m.classes)
	}
	for i, row := range x {
		c := m.ClusterOf(row)
		if y[i] < 0 || y[i] >= m.classes {
			return nil, nil, fmt.Errorf("semisup: label %d out of range", y[i])
		}
		hist[c][y[i]]++
	}
	purity = make([]float64, k)
	count = make([]int, k)
	for c := range hist {
		n := sum(hist[c])
		count[c] = n
		if n > 0 {
			purity[c] = float64(hist[c][argmax(hist[c])]) / float64(n)
		}
	}
	return purity, count, nil
}
