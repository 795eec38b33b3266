// Package core is the top-level API of the library: a sparse-matrix
// format Selector that wraps the paper's semi-supervised pipeline
// (feature extraction, preprocessing, clustering, cluster labelling)
// behind a matrix-in / format-out interface, with explainable
// predictions and cheap architecture porting.
//
// Typical use:
//
//	sel, err := core.TrainSelector(matrices, bestFormats, core.Options{})
//	f := sel.Select(newMatrix)         // the recommended storage format
//	m, err := sel.Convert(newMatrix)   // the matrix converted to it
//	why := sel.Explain(newMatrix)      // which cluster and why
//
// Porting to a new architecture needs only a small set of matrices
// benchmarked there:
//
//	err = sel.Port(fewMatrices, theirBestFormatsOnTheNewGPU)
package core

import (
	"fmt"

	"repro/internal/features"
	"repro/internal/semisup"
	"repro/internal/sparse"
)

// Options configures TrainSelector. The selector always runs the
// paper's best configuration: K-Means, majority-vote cluster labels
// over every benchmarked label, and full preprocessing.
type Options struct {
	// NumClusters is K for K-Means (default 100).
	NumClusters int
	// Seed makes training reproducible.
	Seed int64
}

// Selector recommends a storage format for a sparse matrix.
type Selector struct {
	model *semisup.Model
}

// TrainSelector fits a Selector on matrices with their benchmarked best
// formats. Labels must only use the four kernel formats (COO, CSR, ELL,
// HYB).
func TrainSelector(matrices []*sparse.CSR, best []sparse.Format, opt Options) (*Selector, error) {
	if len(matrices) == 0 || len(matrices) != len(best) {
		return nil, fmt.Errorf("core: bad training input: %d matrices, %d labels", len(matrices), len(best))
	}
	y := make([]int, len(best))
	for i, f := range best {
		idx := formatIndex(f)
		if idx < 0 {
			return nil, fmt.Errorf("core: label %v at %d is not a kernel format", f, i)
		}
		y[i] = idx
	}
	x := features.Matrix(features.ExtractAll(matrices))
	cfg := semisup.Config{NumClusters: opt.NumClusters, Seed: opt.Seed}
	m, err := semisup.Train(x, y, sparse.NumKernelFormats, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: training selector: %w", err)
	}
	return &Selector{model: m}, nil
}

func formatIndex(f sparse.Format) int {
	for i, kf := range sparse.KernelFormats() {
		if kf == f {
			return i
		}
	}
	return -1
}

// Select returns the recommended storage format for a matrix.
func (s *Selector) Select(m *sparse.CSR) sparse.Format {
	idx := s.model.Predict(features.Extract(m).Slice())
	return sparse.KernelFormats()[idx]
}

// Model exposes the underlying semi-supervised model, e.g. for
// embedding in a serve artifact.
func (s *Selector) Model() *semisup.Model { return s.model }

// Convert returns the matrix converted to its recommended format.
func (s *Selector) Convert(m *sparse.CSR) (sparse.Matrix, error) {
	f := s.Select(m)
	out, err := sparse.Convert(m, f)
	if err != nil {
		// ELL may be infeasible for extreme shapes even when the cluster
		// label says ELL; fall back to the universal format.
		return m, fmt.Errorf("core: converting to recommended %v (matrix stays CSR): %w", f, err)
	}
	return out, nil
}

// Port re-labels the selector's clusters from matrices benchmarked on a
// different architecture — the paper's transfer-learning step. Only a
// few matrices per cluster are needed; clusters that receive no data
// keep their previous label.
func (s *Selector) Port(matrices []*sparse.CSR, best []sparse.Format) error {
	if len(matrices) == 0 || len(matrices) != len(best) {
		return fmt.Errorf("core: bad port input: %d matrices, %d labels", len(matrices), len(best))
	}
	y := make([]int, len(best))
	for i, f := range best {
		idx := formatIndex(f)
		if idx < 0 {
			return fmt.Errorf("core: label %v at %d is not a kernel format", f, i)
		}
		y[i] = idx
	}
	x := features.Matrix(features.ExtractAll(matrices))
	return s.model.Relabel(x, y)
}

// NumClusters exposes the model granularity.
func (s *Selector) NumClusters() int { return s.model.NumClusters() }

// Explanation describes why a matrix received its recommendation — the
// explainability the paper claims over black-box models.
type Explanation struct {
	// Format is the recommendation.
	Format sparse.Format
	// Cluster is the index of the matching cluster.
	Cluster int
	// ClusterSize is how many training matrices share the cluster.
	ClusterSize int
	// Features is the matrix's raw Table 1 feature vector.
	Features features.Vector
}

// String renders a one-line explanation.
func (e Explanation) String() string {
	return fmt.Sprintf("format %v via cluster %d (%d training matrices)",
		e.Format, e.Cluster, e.ClusterSize)
}

// Explain returns the cluster assignment behind Select.
func (s *Selector) Explain(m *sparse.CSR) Explanation {
	v := features.Extract(m)
	c := s.model.ClusterOf(v.Slice())
	return Explanation{
		Format:      sparse.KernelFormats()[s.model.ClusterLabel(c)],
		Cluster:     c,
		ClusterSize: s.model.ClusterSize(c),
		Features:    v,
	}
}

// Purity reports per-cluster purity on a labelled sample, the paper's
// cluster-quality measure.
func (s *Selector) Purity(matrices []*sparse.CSR, best []sparse.Format) (purity []float64, count []int, err error) {
	y := make([]int, len(best))
	for i, f := range best {
		idx := formatIndex(f)
		if idx < 0 {
			return nil, nil, fmt.Errorf("core: label %v at %d is not a kernel format", f, i)
		}
		y[i] = idx
	}
	x := features.Matrix(features.ExtractAll(matrices))
	return s.model.Purity(x, y)
}
