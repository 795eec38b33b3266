// Package eval orchestrates the paper's experiments: it builds the
// benchmark corpus, runs the cross-validated local and transfer
// evaluations of the semi-supervised and supervised models, and renders
// each of the paper's Tables 1-9 as text.
package eval

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/gpusim"
	"repro/internal/obs"
)

// Options configures the experiment scale.
type Options struct {
	// Dataset configures collection generation.
	Dataset dataset.Config
	// Folds is the cross-validation fold count (the paper uses 5).
	Folds int
	// NCSweep lists the cluster counts tried for K-Means and Birch; the
	// best-MCC configuration is reported, as in the paper.
	NCSweep []int
	// TransferNC is the cluster count used in the transfer experiments.
	TransferNC int
	// CNNEpochs caps CNN training epochs (the full 30 is expensive).
	CNNEpochs int
	// Seed drives fold assignment and model seeds.
	Seed int64
}

// PaperOptions is the full-scale configuration used by cmd/spmvselect.
func PaperOptions() Options {
	return Options{
		Dataset:    dataset.DefaultConfig(),
		Folds:      5,
		NCSweep:    []int{50, 100, 200, 400},
		TransferNC: 200,
		CNNEpochs:  8,
		Seed:       1,
	}
}

// QuickOptions is a reduced configuration for tests and benchmarks.
func QuickOptions() Options {
	return Options{
		Dataset: dataset.Config{
			Seed: 1, BaseCount: 84, AugmentPerBase: 1, Scale: 0.45,
			DropELLFailures: true,
		},
		Folds:      3,
		NCSweep:    []int{20, 40},
		TransferNC: 30,
		CNNEpochs:  3,
		Seed:       1,
	}
}

// Env is the shared experimental environment: the corpus, its
// per-architecture datasets, the aligned common subset and the density
// images for the CNN.
type Env struct {
	Corpus *dataset.Corpus
	Archs  []gpusim.Arch
	// Common maps architecture name to the aligned common-subset data.
	Common map[string]*dataset.ArchData
	// Images[i] is the CNN density image of Corpus.Items[i].
	Images [][]float64
}

// NewEnv generates the collection and simulates the benchmark on every
// architecture. The ctx parents the obs spans of the corpus stages; pass
// context.Background() when not tracing.
func NewEnv(ctx context.Context, opt Options) (*Env, error) {
	ctx, span := obs.Start(ctx, "corpus")
	defer span.End()
	_, gsp := obs.Start(ctx, "generate")
	items, err := dataset.Generate(opt.Dataset)
	gsp.SetMetric("items", float64(len(items)))
	gsp.End()
	if err != nil {
		return nil, fmt.Errorf("eval: generating collection: %w", err)
	}
	archs := gpusim.Archs()
	corpus := dataset.Build(ctx, items, archs)
	_, csp := obs.Start(ctx, "common")
	common, err := corpus.CommonSubset(archs)
	csp.End()
	if err != nil {
		return nil, fmt.Errorf("eval: common subset: %w", err)
	}
	_, isp := obs.Start(ctx, "images")
	images := make([][]float64, len(items))
	obs.ParallelFor(len(items), func(i int) {
		images[i] = classify.DensityImage(items[i].Matrix)
	})
	isp.End()
	return &Env{Corpus: corpus, Archs: archs, Common: common, Images: images}, nil
}

// ImagesFor returns the density images aligned with the rows of d.
func (e *Env) ImagesFor(d *dataset.ArchData) [][]float64 {
	out := make([][]float64, d.Len())
	for row, idx := range d.Index {
		out[row] = e.Images[idx]
	}
	return out
}

// StratifiedFolds splits sample indices into k folds, keeping each
// class's share roughly constant across folds. It returns, per fold, the
// list of test indices; the remaining indices form that fold's training
// set.
func StratifiedFolds(labels []int, k int, seed int64) [][]int {
	if k < 2 {
		k = 2
	}
	rng := rand.New(rand.NewSource(seed))
	byClass := map[int][]int{}
	for i, l := range labels {
		byClass[l] = append(byClass[l], i)
	}
	folds := make([][]int, k)
	// Deterministic class order.
	maxClass := 0
	for l := range byClass {
		if l > maxClass {
			maxClass = l
		}
	}
	for l := 0; l <= maxClass; l++ {
		idx := byClass[l]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for j, i := range idx {
			folds[j%k] = append(folds[j%k], i)
		}
	}
	return folds
}

// trainTestSplit materialises the train rows for a fold given its test
// indices.
func trainTestSplit(n int, test []int) (train []int) {
	inTest := make([]bool, n)
	for _, i := range test {
		inTest[i] = true
	}
	for i := 0; i < n; i++ {
		if !inTest[i] {
			train = append(train, i)
		}
	}
	return train
}

// gather selects rows of a feature matrix.
func gather(x [][]float64, idx []int) [][]float64 {
	out := make([][]float64, len(idx))
	for k, i := range idx {
		out[k] = x[i]
	}
	return out
}

// gatherInts selects elements of an int slice.
func gatherInts(y []int, idx []int) []int {
	out := make([]int, len(idx))
	for k, i := range idx {
		out[k] = y[i]
	}
	return out
}
