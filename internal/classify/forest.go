package classify

import (
	"math"
	"math/rand"

	"repro/internal/obs"
)

// Forest is a random forest: bootstrap-sampled CART trees with per-split
// feature subsampling, majority-voted. The paper's configuration is 100
// estimators with maximum depth 6.
type Forest struct {
	// Trees is the number of estimators (default 100, the paper's
	// setting).
	Trees int
	// MaxDepth bounds each tree (default 6, the paper's setting).
	MaxDepth int
	// MaxFeatures per split; 0 selects sqrt(d), the standard heuristic.
	MaxFeatures int
	// Seed drives bootstrapping and feature subsampling.
	Seed int64

	trees   []*Tree
	classes int
	fitted  bool
}

// NewForest returns a forest with the paper's hyperparameters.
func NewForest(seed int64) *Forest {
	return &Forest{Trees: 100, MaxDepth: 6, Seed: seed}
}

// Fit trains the estimators in parallel.
func (m *Forest) Fit(x [][]float64, y []int, classes int) error {
	if err := checkTrainingInput(x, y, classes); err != nil {
		return err
	}
	if m.Trees <= 0 {
		m.Trees = 100
	}
	if m.MaxDepth <= 0 {
		m.MaxDepth = 6
	}
	mf := m.MaxFeatures
	if mf <= 0 {
		mf = int(math.Sqrt(float64(len(x[0]))))
		if mf < 1 {
			mf = 1
		}
	}
	m.classes = classes
	m.trees = make([]*Tree, m.Trees)

	// Presort the training set once for every tree, and draw each
	// tree's bootstrap (as row multiplicities) and seed sequentially for
	// determinism; then grow the trees in parallel through the shared
	// obs pool (so forest training shows up in the parallel/regions and
	// parallel/workers metrics like every other parallel section). Each
	// goroutine writes only its own slot, so the fitted forest is
	// identical at any worker count.
	ps := presort(x)
	rng := rand.New(rand.NewSource(m.Seed))
	weights := make([][]int32, m.Trees)
	seeds := make([]int64, m.Trees)
	for t := range weights {
		w := make([]int32, len(x))
		for range x {
			w[rng.Intn(len(x))]++
		}
		weights[t] = w
		seeds[t] = rng.Int63()
	}

	obs.ParallelFor(m.Trees, func(t int) {
		tree := NewTree(m.MaxDepth)
		tree.MaxFeatures = mf
		tree.Seed = seeds[t]
		tree.fit(ps, y, weights[t], classes)
		m.trees[t] = tree
	})
	m.fitted = true
	return nil
}

// Predict majority-votes the estimators.
func (m *Forest) Predict(x []float64) int {
	if !m.fitted {
		return 0
	}
	votes := make([]int, m.classes)
	for _, t := range m.trees {
		votes[t.Predict(x)]++
	}
	return argmax1(votes)
}

// PredictAll classifies every row, fanning the rows out over the shared
// obs worker pool; each row walks all estimators, so per-item work is
// far above the dispatch cost. The trees are read-only after Fit.
func (m *Forest) PredictAll(x [][]float64) []int {
	out := make([]int, len(x))
	obs.ParallelFor(len(x), func(i int) {
		out[i] = m.Predict(x[i])
	})
	return out
}

// Proba returns the per-class vote shares, the forest's probability
// estimate.
func (m *Forest) Proba(x []float64) []float64 {
	p := make([]float64, m.classes)
	if !m.fitted {
		return p
	}
	for _, t := range m.trees {
		p[t.Predict(x)]++
	}
	for i := range p {
		p[i] /= float64(len(m.trees))
	}
	return p
}

// Importances returns the mean normalised Gini importances of the
// estimators — which Table 1 features actually drive format selection.
func (m *Forest) Importances() []float64 {
	if !m.fitted || len(m.trees) == 0 {
		return nil
	}
	imp := make([]float64, len(m.trees[0].Importances()))
	for _, t := range m.trees {
		for j, v := range t.Importances() {
			imp[j] += v
		}
	}
	normalize(imp)
	return imp
}

var _ Classifier = (*Forest)(nil)
