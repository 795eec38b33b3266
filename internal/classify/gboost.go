package classify

import (
	"math"
	"slices"
	"sort"

	"repro/internal/obs"
)

// GBoost is gradient-boosted decision trees in the XGBoost style:
// second-order (gradient/hessian) softmax boosting with one regression
// tree per class per round, histogram-based split finding (features are
// quantile-binned once, splits scan at most maxBins buckets per feature)
// and the standard XGBoost split-gain formula. The paper's configuration
// is a 0.1 learning rate and 100 rounds.
type GBoost struct {
	// Rounds is the number of boosting rounds (default 100, the paper's
	// setting).
	Rounds int
	// LR is the shrinkage (default 0.1, the paper's setting).
	LR float64
	// MaxDepth bounds each regression tree (default 4).
	MaxDepth int
	// Lambda is the L2 leaf regularisation (default 1).
	Lambda float64
	// MinChildWeight is the smallest hessian sum a leaf may have
	// (default 1).
	MinChildWeight float64

	trees   [][]*regTree // [round][class]
	classes int
	fitted  bool
}

// maxBins is the histogram resolution; 256 quantile bins is XGBoost's
// own default and indistinguishable from exact splits at this data size.
const maxBins = 256

// NewGBoost returns a model with the paper's hyperparameters.
func NewGBoost() *GBoost {
	return &GBoost{Rounds: 100, LR: 0.1, MaxDepth: 4, Lambda: 1, MinChildWeight: 1}
}

// regTree is a regression tree over (gradient, hessian) targets. Split
// thresholds are stored as real feature values so prediction needs no
// binning.
type regTree struct {
	feature     int
	threshold   float64
	left, right *regTree
	value       float64
	leaf        bool
}

func (t *regTree) eval(x []float64) float64 {
	for !t.leaf {
		if x[t.feature] <= t.threshold {
			t = t.left
		} else {
			t = t.right
		}
	}
	return t.value
}

// binning holds the quantile discretisation shared by every tree.
type binning struct {
	// cuts[f] are ascending bin upper edges; value v falls in the first
	// bin with v <= cuts[f][b], and in bin len(cuts[f]) when above all.
	cuts [][]float64
	// idx[f][i] is row i's bin for feature f.
	idx [][]uint8
}

// buildBinning computes per-feature quantile cut points and bins every
// row.
func buildBinning(x [][]float64) *binning {
	n, d := len(x), len(x[0])
	b := &binning{cuts: make([][]float64, d), idx: make([][]uint8, d)}
	vals := make([]float64, n)
	for f := 0; f < d; f++ {
		for i, row := range x {
			vals[i] = row[f]
		}
		slices.Sort(vals)
		// Distinct quantile edges.
		var cuts []float64
		for q := 1; q < maxBins; q++ {
			v := vals[q*(n-1)/maxBins]
			if len(cuts) == 0 || v > cuts[len(cuts)-1] {
				cuts = append(cuts, v)
			}
		}
		b.cuts[f] = cuts
		col := make([]uint8, n)
		for i, row := range x {
			col[i] = uint8(sort.SearchFloat64s(cuts, row[f]))
		}
		b.idx[f] = col
	}
	return b
}

// Fit runs softmax gradient boosting. A round's per-class trees share
// only the gradients computed before them, so they grow in parallel
// through the shared obs pool; each writes its own class's scores, so
// the model is identical at any worker count.
func (m *GBoost) Fit(x [][]float64, y []int, classes int) error {
	if err := checkTrainingInput(x, y, classes); err != nil {
		return err
	}
	if m.Rounds <= 0 {
		m.Rounds = 100
	}
	if m.LR <= 0 {
		m.LR = 0.1
	}
	if m.MaxDepth <= 0 {
		m.MaxDepth = 4
	}
	if m.Lambda <= 0 {
		m.Lambda = 1
	}
	if m.MinChildWeight <= 0 {
		m.MinChildWeight = 1
	}
	m.classes = classes
	n := len(x)
	bins := buildBinning(x)

	// Raw scores, gradients and hessians per class per sample, and each
	// class's row buffers for growing its trees.
	scores := make([][]float64, classes)
	grad := make([][]float64, classes)
	hess := make([][]float64, classes)
	rows := make([][]int32, classes)
	scratch := make([][]int32, classes)
	for c := range grad {
		scores[c] = make([]float64, n)
		grad[c] = make([]float64, n)
		hess[c] = make([]float64, n)
		rows[c] = make([]int32, n)
		scratch[c] = make([]int32, n)
	}
	probs := make([]float64, classes)

	m.trees = make([][]*regTree, 0, m.Rounds)
	for round := 0; round < m.Rounds; round++ {
		// Softmax gradients and hessians.
		for i := 0; i < n; i++ {
			maxZ := math.Inf(-1)
			for c := 0; c < classes; c++ {
				if scores[c][i] > maxZ {
					maxZ = scores[c][i]
				}
			}
			sum := 0.0
			for c := 0; c < classes; c++ {
				probs[c] = math.Exp(scores[c][i] - maxZ)
				sum += probs[c]
			}
			for c := 0; c < classes; c++ {
				p := probs[c] / sum
				g := p
				if y[i] == c {
					g -= 1
				}
				grad[c][i] = g
				hess[c][i] = p * (1 - p)
			}
		}
		roundTrees := make([]*regTree, classes)
		obs.ParallelFor(classes, func(c int) {
			for i := range rows[c] {
				rows[c][i] = int32(i)
			}
			tree := m.growReg(bins, grad[c], hess[c], rows[c], scratch[c], 0)
			roundTrees[c] = tree
			for i := 0; i < n; i++ {
				scores[c][i] += m.LR * tree.eval(x[i])
			}
		})
		m.trees = append(m.trees, roundTrees)
	}
	m.fitted = true
	return nil
}

// growReg builds a regression tree on the gradient/hessian targets of
// the samples in rows (ascending) using histogram split finding. A
// split stably partitions rows in place, using scratch, so every node
// sums its rows in ascending order.
func (m *GBoost) growReg(bins *binning, g, h []float64, rows, scratch []int32, depth int) *regTree {
	var gSum, hSum float64
	for _, i := range rows {
		gSum += g[i]
		hSum += h[i]
	}
	node := &regTree{leaf: true, value: -gSum / (hSum + m.Lambda)}
	if depth >= m.MaxDepth || len(rows) < 2 {
		return node
	}

	parentScore := gSum * gSum / (hSum + m.Lambda)
	bestGain := 1e-9
	bestFeat, bestBin := -1, 0

	var histG, histH [maxBins]float64
	for f, cuts := range bins.cuts {
		nCuts := len(cuts)
		if nCuts == 0 {
			continue // constant feature
		}
		for b := 0; b <= nCuts; b++ {
			histG[b] = 0
			histH[b] = 0
		}
		col := bins.idx[f]
		for _, i := range rows {
			b := col[i]
			histG[b] += g[i]
			histH[b] += h[i]
		}
		var gl, hl float64
		for b := 0; b < nCuts; b++ { // split after bin b: left = bins <= b
			gl += histG[b]
			hl += histH[b]
			gr, hr := gSum-gl, hSum-hl
			if hl < m.MinChildWeight || hr < m.MinChildWeight {
				continue
			}
			gain := gl*gl/(hl+m.Lambda) + gr*gr/(hr+m.Lambda) - parentScore
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestBin = b
			}
		}
	}
	if bestFeat < 0 {
		return node
	}
	col, right := bins.idx[bestFeat], scratch[:0]
	nl := 0
	for _, i := range rows {
		if int(col[i]) <= bestBin {
			rows[nl] = i
			nl++
		} else {
			right = append(right, i)
		}
	}
	copy(rows[nl:], right)
	if nl == 0 || nl == len(rows) {
		return node
	}
	node.leaf = false
	node.feature = bestFeat
	node.threshold = bins.cuts[bestFeat][bestBin]
	node.left = m.growReg(bins, g, h, rows[:nl], scratch, depth+1)
	node.right = m.growReg(bins, g, h, rows[nl:], scratch, depth+1)
	return node
}

// Predict sums the per-class tree outputs and returns the argmax.
func (m *GBoost) Predict(x []float64) int {
	if !m.fitted {
		return 0
	}
	scores := make([]float64, m.classes)
	for _, round := range m.trees {
		for c, t := range round {
			scores[c] += t.eval(x)
		}
	}
	return argmax(scores)
}

var _ Classifier = (*GBoost)(nil)
