package classify

import (
	"container/heap"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/sparse"
)

// gaussianTask builds a linearly separable 3-class problem.
func gaussianTask(rng *rand.Rand, n int) (x [][]float64, y []int) {
	centres := [][]float64{{0, 0, 0}, {4, 4, 0}, {0, 4, 4}}
	for i := 0; i < n; i++ {
		c := rng.Intn(3)
		p := make([]float64, 3)
		for j := range p {
			p[j] = centres[c][j] + rng.NormFloat64()*0.6
		}
		x = append(x, p)
		y = append(y, c)
	}
	return x, y
}

// xorTask builds a nonlinearly separable 2-class problem (XOR layout)
// that linear models cannot solve but trees must.
func xorTask(rng *rand.Rand, n int) (x [][]float64, y []int) {
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		cls := 0
		if (a > 0) != (b > 0) {
			cls = 1
		}
		x = append(x, []float64{a, b})
		y = append(y, cls)
	}
	return x, y
}

func accuracy(pred, want []int) float64 {
	hit := 0
	for i := range pred {
		if pred[i] == want[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(pred))
}

// fitAndScore trains on the first 70% and scores on the rest.
func fitAndScore(t *testing.T, m Classifier, x [][]float64, y []int, classes int) float64 {
	t.Helper()
	cut := len(x) * 7 / 10
	if err := m.Fit(x[:cut], y[:cut], classes); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	return accuracy(PredictAll(m, x[cut:]), y[cut:])
}

func TestAllModelsLearnGaussianTask(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := gaussianTask(rng, 600)
	models := map[string]Classifier{
		"knn":    NewKNN(5),
		"tree":   NewTree(8),
		"forest": NewForest(1),
		"logreg": NewLogReg(),
		"svm":    NewSVM(1),
		"gboost": func() *GBoost { g := NewGBoost(); g.Rounds = 30; return g }(),
	}
	for name, m := range models {
		if acc := fitAndScore(t, m, x, y, 3); acc < 0.9 {
			t.Errorf("%s: accuracy %.3f on separable gaussians, want >= 0.9", name, acc)
		}
	}
}

func TestTreesSolveXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := xorTask(rng, 600)
	for name, m := range map[string]Classifier{
		"tree":   NewTree(8),
		"forest": NewForest(2),
		"gboost": func() *GBoost { g := NewGBoost(); g.Rounds = 30; return g }(),
		"knn":    NewKNN(5),
	} {
		if acc := fitAndScore(t, m, x, y, 2); acc < 0.9 {
			t.Errorf("%s: accuracy %.3f on XOR, want >= 0.9", name, acc)
		}
	}
	// A linear model must fail XOR — this guards against the tree tests
	// passing for trivial reasons.
	lin := NewSVM(3)
	if acc := fitAndScore(t, lin, x, y, 2); acc > 0.75 {
		t.Errorf("linear SVM solved XOR (%.3f); the task generator is broken", acc)
	}
}

func TestFitInputValidation(t *testing.T) {
	good := [][]float64{{1, 2}, {3, 4}}
	models := []Classifier{NewKNN(3), NewTree(3), NewForest(1), NewLogReg(), NewSVM(1), NewGBoost()}
	for _, m := range models {
		if err := m.Fit(nil, nil, 2); err == nil {
			t.Errorf("%T: empty input accepted", m)
		}
	}
	models = []Classifier{NewKNN(3), NewTree(3), NewForest(1), NewLogReg(), NewSVM(1), NewGBoost()}
	for _, m := range models {
		if err := m.Fit(good, []int{0}, 2); err == nil {
			t.Errorf("%T: length mismatch accepted", m)
		}
	}
	models = []Classifier{NewKNN(3), NewTree(3), NewForest(1), NewLogReg(), NewSVM(1), NewGBoost()}
	for _, m := range models {
		if err := m.Fit(good, []int{0, 5}, 2); err == nil {
			t.Errorf("%T: out-of-range label accepted", m)
		}
	}
	models = []Classifier{NewKNN(3), NewTree(3), NewForest(1), NewLogReg(), NewSVM(1), NewGBoost()}
	for _, m := range models {
		if err := m.Fit([][]float64{{1}, {1, 2}}, []int{0, 1}, 2); err == nil {
			t.Errorf("%T: ragged input accepted", m)
		}
	}
}

func TestTreeDepthBound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := gaussianTask(rng, 300)
	tr := NewTree(3)
	if err := tr.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	if d := tr.Depth(); d > 3 {
		t.Errorf("tree depth %d exceeds bound 3", d)
	}
}

func TestTreePureLeafShortCircuit(t *testing.T) {
	// Single-class data must yield a single leaf.
	x := [][]float64{{1}, {2}, {3}}
	y := []int{1, 1, 1}
	tr := NewTree(5)
	if err := tr.Fit(x, y, 2); err != nil {
		t.Fatal(err)
	}
	if tr.Depth() != 0 {
		t.Errorf("pure data grew depth %d", tr.Depth())
	}
	if tr.Predict([]float64{0}) != 1 {
		t.Error("pure tree mispredicts")
	}
}

func TestForestDeterministicGivenSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := gaussianTask(rng, 200)
	a, b := NewForest(9), NewForest(9)
	a.Trees, b.Trees = 10, 10
	if err := a.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		p := []float64{rng.Float64() * 5, rng.Float64() * 5, rng.Float64() * 5}
		if a.Predict(p) != b.Predict(p) {
			t.Fatal("same-seed forests disagree")
		}
	}
}

func TestKNNExactNeighbours(t *testing.T) {
	x := [][]float64{{0}, {1}, {10}, {11}, {12}}
	y := []int{0, 0, 1, 1, 1}
	m := NewKNN(3)
	if err := m.Fit(x, y, 2); err != nil {
		t.Fatal(err)
	}
	if m.Predict([]float64{0.4}) != 0 {
		t.Error("query near class 0 misclassified")
	}
	if m.Predict([]float64{10.6}) != 1 {
		t.Error("query near class 1 misclassified")
	}
}

func TestKNNWeighted(t *testing.T) {
	// Two class-0 points far away, one class-1 point exactly at the
	// query: inverse-distance weighting must prefer class 1 while
	// uniform voting picks class 0.
	x := [][]float64{{0}, {5.2}, {5.4}}
	y := []int{1, 0, 0}
	uni := NewKNN(3)
	if err := uni.Fit(x, y, 2); err != nil {
		t.Fatal(err)
	}
	wgt := &KNN{K: 3, Weighted: true}
	if err := wgt.Fit(x, y, 2); err != nil {
		t.Fatal(err)
	}
	q := []float64{0.01}
	if uni.Predict(q) != 0 {
		t.Error("uniform KNN should be fooled by the far majority")
	}
	if wgt.Predict(q) != 1 {
		t.Error("weighted KNN should favour the near neighbour")
	}
}

func TestLogRegProbabilitiesSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y := gaussianTask(rng, 200)
	m := NewLogReg()
	if err := m.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	p := m.Proba(x[0])
	sum := 0.0
	for _, v := range p {
		if v < 0 || v > 1 {
			t.Fatalf("probability %v outside [0,1]", v)
		}
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestUnbalancedDataMajorityPull(t *testing.T) {
	// 95% of labels are class 0: every model should still beat the
	// majority-class baseline on the minority when it is separable.
	rng := rand.New(rand.NewSource(7))
	var x [][]float64
	var y []int
	for i := 0; i < 500; i++ {
		if i%20 == 0 {
			x = append(x, []float64{10 + rng.NormFloat64()*0.2})
			y = append(y, 1)
		} else {
			x = append(x, []float64{rng.NormFloat64()})
			y = append(y, 0)
		}
	}
	for name, m := range map[string]Classifier{
		"tree": NewTree(4), "knn": NewKNN(3),
	} {
		if err := m.Fit(x, y, 2); err != nil {
			t.Fatal(err)
		}
		if m.Predict([]float64{10}) != 1 {
			t.Errorf("%s: minority class unlearnable even when separable", name)
		}
	}
}

func TestDensityImageProperties(t *testing.T) {
	// 96 divides evenly into 16 cells (6 entries each), so all diagonal
	// cells carry the same count and normalise to exactly 1.
	tr := sparse.NewTriplet(96, 96)
	for i := 0; i < 96; i++ {
		if err := tr.Add(i, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	img := DensityImage(tr.ToCSR())
	if len(img) != ImageSize*ImageSize {
		t.Fatalf("image length %d", len(img))
	}
	// A diagonal matrix fills exactly the diagonal cells with the same
	// normalised intensity 1, everything else 0.
	for i := 0; i < ImageSize; i++ {
		for j := 0; j < ImageSize; j++ {
			v := img[i*ImageSize+j]
			if i == j && v != 1 {
				t.Errorf("diagonal cell (%d,%d) = %v, want 1", i, j, v)
			}
			if i != j && v != 0 {
				t.Errorf("off-diagonal cell (%d,%d) = %v, want 0", i, j, v)
			}
		}
	}
	if n := len(DensityImages([]*sparse.CSR{tr.ToCSR(), tr.ToCSR()})); n != 2 {
		t.Error("DensityImages batch wrong")
	}
}

func TestCNNLearnsImageTask(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN training in -short mode")
	}
	// Distinguish diagonal-band images from top-row-heavy images, a
	// caricature of the ELL vs HYB distinction.
	rng := rand.New(rand.NewSource(8))
	var x [][]float64
	var y []int
	for n := 0; n < 240; n++ {
		img := make([]float64, ImageSize*ImageSize)
		if n%2 == 0 {
			for i := 0; i < ImageSize; i++ {
				img[i*ImageSize+i] = 0.8 + rng.Float64()*0.2
			}
			y = append(y, 0)
		} else {
			for j := 0; j < ImageSize; j++ {
				img[j] = 0.8 + rng.Float64()*0.2
			}
			y = append(y, 1)
		}
		// Noise.
		for k := 0; k < 20; k++ {
			img[rng.Intn(len(img))] += rng.Float64() * 0.3
		}
		x = append(x, img)
	}
	m := NewCNN(1)
	m.Epochs = 15
	if acc := fitAndScore(t, m, x, y, 2); acc < 0.9 {
		t.Errorf("CNN accuracy %.3f on trivial image task", acc)
	}
}

func TestCNNRejectsWrongInputSize(t *testing.T) {
	m := NewCNN(1)
	if err := m.Fit([][]float64{{1, 2, 3}}, []int{0}, 2); err == nil {
		t.Error("CNN accepted non-image input")
	}
}

// TestQuickPredictionInRange property-tests that all models predict
// in-range classes for arbitrary inputs after training on random data.
func TestQuickPredictionInRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d, classes := 30+rng.Intn(40), 2+rng.Intn(4), 2+rng.Intn(3)
		x := make([][]float64, n)
		y := make([]int, n)
		for i := range x {
			x[i] = make([]float64, d)
			for j := range x[i] {
				x[i][j] = rng.NormFloat64()
			}
			y[i] = rng.Intn(classes)
		}
		models := []Classifier{
			NewKNN(3), NewTree(4),
			func() *Forest { f := NewForest(seed); f.Trees = 5; return f }(),
			func() *GBoost { g := NewGBoost(); g.Rounds = 5; return g }(),
			func() *SVM { s := NewSVM(seed); s.Epochs = 3; return s }(),
			func() *LogReg { l := NewLogReg(); l.Epochs = 20; return l }(),
		}
		for _, m := range models {
			if err := m.Fit(x, y, classes); err != nil {
				return false
			}
			for trial := 0; trial < 5; trial++ {
				q := make([]float64, d)
				for j := range q {
					q[j] = rng.NormFloat64() * 3
				}
				if p := m.Predict(q); p < 0 || p >= classes {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestTreeImportances(t *testing.T) {
	// Feature 1 fully determines the label; feature 0 is noise. The
	// importance mass must concentrate on feature 1.
	rng := rand.New(rand.NewSource(9))
	var x [][]float64
	var y []int
	for i := 0; i < 300; i++ {
		sig := rng.Float64()
		cls := 0
		if sig > 0.5 {
			cls = 1
		}
		x = append(x, []float64{rng.Float64(), sig})
		y = append(y, cls)
	}
	tr := NewTree(6)
	if err := tr.Fit(x, y, 2); err != nil {
		t.Fatal(err)
	}
	imp := tr.Importances()
	if len(imp) != 2 {
		t.Fatalf("importances length %d", len(imp))
	}
	sum := imp[0] + imp[1]
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("importances sum to %v", sum)
	}
	if imp[1] < 0.9 {
		t.Errorf("informative feature importance %v, want > 0.9", imp[1])
	}

	f := NewForest(1)
	f.Trees = 10
	if err := f.Fit(x, y, 2); err != nil {
		t.Fatal(err)
	}
	fimp := f.Importances()
	if fimp[1] < 0.8 {
		t.Errorf("forest informative importance %v", fimp[1])
	}
	p := f.Proba(x[0])
	total := 0.0
	for _, v := range p {
		if v < 0 || v > 1 {
			t.Errorf("vote share %v", v)
		}
		total += v
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("vote shares sum to %v", total)
	}
}

func TestPureTreeImportancesZero(t *testing.T) {
	tr := NewTree(4)
	if err := tr.Fit([][]float64{{1}, {2}}, []int{0, 0}, 2); err != nil {
		t.Fatal(err)
	}
	for _, v := range tr.Importances() {
		if v != 0 {
			t.Errorf("pure tree has nonzero importance %v", v)
		}
	}
}

// TestKNNTopKMatchesBruteForce compares the fixed-size insertion top-k
// against a brute-force reference (sort every distance, vote over the k
// smallest) on random data, for several k including k > len(x).
func TestKNNTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x, y := gaussianTask(rng, 150)
	for _, k := range []int{1, 3, 5, 31, 200} {
		m := NewKNN(k)
		if err := m.Fit(x, y, 3); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 50; trial++ {
			q := []float64{rng.Float64() * 6, rng.Float64() * 6, rng.Float64() * 6}
			if got, want := m.Predict(q), bruteKNN(x, y, 3, k, q); got != want {
				t.Fatalf("k=%d trial %d: Predict %d, brute force %d", k, trial, got, want)
			}
		}
	}
}

// bruteKNN is the obviously-correct reference: full sort by distance.
func bruteKNN(x [][]float64, y []int, classes, k int, q []float64) int {
	type cand struct {
		d   float64
		idx int
	}
	cands := make([]cand, len(x))
	for i, p := range x {
		var d float64
		for j := range p {
			d += (p[j] - q[j]) * (p[j] - q[j])
		}
		cands[i] = cand{d, i}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
	if k > len(cands) {
		k = len(cands)
	}
	votes := make([]float64, classes)
	for _, c := range cands[:k] {
		votes[y[c.idx]]++
	}
	return argmax(votes)
}

// TestPredictAllMatchesSequential checks the batched (parallel) paths of
// KNN, Forest, semisup-style dispatch and the Timed wrapper against a
// plain Predict loop.
func TestPredictAllMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(23))
	x, y := gaussianTask(rng, 120)
	var queries [][]float64
	for i := 0; i < 90; i++ {
		queries = append(queries, []float64{rng.Float64() * 6, rng.Float64() * 6, rng.Float64() * 6})
	}
	models := []Classifier{NewKNN(5), NewForest(3), NewTree(6), NewLogReg()}
	for _, m := range models {
		if err := m.Fit(x, y, 3); err != nil {
			t.Fatal(err)
		}
		got := PredictAll(m, queries)
		timed := NewTimed("test", m).PredictAll(queries)
		for i, q := range queries {
			want := m.Predict(q)
			if got[i] != want {
				t.Fatalf("%T: PredictAll[%d] = %d, Predict = %d", m, i, got[i], want)
			}
			if timed[i] != want {
				t.Fatalf("%T: Timed.PredictAll[%d] = %d, Predict = %d", m, i, timed[i], want)
			}
		}
	}
}

// TestForestFitDeterministicAcrossWorkerCaps re-fits the same seeded
// forest under worker caps 1 and 4 and requires identical predictions:
// the pre-drawn per-tree seeds must make training independent of the
// obs pool's parallelism.
func TestForestFitDeterministicAcrossWorkerCaps(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(29))
	x, y := gaussianTask(rng, 200)
	fit := func(cap int) *Forest {
		prev := obs.SetMaxWorkers(cap)
		defer obs.SetMaxWorkers(prev)
		f := NewForest(9)
		f.Trees = 12
		if err := f.Fit(x, y, 3); err != nil {
			t.Fatal(err)
		}
		return f
	}
	seq, par := fit(1), fit(4)
	for i := 0; i < 100; i++ {
		p := []float64{rng.Float64() * 5, rng.Float64() * 5, rng.Float64() * 5}
		if seq.Predict(p) != par.Predict(p) {
			t.Fatal("forest differs between worker caps 1 and 4")
		}
	}
}

// TestGBoostFitDeterministicAcrossWorkerCaps re-fits the same model
// with the per-class trees grown inline (cap 1) and fanned out (the
// default budget at GOMAXPROCS 4), and requires identical trees.
func TestGBoostFitDeterministicAcrossWorkerCaps(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	x, y := goldenTask()
	fit := func(cap int) string {
		prev := obs.SetMaxWorkers(cap)
		defer obs.SetMaxWorkers(prev)
		m := NewGBoost()
		m.Rounds = 20
		if err := m.Fit(x, y, 4); err != nil {
			t.Fatal(err)
		}
		return gboostDigest(m)
	}
	if seq, par := fit(1), fit(0); seq != par {
		t.Fatalf("boosted trees differ between worker cap 1 (%s) and the default (%s)", seq, par)
	}
}

// BenchmarkKNNPredict measures single-vector KNN prediction: the
// fixed-size insertion top-k versus the container/heap implementation it
// replaced (kept inline here as the baseline).
func BenchmarkKNNPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	x, y := gaussianTask(rng, 2000)
	q := []float64{2, 2, 2}
	m := NewKNN(5)
	if err := m.Fit(x, y, 3); err != nil {
		b.Fatal(err)
	}
	b.Run("topk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = m.Predict(q)
		}
	})
	b.Run("heap-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = heapKNNPredict(m, q)
		}
	})
}

// heapKNNPredict is the previous container/heap implementation, kept
// only as the benchmark baseline for BenchmarkKNNPredict.
func heapKNNPredict(m *KNN, x []float64) int {
	k := m.K
	if k > len(m.x) {
		k = len(m.x)
	}
	h := make(oldNeighbourHeap, 0, k+1)
	for i, p := range m.x {
		var d float64
		for j := range p {
			d += (p[j] - x[j]) * (p[j] - x[j])
		}
		if len(h) < k {
			heap.Push(&h, oldNeighbour{d, i})
		} else if d < h[0].d {
			h[0] = oldNeighbour{d, i}
			heap.Fix(&h, 0)
		}
	}
	votes := make([]float64, m.classes)
	for _, nb := range h {
		votes[m.y[nb.idx]]++
	}
	return argmax(votes)
}

type oldNeighbour struct {
	d   float64
	idx int
}

type oldNeighbourHeap []oldNeighbour

func (h oldNeighbourHeap) Len() int            { return len(h) }
func (h oldNeighbourHeap) Less(i, j int) bool  { return h[i].d > h[j].d }
func (h oldNeighbourHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oldNeighbourHeap) Push(x interface{}) { *h = append(*h, x.(oldNeighbour)) }
func (h *oldNeighbourHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}
