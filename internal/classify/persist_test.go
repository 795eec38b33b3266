package classify

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"
)

// persistTask generates a well-separated 3-class problem.
func persistTask(rng *rand.Rand, n, d int) (x [][]float64, y []int) {
	x = make([][]float64, n)
	y = make([]int, n)
	for i := range x {
		c := i % 3
		row := make([]float64, d)
		for j := range row {
			row[j] = float64(c) + 0.2*rng.NormFloat64()
		}
		x[i] = row
		y[i] = c
	}
	return x, y
}

// TestClassifierGobRoundTrip checks that every persistable model
// predicts identically after a save/load through a Classifier interface
// value, which is how the serve artifact stores it.
func TestClassifierGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, y := persistTask(rng, 240, 6)
	models := map[string]Classifier{
		"knn":    NewKNN(5),
		"tree":   NewTree(8),
		"forest": &Forest{Trees: 12, MaxDepth: 5, Seed: 3},
		"logreg": NewLogReg(),
	}
	for name, clf := range models {
		if !Persistable(clf) {
			t.Errorf("%s: Persistable = false", name)
		}
		if err := clf.Fit(x, y, 3); err != nil {
			t.Fatalf("%s fit: %v", name, err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&clf); err != nil {
			t.Fatalf("%s encode: %v", name, err)
		}
		var loaded Classifier
		if err := gob.NewDecoder(&buf).Decode(&loaded); err != nil {
			t.Fatalf("%s decode: %v", name, err)
		}
		for i, row := range x {
			if got, want := loaded.Predict(row), clf.Predict(row); got != want {
				t.Fatalf("%s: prediction diverges at row %d: %d != %d", name, i, got, want)
			}
		}
	}
}

// TestTreeRoundTripPreservesStructure checks depth and importances
// survive the flatten/unflatten cycle.
func TestTreeRoundTripPreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := persistTask(rng, 150, 4)
	tree := NewTree(7)
	if err := tree.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	data, err := tree.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var loaded Tree
	if err := loaded.GobDecode(data); err != nil {
		t.Fatal(err)
	}
	if loaded.Depth() != tree.Depth() {
		t.Errorf("depth %d != %d", loaded.Depth(), tree.Depth())
	}
	imp, limp := tree.Importances(), loaded.Importances()
	if len(imp) != len(limp) {
		t.Fatalf("importances length %d != %d", len(limp), len(imp))
	}
	for j := range imp {
		if imp[j] != limp[j] {
			t.Errorf("importance %d: %v != %v", j, limp[j], imp[j])
		}
	}
}

// TestClassifierGobRejectsGarbage checks decoders fail loudly on
// corrupt and inconsistent payloads.
func TestClassifierGobRejectsGarbage(t *testing.T) {
	var tree Tree
	if err := tree.GobDecode([]byte("junk")); err == nil {
		t.Error("tree accepted garbage")
	}
	var knn KNN
	if err := knn.GobDecode([]byte{0x01}); err == nil {
		t.Error("knn accepted garbage")
	}
	// A fitted tree without nodes is inconsistent, and so are payloads
	// whose Predict would index out of range or allocate without bound:
	// a KNN label beyond its classes, rows of unequal width or a class
	// count beyond its rows, LogReg weight rows too short to hold a bias
	// or of unequal width.
	for _, tc := range []struct {
		name string
		wire any
		into interface{ GobDecode([]byte) error }
	}{
		{"fitted node-less tree", treeGob{Fitted: true}, &Tree{}},
		{"knn label 5 of 2 classes", knnLabel5, &KNN{}},
		{"knn rows of unequal width", knnGob{K: 1, X: [][]float64{{0, 0, 0}, {1, 1}}, Y: []int{0, 1}, Classes: 2, Fitted: true}, &KNN{}},
		{"knn without neighbours", knnGob{K: 0, X: [][]float64{{0}, {1}}, Y: []int{0, 1}, Classes: 2, Fitted: true}, &KNN{}},
		{"knn with more classes than rows", knnGob{K: 1, X: [][]float64{{0}, {1}}, Y: []int{0, 1}, Classes: 1 << 40, Fitted: true}, &KNN{}},
		{"logreg rows of length 1", logRegLength1, &LogReg{}},
		{"logreg rows of unequal width", logRegGob{W: [][]float64{{1, 2, 3}, {1, 2}}, Classes: 2, Fitted: true}, &LogReg{}},
		{"logreg without rows", logRegGob{Fitted: true}, &LogReg{}},
	} {
		data, err := encodeWire(tc.wire)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.into.GobDecode(data); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// Decoding used to accept these two payloads, and then Predict panicked:
// the KNN indexed its 2-class vote histogram with label 5, and the
// LogReg read a 3-vector's bias at index 3 of a length-1 weight row.
var (
	knnLabel5     = knnGob{K: 1, X: [][]float64{{0, 0, 0}}, Y: []int{5}, Classes: 2, Fitted: true}
	logRegLength1 = logRegGob{W: [][]float64{{1}, {1}}, Classes: 2, Fitted: true}
)

// TestUnfittedClassifierRoundTrips checks an unfitted model survives
// persistence (and still refuses to predict meaningfully).
func TestUnfittedClassifierRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(NewKNN(3)); err != nil {
		t.Fatal(err)
	}
	var loaded KNN
	if err := gob.NewDecoder(&buf).Decode(&loaded); err != nil {
		t.Fatal(err)
	}
	if loaded.K != 3 {
		t.Errorf("K = %d, want 3", loaded.K)
	}
}

// TestTreeGobRejectsCraftedStructure decodes node arrays that flatten
// never writes. Each would crash or blow up a replica that loads it:
// a self-referencing node recursed until Go's fatal stack overflow, a
// chain of nodes sharing one child built 2^depth copies, and bad
// classes or features index out of range at predict time.
func TestTreeGobRejectsCraftedStructure(t *testing.T) {
	leaf := treeNodeGob{Leaf: true, Left: -1, Right: -1}
	split := func(feature, left, right int) treeNodeGob {
		return treeNodeGob{Feature: feature, Left: left, Right: right}
	}
	chain := make([]treeNodeGob, 40)
	for i := range chain[:len(chain)-1] {
		chain[i] = split(0, i+1, i+1)
	}
	chain[len(chain)-1] = leaf
	for _, tc := range []struct {
		name  string
		nodes []treeNodeGob
	}{
		{"self-loop", []treeNodeGob{split(0, 0, 0)}},
		{"back-edge", []treeNodeGob{split(0, 1, 2), split(0, 0, 2), leaf}},
		{"child-out-of-range", []treeNodeGob{split(0, 1, 3), leaf, leaf}},
		{"negative-child", []treeNodeGob{split(0, -1, 1), leaf}},
		{"shared-child", []treeNodeGob{split(0, 1, 1), leaf}},
		{"shared-child-chain", chain},
		{"class-too-large", []treeNodeGob{{Leaf: true, Class: 2}}},
		{"negative-class", []treeNodeGob{split(0, 1, 2), leaf, {Leaf: true, Class: -1}}},
		{"feature-too-large", []treeNodeGob{split(3, 1, 2), leaf, leaf}},
		{"negative-feature", []treeNodeGob{split(-1, 1, 2), leaf, leaf}},
	} {
		data, err := encodeWire(treeGob{Fitted: true, Classes: 2, Nodes: tc.nodes, Importance: make([]float64, 3)})
		if err != nil {
			t.Fatal(err)
		}
		var tree Tree
		if err := tree.GobDecode(data); err == nil {
			t.Errorf("%s: crafted tree accepted", tc.name)
		}
	}
}

// TestForestGobRejectsMismatchedEstimators checks a fitted forest only
// accepts fitted estimators over its own class count and one feature
// count: a forest hands them all one vector and indexes its vote
// histogram by their predictions.
func TestForestGobRejectsMismatchedEstimators(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y := persistTask(rng, 90, 4)
	fitted := NewTree(3)
	if err := fitted.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	x5, y5 := persistTask(rng, 90, 5)
	wider := NewTree(3)
	if err := wider.Fit(x5, y5, 3); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		classes int
		est     *Tree
	}{
		{"fewer-forest-classes", 2, fitted},
		{"no-forest-classes", 0, fitted},
		{"unfitted-estimator", 3, NewTree(3)},
		{"feature-count-mismatch", 3, wider},
	} {
		data, err := encodeWire(forestGob{Fitted: true, Classes: tc.classes, Estimators: []*Tree{fitted, tc.est}})
		if err != nil {
			t.Fatal(err)
		}
		var f Forest
		if err := f.GobDecode(data); err == nil {
			t.Errorf("%s: mismatched forest accepted", tc.name)
		}
	}
}

// FuzzTreeGobDecode feeds arbitrary bytes to the tree decoder, seeded
// with real encodings: it must never panic, and every tree it accepts
// must predict on a vector as long as its importances.
func FuzzTreeGobDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(8))
	x, y := persistTask(rng, 120, 4)
	for _, depth := range []int{1, 3, 8} {
		tree := NewTree(depth)
		if err := tree.Fit(x, y, 3); err != nil {
			f.Fatal(err)
		}
		data, err := tree.GobEncode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	unfitted, err := NewTree(4).GobEncode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(unfitted)
	f.Fuzz(func(t *testing.T, data []byte) {
		var tree Tree
		if err := tree.GobDecode(data); err != nil {
			return
		}
		c := tree.Predict(make([]float64, len(tree.Importances())))
		if tree.fitted && (c < 0 || c >= tree.classes) {
			t.Fatalf("accepted tree predicts class %d outside [0, %d)", c, tree.classes)
		}
		tree.Depth()
	})
}

// FuzzKNNGobDecode feeds arbitrary bytes to the KNN decoder, seeded
// with real encodings and a payload decoding used to accept: it must
// never panic, and every fitted KNN it accepts must predict a class in
// [0, classes) on a vector as wide as its rows.
func FuzzKNNGobDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	x, y := persistTask(rng, 30, 4)
	for _, m := range []*KNN{NewKNN(1), {K: 5, Weighted: true}} {
		if err := m.Fit(x, y, 3); err != nil {
			f.Fatal(err)
		}
		data, err := m.GobEncode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, w := range []knnGob{{K: 3}, knnLabel5} {
		data, err := encodeWire(w)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m KNN
		if err := m.GobDecode(data); err != nil {
			return
		}
		c := m.Predict(make([]float64, InputDim(&m)))
		if m.fitted && (c < 0 || c >= m.classes) {
			t.Fatalf("accepted KNN predicts class %d outside [0, %d)", c, m.classes)
		}
	})
}

// FuzzLogRegGobDecode does the same for the LogReg decoder: every
// fitted LogReg it accepts must predict a class in [0, classes) on a
// vector as wide as its weight rows less the bias.
func FuzzLogRegGobDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(10))
	x, y := persistTask(rng, 60, 4)
	m := &LogReg{Epochs: 20}
	if err := m.Fit(x, y, 3); err != nil {
		f.Fatal(err)
	}
	data, err := m.GobEncode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	for _, w := range []logRegGob{{Epochs: 5}, logRegLength1} {
		data, err := encodeWire(w)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m LogReg
		if err := m.GobDecode(data); err != nil {
			return
		}
		c := m.Predict(make([]float64, InputDim(&m)))
		if m.fitted && (c < 0 || c >= m.classes) {
			t.Fatalf("accepted LogReg predicts class %d outside [0, %d)", c, m.classes)
		}
	})
}
