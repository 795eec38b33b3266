package classify

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Gob persistence for the classical models, so a fitted supervised
// classifier can ship inside a saved model artifact (see internal/serve)
// the same way the semi-supervised model does. Each supported model
// implements GobEncoder/GobDecoder over an exported wire struct, keeping
// the in-memory representations (unexported fields, pointer-linked
// trees) free to change without breaking saved artifacts.
//
// Supported: KNN, Tree, Forest, LogReg — the models the paper's
// pipeline actually deploys (KNN as the supervised counterpart of
// centroid clustering, LR/RF also being the cluster-labelling rules).

func init() {
	// Register the concrete types so a Classifier interface field
	// round-trips through gob.
	gob.Register(&KNN{})
	gob.Register(&Tree{})
	gob.Register(&Forest{})
	gob.Register(&LogReg{})
}

// Persistable reports whether a classifier can be gob-serialised (and
// therefore embedded in a saved model artifact).
func Persistable(c Classifier) bool {
	switch c.(type) {
	case *KNN, *Tree, *Forest, *LogReg:
		return true
	}
	return false
}

// InputDim returns the feature-vector width a fitted persistable model
// predicts on: a KNN's training-row width, a LogReg's weight width less
// its bias, a tree's or forest's feature-importance length. It is 0 for
// an unfitted or non-persistable classifier.
func InputDim(c Classifier) int {
	switch m := c.(type) {
	case *KNN:
		if m.fitted {
			return len(m.x[0])
		}
	case *LogReg:
		if m.fitted {
			return len(m.w[0]) - 1
		}
	case *Tree:
		if m.fitted {
			return len(m.importance)
		}
	case *Forest:
		if m.fitted {
			return len(m.trees[0].importance)
		}
	}
	return 0
}

// Classes returns the number of classes a fitted persistable model
// labels; a forest's or KNN's Predict allocates one vote per class. It
// is 0 for an unfitted or non-persistable classifier.
func Classes(c Classifier) int {
	switch m := c.(type) {
	case *KNN:
		if m.fitted {
			return m.classes
		}
	case *LogReg:
		if m.fitted {
			return m.classes
		}
	case *Tree:
		if m.fitted {
			return m.classes
		}
	case *Forest:
		if m.fitted {
			return m.classes
		}
	}
	return 0
}

// ---------------------------------------------------------------------
// KNN

type knnGob struct {
	K        int
	Weighted bool
	X        [][]float64
	Y        []int
	Classes  int
	Fitted   bool
}

// GobEncode serialises the memorised training set and hyperparameters.
func (m *KNN) GobEncode() ([]byte, error) {
	return encodeWire(knnGob{
		K: m.K, Weighted: m.Weighted,
		X: m.x, Y: m.y, Classes: m.classes, Fitted: m.fitted,
	})
}

// GobDecode restores a KNN written by GobEncode.
func (m *KNN) GobDecode(data []byte) error {
	var w knnGob
	if err := decodeWire(data, &w); err != nil {
		return fmt.Errorf("classify: decoding KNN: %w", err)
	}
	// A fitted KNN votes with the labels of its nearest rows, so it needs
	// what Fit needs: rows of one width, each labelled in [0, Classes),
	// and at least one neighbour to ask. Predict also allocates one vote
	// per class, so a crafted class count may not outgrow the training
	// set every prediction scans anyway.
	if w.Fitted {
		if err := checkTrainingInput(w.X, w.Y, w.Classes); err != nil {
			return fmt.Errorf("classify: decoded KNN: %w", err)
		}
		if w.K < 1 || w.Classes > len(w.Y) {
			return fmt.Errorf("classify: decoded KNN has K %d and %d classes over %d rows", w.K, w.Classes, len(w.Y))
		}
	}
	*m = KNN{K: w.K, Weighted: w.Weighted, x: w.X, y: w.Y, classes: w.Classes, fitted: w.Fitted}
	return nil
}

// ---------------------------------------------------------------------
// Tree

// treeNodeGob is one node of the flattened tree; children are indices
// into the node slice (-1 for none).
type treeNodeGob struct {
	Feature     int
	Threshold   float64
	Left, Right int
	Class       int
	Leaf        bool
	Counts      []int
}

type treeGob struct {
	MaxDepth        int
	MinSamplesSplit int
	MaxFeatures     int
	Seed            int64
	Nodes           []treeNodeGob // preorder; empty when unfitted
	Classes         int
	Fitted          bool
	Importance      []float64
	NTrain          int
}

// flatten appends the subtree rooted at n and returns its index.
func flatten(n *treeNode, out *[]treeNodeGob) int {
	idx := len(*out)
	*out = append(*out, treeNodeGob{
		Feature: n.feature, Threshold: n.threshold,
		Left: -1, Right: -1,
		Class: n.class, Leaf: n.leaf, Counts: n.counts,
	})
	if !n.leaf {
		(*out)[idx].Left = flatten(n.left, out)
		(*out)[idx].Right = flatten(n.right, out)
	}
	return idx
}

// unflatten rebuilds the tree flatten wrote, rooted at node 0, without
// recursing. Decoded artifacts are untrusted, so it accepts only a tree
// that predicts on a vector of nFeatures values without panicking: each
// child sits after its parent (flatten writes pre-order) and is
// referenced once, so the structure has no cycle and no shared subtree;
// every class is in [0, classes) and every split feature in [0,
// nFeatures).
func unflatten(nodes []treeNodeGob, classes, nFeatures int) (*treeNode, error) {
	built := make([]treeNode, len(nodes))
	referenced := make([]bool, len(nodes))
	for i, w := range nodes {
		if w.Class < 0 || w.Class >= classes {
			return nil, fmt.Errorf("classify: decoded tree node %d has class %d outside [0, %d)", i, w.Class, classes)
		}
		built[i] = treeNode{
			feature: w.Feature, threshold: w.Threshold,
			class: w.Class, leaf: w.Leaf, counts: w.Counts,
		}
		if w.Leaf {
			continue
		}
		if w.Feature < 0 || w.Feature >= nFeatures {
			return nil, fmt.Errorf("classify: decoded tree node %d splits on feature %d outside [0, %d)", i, w.Feature, nFeatures)
		}
		for _, c := range [2]int{w.Left, w.Right} {
			if c <= i || c >= len(nodes) {
				return nil, fmt.Errorf("classify: decoded tree node %d has child %d outside (%d, %d)", i, c, i, len(nodes))
			}
			if referenced[c] {
				return nil, fmt.Errorf("classify: decoded tree node %d is referenced twice", c)
			}
			referenced[c] = true
		}
		built[i].left, built[i].right = &built[w.Left], &built[w.Right]
	}
	return &built[0], nil
}

// GobEncode serialises the fitted tree as a flattened node array.
func (m *Tree) GobEncode() ([]byte, error) {
	w := treeGob{
		MaxDepth: m.MaxDepth, MinSamplesSplit: m.MinSamplesSplit,
		MaxFeatures: m.MaxFeatures, Seed: m.Seed,
		Classes: m.classes, Fitted: m.fitted,
		Importance: m.importance, NTrain: m.nTrain,
	}
	if m.root != nil {
		flatten(m.root, &w.Nodes)
	}
	return encodeWire(w)
}

// GobDecode restores a Tree written by GobEncode.
func (m *Tree) GobDecode(data []byte) error {
	var w treeGob
	if err := decodeWire(data, &w); err != nil {
		return fmt.Errorf("classify: decoding tree: %w", err)
	}
	t := Tree{
		MaxDepth: w.MaxDepth, MinSamplesSplit: w.MinSamplesSplit,
		MaxFeatures: w.MaxFeatures, Seed: w.Seed,
		classes: w.Classes, fitted: w.Fitted,
		importance: w.Importance, nTrain: w.NTrain,
	}
	if len(w.Nodes) > 0 {
		root, err := unflatten(w.Nodes, w.Classes, len(w.Importance))
		if err != nil {
			return err
		}
		t.root = root
	} else if w.Fitted {
		return fmt.Errorf("classify: decoded tree is fitted but has no nodes")
	}
	*m = t
	return nil
}

// ---------------------------------------------------------------------
// Forest

type forestGob struct {
	Trees       int
	MaxDepth    int
	MaxFeatures int
	Seed        int64
	Estimators  []*Tree // each serialises through Tree's GobEncode
	Classes     int
	Fitted      bool
}

// GobEncode serialises the forest and its estimators.
func (m *Forest) GobEncode() ([]byte, error) {
	return encodeWire(forestGob{
		Trees: m.Trees, MaxDepth: m.MaxDepth, MaxFeatures: m.MaxFeatures,
		Seed: m.Seed, Estimators: m.trees, Classes: m.classes, Fitted: m.fitted,
	})
}

// GobDecode restores a Forest written by GobEncode.
func (m *Forest) GobDecode(data []byte) error {
	var w forestGob
	if err := decodeWire(data, &w); err != nil {
		return fmt.Errorf("classify: decoding forest: %w", err)
	}
	if w.Fitted && len(w.Estimators) == 0 {
		return fmt.Errorf("classify: decoded forest is fitted but has no estimators")
	}
	// A fitted forest hands every estimator the same vector and indexes
	// its vote histogram by their predictions, so its estimators must be
	// fitted over one feature count and the forest's own classes.
	for i, t := range w.Estimators {
		if w.Fitted && (!t.fitted || t.classes != w.Classes || len(t.importance) != len(w.Estimators[0].importance)) {
			return fmt.Errorf("classify: decoded forest estimator %d (fitted %v, %d classes, %d features) does not match the forest (%d classes, %d features)",
				i, t.fitted, t.classes, len(t.importance), w.Classes, len(w.Estimators[0].importance))
		}
	}
	*m = Forest{
		Trees: w.Trees, MaxDepth: w.MaxDepth, MaxFeatures: w.MaxFeatures,
		Seed: w.Seed, trees: w.Estimators, classes: w.Classes, fitted: w.Fitted,
	}
	return nil
}

// ---------------------------------------------------------------------
// LogReg

type logRegGob struct {
	Epochs  int
	LR      float64
	L2      float64
	W       [][]float64
	Classes int
	Fitted  bool
}

// GobEncode serialises the weight matrix and hyperparameters.
func (m *LogReg) GobEncode() ([]byte, error) {
	return encodeWire(logRegGob{
		Epochs: m.Epochs, LR: m.LR, L2: m.L2,
		W: m.w, Classes: m.classes, Fitted: m.fitted,
	})
}

// GobDecode restores a LogReg written by GobEncode.
func (m *LogReg) GobDecode(data []byte) error {
	var w logRegGob
	if err := decodeWire(data, &w); err != nil {
		return fmt.Errorf("classify: decoding logreg: %w", err)
	}
	// A fitted LogReg scores a vector against one weight row per class:
	// the vector's width in weights, then a bias.
	if w.Fitted {
		if len(w.W) == 0 || len(w.W) != w.Classes {
			return fmt.Errorf("classify: decoded logreg has %d weight rows for %d classes", len(w.W), w.Classes)
		}
		for c, row := range w.W {
			if len(row) < 2 || len(row) != len(w.W[0]) {
				return fmt.Errorf("classify: decoded logreg weight row %d has %d values, row 0 %d; rows need one width of at least 2", c, len(row), len(w.W[0]))
			}
		}
	}
	*m = LogReg{Epochs: w.Epochs, LR: w.LR, L2: w.L2, w: w.W, classes: w.Classes, fitted: w.Fitted}
	return nil
}

// ---------------------------------------------------------------------

func encodeWire(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeWire(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
