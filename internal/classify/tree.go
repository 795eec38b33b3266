package classify

import (
	"cmp"
	"math/rand"
	"slices"
)

// Tree is a CART decision-tree classifier: binary splits chosen by Gini
// impurity reduction, grown depth-first to MaxDepth.
type Tree struct {
	// MaxDepth bounds tree depth (default 10).
	MaxDepth int
	// MinSamplesSplit is the smallest node that may split (default 2).
	MinSamplesSplit int
	// MaxFeatures, when positive, samples that many candidate features
	// per split — the randomisation used by the forest. 0 considers all.
	MaxFeatures int
	// Seed drives feature subsampling when MaxFeatures > 0.
	Seed int64

	root       *treeNode
	classes    int
	fitted     bool
	importance []float64
	nTrain     int
}

type treeNode struct {
	feature     int
	threshold   float64
	left, right *treeNode
	class       int // leaf prediction
	leaf        bool
	counts      []int // class histogram at the node, for explainability
}

// NewTree returns a CART classifier with the given depth bound.
func NewTree(maxDepth int) *Tree {
	return &Tree{MaxDepth: maxDepth, MinSamplesSplit: 2}
}

// Fit grows the tree.
func (m *Tree) Fit(x [][]float64, y []int, classes int) error {
	if err := checkTrainingInput(x, y, classes); err != nil {
		return err
	}
	w := make([]int32, len(x))
	for i := range w {
		w[i] = 1
	}
	m.fit(presort(x), y, w, classes)
	return nil
}

// presorted is a training set stored by feature: cols[f][i] is row i's
// value of feature f, and order[f] lists the rows by ascending
// cols[f]. It is built once per fit and read, never written, by every
// tree grown from it.
type presorted struct {
	cols  [][]float64
	order [][]int32
}

func presort(x [][]float64) *presorted {
	n, d := len(x), len(x[0])
	p := &presorted{cols: make([][]float64, d), order: make([][]int32, d)}
	for f := 0; f < d; f++ {
		col := make([]float64, n)
		ord := make([]int32, n)
		for i, row := range x {
			col[i] = row[f]
			ord[i] = int32(i)
		}
		slices.SortFunc(ord, func(a, b int32) int { return cmp.Compare(col[a], col[b]) })
		p.cols[f], p.order[f] = col, ord
	}
	return p
}

// cart is one fit's working state. The rows of the node over [lo, hi)
// sit in seg[f][lo:hi] for every feature f, in ascending order of that
// feature; splitting a node stably partitions every feature's segment,
// so no node sorts. A row's weight is how often it was drawn (1 outside
// a forest's bootstrap); rows never drawn are left out of seg.
type cart struct {
	*Tree
	ps       *presorted
	y        []int
	w        []int32
	seg      [][]int32
	left     []int32 // per row: 1 if it goes left in the split being applied
	right    []int32 // partition scratch
	features []int
	lc, rc   []int
	rng      *rand.Rand
}

// fit grows the tree over the rows of ps weighted by w.
func (m *Tree) fit(ps *presorted, y []int, w []int32, classes int) {
	if m.MaxDepth <= 0 {
		m.MaxDepth = 10
	}
	if m.MinSamplesSplit < 2 {
		m.MinSamplesSplit = 2
	}
	d := len(ps.cols)
	m.classes = classes
	m.importance = make([]float64, d)
	m.nTrain = 0
	rows := 0
	for _, wi := range w {
		m.nTrain += int(wi)
		if wi > 0 {
			rows++
		}
	}
	c := &cart{
		Tree: m, ps: ps, y: y, w: w,
		seg:      make([][]int32, d),
		left:     make([]int32, len(w)),
		right:    make([]int32, rows),
		features: make([]int, d),
		lc:       make([]int, classes),
		rc:       make([]int, classes),
		rng:      rand.New(rand.NewSource(m.Seed)),
	}
	// The filters and partitions below write every row and advance
	// their cursor by 0 or 1, which costs no mispredicted branches.
	buf := make([]int32, d*rows+1)
	for f, ord := range ps.order {
		s, k := buf[f*rows:f*rows+rows+1], 0
		for _, i := range ord {
			s[k] = i
			k += int(min(w[i], 1))
		}
		c.seg[f] = s[:rows:rows]
	}
	m.root = c.grow(0, rows, 0)
	normalize(m.importance)
	m.fitted = true
}

// normalize scales a non-negative vector to sum to 1 (no-op when all
// zero).
func normalize(v []float64) {
	s := 0.0
	for _, x := range v {
		s += x
	}
	if s == 0 {
		return
	}
	for i := range v {
		v[i] /= s
	}
}

// grow builds the subtree over the node's rows [lo, hi).
func (c *cart) grow(lo, hi, depth int) *treeNode {
	counts := make([]int, c.classes)
	n := 0
	for _, i := range c.seg[0][lo:hi] {
		counts[c.y[i]] += int(c.w[i])
		n += int(c.w[i])
	}
	node := &treeNode{counts: counts, class: argmax1(counts), leaf: true}
	if depth >= c.MaxDepth || n < c.MinSamplesSplit || pure(counts) {
		return node
	}
	feat, thr, gain, ok := c.bestSplit(lo, hi, counts, n)
	if !ok {
		return node
	}
	// Gini importance: impurity decrease weighted by the node's share of
	// the training set.
	c.importance[feat] += gain * float64(n) / float64(c.nTrain)
	mid := c.partition(lo, hi, feat, thr, depth+1 >= c.MaxDepth)
	if mid == lo || mid == hi {
		return node
	}
	node.leaf = false
	node.feature = feat
	node.threshold = thr
	node.left = c.grow(lo, mid, depth+1)
	node.right = c.grow(mid, hi, depth+1)
	return node
}

func pure(counts []int) bool {
	nz := 0
	for _, c := range counts {
		if c > 0 {
			nz++
		}
	}
	return nz <= 1
}

// bestSplit scans the candidate features' sorted segments for the
// threshold with the lowest weighted Gini impurity. A split's score
// depends only on the class counts at a boundary between two distinct
// values, so the order of tied rows never matters, and the threshold is
// the midpoint of those two values.
func (c *cart) bestSplit(lo, hi int, parentCounts []int, total int) (feat int, thr, gain float64, ok bool) {
	d := len(c.features)
	features := c.features
	for i := range features {
		features[i] = i
	}
	if c.MaxFeatures > 0 && c.MaxFeatures < d {
		c.rng.Shuffle(d, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:c.MaxFeatures]
	}

	n := float64(total)
	bestGain := 1e-12
	parentGini := giniFromCounts(parentCounts, total)
	leftCounts, rightCounts := c.lc, c.rc

	for _, f := range features {
		col, rows := c.ps.cols[f], c.seg[f][lo:hi]
		if col[rows[0]] == col[rows[len(rows)-1]] {
			continue
		}
		copy(rightCounts, parentCounts)
		clear(leftCounts)
		nl := 0
		for k := 0; k < len(rows)-1; k++ {
			i := rows[k]
			wi := int(c.w[i])
			leftCounts[c.y[i]] += wi
			rightCounts[c.y[i]] -= wi
			nl += wi
			v, next := col[i], col[rows[k+1]]
			if v == next {
				continue
			}
			nr := total - nl
			g := (float64(nl)*giniFromCounts(leftCounts, nl) +
				float64(nr)*giniFromCounts(rightCounts, nr)) / n
			if gn := parentGini - g; gn > bestGain {
				bestGain = gn
				feat = f
				thr = (v + next) / 2
				ok = true
			}
		}
	}
	return feat, thr, bestGain, ok
}

// partition stably reorders the feature segments of the node [lo, hi)
// into the rows with cols[feat] <= thr followed by the rest, and
// returns the boundary. When the children are leaves (countOnly), only
// seg[0], which grow counts classes over, is reordered.
func (c *cart) partition(lo, hi, feat int, thr float64, countOnly bool) int {
	col := c.ps.cols[feat]
	nl := 0
	for _, i := range c.seg[feat][lo:hi] {
		if col[i] <= thr {
			c.left[i] = 1
			nl++
		} else {
			c.left[i] = 0
		}
	}
	if nl == 0 || nl == hi-lo {
		return lo + nl
	}
	segs := c.seg
	if countOnly {
		segs = segs[:1]
	}
	for _, s := range segs {
		rows, right := s[lo:hi], c.right[:hi-lo]
		k, r := 0, 0
		for _, i := range rows {
			l := int(c.left[i])
			rows[k], right[r] = i, i
			k += l
			r += 1 - l
		}
		copy(rows[k:], right[:r])
	}
	return lo + nl
}

// giniFromCounts returns 1 - sum p_i^2 over a class histogram of total n.
func giniFromCounts(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	s := 0.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		s += p * p
	}
	return 1 - s
}

// Predict walks the tree.
func (m *Tree) Predict(x []float64) int {
	if !m.fitted {
		return 0
	}
	n := m.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.class
}

// Importances returns the normalised Gini feature importances (summing
// to 1 unless the tree is a single leaf). Callers must not modify the
// slice.
func (m *Tree) Importances() []float64 { return m.importance }

// Depth returns the height of the fitted tree (leaf-only tree is 0).
func (m *Tree) Depth() int { return depthOf(m.root) }

func depthOf(n *treeNode) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

var _ Classifier = (*Tree)(nil)
