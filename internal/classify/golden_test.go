package classify

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// goldenTask is a fixed 4-class problem built to stress split finding:
// column 1 takes five values (long runs of ties across classes), column
// 2 is constant, column 3 is rounded to integers, and every fifth row
// after the tenth duplicates an earlier row, half the time under a
// different label, so some nodes can never become pure.
func goldenTask() (x [][]float64, y []int) {
	rng := rand.New(rand.NewSource(77))
	const n = 400
	x = make([][]float64, n)
	y = make([]int, n)
	for i := range x {
		if i >= 10 && i%5 == 0 {
			j := rng.Intn(i)
			x[i] = append([]float64(nil), x[j]...)
			y[i] = (y[j] + rng.Intn(2)) % 4
			continue
		}
		c := rng.Intn(4)
		x[i] = []float64{
			float64(c) + rng.NormFloat64(),
			float64(rng.Intn(5)),
			3.5,
			math.Round(2*rng.NormFloat64()) + float64(c%2),
			rng.Float64(),
			0.5*float64(c) + 0.1*float64(rng.Intn(3)),
		}
		y[i] = c
	}
	return x, y
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// gboostDigest hashes every round's per-class trees in pre-order: a
// leaf as its value's bits, an internal node as its feature and its
// threshold's bits. GBoost has no gob form, so this is its fingerprint.
func gboostDigest(m *GBoost) string {
	h := sha256.New()
	var buf [17]byte
	var walk func(t *regTree)
	walk = func(t *regTree) {
		if t.leaf {
			buf[0] = 1
			binary.LittleEndian.PutUint64(buf[1:9], math.Float64bits(t.value))
			h.Write(buf[:9])
			return
		}
		buf[0] = 0
		binary.LittleEndian.PutUint64(buf[1:9], uint64(t.feature))
		binary.LittleEndian.PutUint64(buf[9:17], math.Float64bits(t.threshold))
		h.Write(buf[:])
		walk(t.left)
		walk(t.right)
	}
	for _, round := range m.trees {
		for _, t := range round {
			walk(t)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTreeLearnersGolden pins the fitted tree models bit for bit: any
// change to split finding, tie handling, bootstrap draws or boosting
// order shows up as a digest change. Tree and Forest are hashed over
// their gob bytes (structure, thresholds, leaf histograms and
// importances). The digests were recorded on amd64; GBoost's softmax
// calls math.Exp, whose result is only pinned per platform.
func TestTreeLearnersGolden(t *testing.T) {
	x, y := goldenTask()

	tree := NewTree(10)
	if err := tree.Fit(x, y, 4); err != nil {
		t.Fatal(err)
	}
	tb, err := tree.GobEncode()
	if err != nil {
		t.Fatal(err)
	}

	forest := NewForest(13)
	if err := forest.Fit(x, y, 4); err != nil {
		t.Fatal(err)
	}
	fb, err := forest.GobEncode()
	if err != nil {
		t.Fatal(err)
	}

	gb := NewGBoost()
	if err := gb.Fit(x, y, 4); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ name, got, want string }{
		{"tree", sha256Hex(tb), "15eb49869291118d4406999a600e8e563018b77238ca2e3a07e82638301cb479"},
		{"forest", sha256Hex(fb), "523422bee60fc2c065d5e415ed6298f78c95f20768e8a99272f14dda290e7163"},
		{"gboost", gboostDigest(gb), "545b7443354850c78d284607e7e2399e0da63e09d04cd132b5e0285a947a4abb"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s digest %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}
