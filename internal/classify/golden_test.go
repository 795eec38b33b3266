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

// cnnGoldenTask is a fixed 3-class image problem shaped like
// DensityImage output: mostly zero pixels in [0, 1], one class a
// diagonal band, one a heavy top row block, one scattered blocks, each
// with noise. The zeros leave dead ReLU units, so the backward pass's
// zero-delta skips are exercised.
func cnnGoldenTask(n int) (x [][]float64, y []int) {
	rng := rand.New(rand.NewSource(61))
	x = make([][]float64, n)
	y = make([]int, n)
	for k := range x {
		img := make([]float64, ImageSize*ImageSize)
		c := rng.Intn(3)
		switch c {
		case 0:
			for i := 0; i < ImageSize; i++ {
				img[i*ImageSize+i] = 0.6 + 0.4*rng.Float64()
				if i+1 < ImageSize {
					img[i*ImageSize+i+1] = 0.3 * rng.Float64()
				}
			}
		case 1:
			for i := 0; i < 3; i++ {
				for j := 0; j < ImageSize; j++ {
					img[i*ImageSize+j] = rng.Float64()
				}
			}
		default:
			for b := 0; b < 4; b++ {
				bi, bj := rng.Intn(ImageSize-2), rng.Intn(ImageSize-2)
				for i := bi; i < bi+3; i++ {
					for j := bj; j < bj+3; j++ {
						img[i*ImageSize+j] = 0.5 + 0.5*rng.Float64()
					}
				}
			}
		}
		for i := 0; i < 12; i++ {
			img[rng.Intn(len(img))] = rng.Float64()
		}
		x[k], y[k] = img, c
	}
	return x, y
}

// cnnDigest hashes the fitted weights' bits in a fixed order: conv1,
// bias1, conv2, bias2, fc, biasFC.
func cnnDigest(m *CNN) string {
	h := sha256.New()
	var buf [8]byte
	for _, w := range [][]float64{m.conv1, m.bias1, m.conv2, m.bias2, m.fc, m.biasFC} {
		for _, v := range w {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cnnGoldenFits are the fixed fits TestCNNGolden pins: 150 images in
// minibatches of 32 (a partial last batch of 22) and 20 images in one
// batch of at most 32 (Batch > n).
var cnnGoldenFits = []struct {
	name     string
	n, batch int
	epochs   int
	want     string
}{
	{"partial-last-batch", 150, 32, 3, "f48aa5c3c8a862043d6eefd907bf7409fe13918ce8f58a650d94fa7e7d692035"},
	{"batch-over-n", 20, 32, 5, "56f3571528dc44fdedec98ef6c74a187e4092bf346578ce44fc322e339b0ef8c"},
}

func fitCNNGolden(t *testing.T, n, batch, epochs int) string {
	t.Helper()
	x, y := cnnGoldenTask(n)
	m := NewCNN(5)
	m.Batch, m.Epochs = batch, epochs
	if err := m.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	return cnnDigest(m)
}

// TestCNNGolden pins the fitted CNN weights bit for bit: any change to
// the order in which the forward pass, the backward pass or the
// minibatch gradient sums add shows up as a digest change. Like
// GBoost's, the digests were recorded on amd64, since the softmax calls
// math.Exp.
func TestCNNGolden(t *testing.T) {
	for _, tc := range cnnGoldenFits {
		if got := fitCNNGolden(t, tc.n, tc.batch, tc.epochs); got != tc.want {
			t.Errorf("%s digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
