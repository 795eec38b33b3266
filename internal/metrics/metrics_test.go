package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestConfusionBasics(t *testing.T) {
	truth := []int{0, 0, 1, 1, 2, 2}
	pred := []int{0, 1, 1, 1, 2, 0}
	c, err := NewConfusion(truth, pred, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Total() != 6 {
		t.Errorf("Total = %d", c.Total())
	}
	if got := c.Accuracy(); math.Abs(got-4.0/6) > 1e-15 {
		t.Errorf("Accuracy = %v", got)
	}
	if c.Counts[0][1] != 1 || c.Counts[2][0] != 1 || c.Counts[1][1] != 2 {
		t.Errorf("counts wrong: %v", c.Counts)
	}
}

func TestConfusionErrors(t *testing.T) {
	if _, err := NewConfusion([]int{0}, []int{0, 1}, 2); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewConfusion([]int{0}, []int{5}, 2); err == nil {
		t.Error("out-of-range prediction accepted")
	}
	if _, err := NewConfusion([]int{0}, []int{0}, 1); err == nil {
		t.Error("single class accepted")
	}
}

func TestPerfectPrediction(t *testing.T) {
	truth := []int{0, 1, 2, 3, 0, 1}
	c, err := NewConfusion(truth, truth, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Accuracy() != 1 || c.F1Weighted() != 1 {
		t.Error("perfect prediction should score 1 everywhere")
	}
	if math.Abs(c.MCC()-1) > 1e-12 {
		t.Errorf("MCC = %v, want 1", c.MCC())
	}
}

func TestMCCDegenerateMajorityPredictor(t *testing.T) {
	// Always predicting the majority class: high accuracy, zero MCC —
	// the exact pathology the paper adopts MCC to expose.
	truth := make([]int, 100)
	pred := make([]int, 100)
	for i := 90; i < 100; i++ {
		truth[i] = 1
	}
	c, err := NewConfusion(truth, pred, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Accuracy() != 0.9 {
		t.Errorf("Accuracy = %v", c.Accuracy())
	}
	if c.MCC() != 0 {
		t.Errorf("MCC = %v, want 0 for a constant predictor", c.MCC())
	}
	// Weighted F1 stays high: the missed minority class scores F1 0 but
	// carries only a tenth of the support. Class 0 has tp=90, fp=10.
	if got, want := c.F1Weighted(), 0.9*180.0/190; math.Abs(got-want) > 1e-12 {
		t.Errorf("weighted F1 = %v, want %v", got, want)
	}
}

func TestMCCHandComputedBinary(t *testing.T) {
	// TP=4, TN=3, FP=1, FN=2 -> MCC = (4*3-1*2)/sqrt(6*5*4*5).
	truth := []int{1, 1, 1, 1, 1, 1, 0, 0, 0, 0}
	pred := []int{1, 1, 1, 1, 0, 0, 0, 0, 0, 1}
	c, err := NewConfusion(truth, pred, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := (4.0*3 - 1*2) / math.Sqrt(6*5*4*5)
	if got := c.MCC(); math.Abs(got-want) > 1e-12 {
		t.Errorf("MCC = %v, want %v", got, want)
	}
}

func TestF1HandComputed(t *testing.T) {
	// Class 0: tp=2, fp=1, fn=0 -> F1 = 4/5. Class 1: tp=1, fp=0, fn=1
	// -> F1 = 2/3.
	truth := []int{0, 0, 1, 1}
	pred := []int{0, 0, 1, 0}
	c, err := NewConfusion(truth, pred, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.F1Weighted(); math.Abs(got-(0.8*2+2.0/3*2)/4) > 1e-12 {
		t.Errorf("weighted F1 = %v", got)
	}
}

func TestSpeedups(t *testing.T) {
	// Rows: [COO, CSR, ELL, HYB] times.
	times := [][]float64{
		{4, 1, 2, 8}, // best CSR
		{4, 2, 1, 8}, // best ELL
		{4, 2, 4, 8}, // best CSR
	}
	// Predictions: CSR (optimal), CSR (2x worse than ELL), ELL (2x worse
	// than CSR -> threshold event).
	pred := []int{1, 1, 2}
	r, err := Speedups(times, pred)
	if err != nil {
		t.Fatal(err)
	}
	// GT: (1/1 * 1/2 * 2/4)^(1/3) = (0.25)^(1/3)
	if math.Abs(r.GT-math.Cbrt(0.25)) > 1e-12 {
		t.Errorf("GT = %v", r.GT)
	}
	// CSR: (1/1 * 2/2 * 2/4)^(1/3) = (0.5)^(1/3)
	if math.Abs(r.CSR-math.Cbrt(0.5)) > 1e-12 {
		t.Errorf("CSR = %v", r.CSR)
	}
	if r.Threshold != 1 {
		t.Errorf("Threshold = %d, want 1", r.Threshold)
	}
}

func TestSpeedupsOracleIsOne(t *testing.T) {
	times := [][]float64{{3, 1, 2, 4}, {1, 2, 3, 4}}
	pred := []int{1, 0} // the true best each time
	r, err := Speedups(times, pred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.GT-1) > 1e-12 {
		t.Errorf("oracle GT = %v, want 1", r.GT)
	}
	if r.CSR < 1 {
		t.Errorf("oracle CSR speedup %v < 1", r.CSR)
	}
	if r.Threshold != 0 {
		t.Errorf("oracle Threshold = %d", r.Threshold)
	}
}

func TestSpeedupsErrors(t *testing.T) {
	if _, err := Speedups(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Speedups([][]float64{{1, 2}}, []int{5}); err == nil {
		t.Error("out-of-range prediction accepted")
	}
	if _, err := Speedups([][]float64{{1, 2}}, []int{0, 1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestMaxSlowdown(t *testing.T) {
	times := [][]float64{
		{1, 2, 4, 8},  // CSR/best = 2
		{1, 10, 4, 8}, // CSR/best = 10
		{2, 1, 4, 8},  // CSR optimal
	}
	ratio, row := MaxSlowdown(times)
	if ratio != 10 || row != 1 {
		t.Errorf("MaxSlowdown = %v at %d", ratio, row)
	}
}

// TestQuickMCCBounds property-tests that MCC stays in [-1, 1] and that
// accuracy/F1 stay in [0, 1] for random confusion inputs.
func TestQuickMCCBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k := 5+rng.Intn(200), 2+rng.Intn(4)
		truth := make([]int, n)
		pred := make([]int, n)
		for i := range truth {
			truth[i] = rng.Intn(k)
			pred[i] = rng.Intn(k)
		}
		c, err := NewConfusion(truth, pred, k)
		if err != nil {
			return false
		}
		m := c.MCC()
		if m < -1-1e-12 || m > 1+1e-12 || math.IsNaN(m) {
			return false
		}
		for _, v := range []float64{c.Accuracy(), c.F1Weighted()} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickSpeedupGTAtMostOne property-tests GT <= 1: no predictor can
// beat the oracle.
func TestQuickSpeedupGTAtMostOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		times := make([][]float64, n)
		pred := make([]int, n)
		for i := range times {
			row := make([]float64, 4)
			for j := range row {
				row[j] = 1e-6 + rng.Float64()
			}
			times[i] = row
			pred[i] = rng.Intn(4)
		}
		r, err := Speedups(times, pred)
		if err != nil {
			return false
		}
		return r.GT <= 1+1e-9 && r.Threshold >= 0 && r.Threshold <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSpeedupsRejectsNonPositiveTimes checks that a zero, negative or
// non-finite kernel time is reported as an error naming the offending
// row instead of sending the geomeans to ±Inf/NaN through math.Log.
func TestSpeedupsRejectsNonPositiveTimes(t *testing.T) {
	base := func() [][]float64 {
		return [][]float64{
			{4, 2, 3, 5},
			{1, 2, 8, 4},
			{6, 3, 2, 9},
		}
	}
	for _, tc := range []struct {
		name string
		bad  float64
	}{
		{"zero", 0},
		{"negative", -1e-9},
		{"posinf", math.Inf(1)},
		{"nan", math.NaN()},
	} {
		times := base()
		times[1][2] = tc.bad
		_, err := Speedups(times, []int{1, 1, 1})
		if err == nil {
			t.Errorf("%s kernel time accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "row 1") {
			t.Errorf("%s: error %q does not name the offending row", tc.name, err)
		}
	}
	// The clean baseline still computes.
	if _, err := Speedups(base(), []int{1, 1, 1}); err != nil {
		t.Errorf("clean input rejected: %v", err)
	}
	// A row too short to contain the CSR baseline errors instead of
	// panicking.
	if _, err := Speedups([][]float64{{3}}, []int{0}); err == nil {
		t.Error("1-entry row accepted despite missing CSR baseline")
	}
}
