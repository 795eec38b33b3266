// Package metrics implements the evaluation measures of the paper's
// Section 5: accuracy, support-weighted F1, the multiclass Matthews
// correlation coefficient that the paper argues is the right metric for
// this highly unbalanced problem, and the SpMV-specific measures — the
// geometric-mean speedup against the ground-truth oracle (GT), against
// the always-CSR baseline (CSR), and the count of predictions causing a
// >= 1.5X slowdown (Threshold).
package metrics

import (
	"fmt"
	"math"
)

// Confusion is a square confusion matrix: Counts[t][p] is the number of
// samples of true class t predicted as p.
type Confusion struct {
	Counts [][]int
}

// NewConfusion tabulates predictions against truth for the given number
// of classes. It returns an error on length mismatch or out-of-range
// labels.
func NewConfusion(truth, pred []int, classes int) (*Confusion, error) {
	if len(truth) != len(pred) {
		return nil, fmt.Errorf("metrics: %d truths but %d predictions", len(truth), len(pred))
	}
	if classes < 2 {
		return nil, fmt.Errorf("metrics: need >= 2 classes, got %d", classes)
	}
	c := &Confusion{Counts: make([][]int, classes)}
	for i := range c.Counts {
		c.Counts[i] = make([]int, classes)
	}
	for i := range truth {
		t, p := truth[i], pred[i]
		if t < 0 || t >= classes || p < 0 || p >= classes {
			return nil, fmt.Errorf("metrics: labels (%d, %d) at row %d outside [0, %d)", t, p, i, classes)
		}
		c.Counts[t][p]++
	}
	return c, nil
}

// Total returns the number of tabulated samples.
func (c *Confusion) Total() int {
	n := 0
	for _, row := range c.Counts {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// Accuracy returns the fraction of correct predictions.
func (c *Confusion) Accuracy() float64 {
	n := c.Total()
	if n == 0 {
		return 0
	}
	hit := 0
	for i := range c.Counts {
		hit += c.Counts[i][i]
	}
	return float64(hit) / float64(n)
}

// perClass returns per-class true positives, false positives and false
// negatives.
func (c *Confusion) perClass() (tp, fp, fn []int) {
	k := len(c.Counts)
	tp = make([]int, k)
	fp = make([]int, k)
	fn = make([]int, k)
	for t := 0; t < k; t++ {
		for p := 0; p < k; p++ {
			n := c.Counts[t][p]
			if t == p {
				tp[t] += n
			} else {
				fn[t] += n
				fp[p] += n
			}
		}
	}
	return tp, fp, fn
}

// F1Weighted returns per-class F1 weighted by class support. The paper's
// F1 columns track accuracy closely on these unbalanced datasets, which
// is the signature of support weighting.
func (c *Confusion) F1Weighted() float64 {
	tp, fp, fn := c.perClass()
	total := c.Total()
	if total == 0 {
		return 0
	}
	sum := 0.0
	for i := range tp {
		support := tp[i] + fn[i]
		sum += float64(support) * f1(tp[i], fp[i], fn[i])
	}
	return sum / float64(total)
}

func f1(tp, fp, fn int) float64 {
	den := 2*tp + fp + fn
	if den == 0 {
		return 0
	}
	return 2 * float64(tp) / float64(den)
}

// MCC returns the multiclass Matthews correlation coefficient (the R_K
// statistic of Gorodkin 2004), the paper's headline metric. It is zero
// when either marginal is degenerate (e.g. the model predicts one class
// for everything), which is exactly the behaviour that makes it
// informative on unbalanced data.
func (c *Confusion) MCC() float64 {
	k := len(c.Counts)
	n := float64(c.Total())
	if n == 0 {
		return 0
	}
	// c = total correct, s = n; t_k = truth marginals, p_k = prediction
	// marginals.
	correct := 0.0
	tSum := make([]float64, k)
	pSum := make([]float64, k)
	for t := 0; t < k; t++ {
		for p := 0; p < k; p++ {
			v := float64(c.Counts[t][p])
			if t == p {
				correct += v
			}
			tSum[t] += v
			pSum[p] += v
		}
	}
	var tp, tt, pp float64
	for i := 0; i < k; i++ {
		tp += tSum[i] * pSum[i]
		tt += tSum[i] * tSum[i]
		pp += pSum[i] * pSum[i]
	}
	num := correct*n - tp
	den := math.Sqrt(n*n-pp) * math.Sqrt(n*n-tt)
	if den == 0 {
		return 0
	}
	return num / den
}

// SpeedupReport holds the SpMV-outcome measures of Tables 6 and 7.
type SpeedupReport struct {
	// GT is the geometric-mean speedup relative to the oracle that
	// always picks the fastest format (<= 1 by construction).
	GT float64
	// CSR is the geometric-mean speedup relative to always using CSR.
	CSR float64
	// Threshold is the number of matrices whose predicted format is
	// >= SlowdownThreshold slower than CSR.
	Threshold int
}

// SlowdownThreshold is the slowdown ratio above which a misprediction
// counts in the Threshold column (1.5X in the paper).
const SlowdownThreshold = 1.5

// CSRIndex is the position of CSR within sparse.KernelFormats() order
// (COO, CSR, ELL, HYB), duplicated here to keep this package dependency
// free.
const CSRIndex = 1

// Speedups computes the report from per-matrix kernel times (rows of
// per-format seconds in KernelFormats order) and predicted labels.
func Speedups(times [][]float64, pred []int) (SpeedupReport, error) {
	if len(times) != len(pred) {
		return SpeedupReport{}, fmt.Errorf("metrics: %d time rows but %d predictions", len(times), len(pred))
	}
	if len(times) == 0 {
		return SpeedupReport{}, fmt.Errorf("metrics: empty speedup input")
	}
	var logGT, logCSR float64
	thresh := 0
	for i, row := range times {
		p := pred[i]
		if p < 0 || p >= len(row) {
			return SpeedupReport{}, fmt.Errorf("metrics: prediction %d out of range at row %d", p, i)
		}
		if len(row) <= CSRIndex {
			return SpeedupReport{}, fmt.Errorf("metrics: row %d has %d kernel times, need > %d for the CSR baseline", i, len(row), CSRIndex)
		}
		best := math.Inf(1)
		for k, t := range row {
			// A zero or negative kernel time would send math.Log to
			// ±Inf/NaN and silently poison both geomeans; reject it with
			// the offending row instead.
			if t <= 0 || math.IsInf(t, 0) || math.IsNaN(t) {
				return SpeedupReport{}, fmt.Errorf("metrics: non-positive kernel time %v for format %d at row %d", t, k, i)
			}
			if t < best {
				best = t
			}
		}
		tPred := row[p]
		tCSR := row[CSRIndex]
		logGT += math.Log(best / tPred)
		logCSR += math.Log(tCSR / tPred)
		if tPred/tCSR >= SlowdownThreshold {
			thresh++
		}
	}
	n := float64(len(times))
	return SpeedupReport{
		GT:        math.Exp(logGT / n),
		CSR:       math.Exp(logCSR / n),
		Threshold: thresh,
	}, nil
}

// MaxSlowdown returns the largest ratio between a row's CSR time and its
// best time, and the row index where it occurs — the paper's
// "mawi on an RTX 8000" anecdote generator.
func MaxSlowdown(times [][]float64) (ratio float64, row int) {
	ratio = 1
	for i, r := range times {
		best := math.Inf(1)
		for _, t := range r {
			if t < best {
				best = t
			}
		}
		if s := r[CSRIndex] / best; s > ratio {
			ratio, row = s, i
		}
	}
	return ratio, row
}
