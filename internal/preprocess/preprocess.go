// Package preprocess implements the feature-space transformations of the
// paper's Section 4, in the order the paper applies them:
//
//  1. a log (or square-root) transform on features with sparse,
//     power-law-like distributions, which is the paper's key insight for
//     making Euclidean distance meaningful between sparse matrices;
//  2. min-max scaling of every feature to [0, 1];
//  3. PCA projection to 8 components.
//
// Transformations are fitted on training data and then applied to both
// training and test data, exactly as a scikit-learn Pipeline would be.
package preprocess

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Transformer is a fitted feature-space transformation.
type Transformer interface {
	// Transform maps one raw feature vector to the transformed space,
	// returning a new slice. Implementations must be total: an input
	// whose length differs from the fitted dimension is truncated or
	// zero-padded (never a panic), because serving paths hand these
	// untrusted client vectors. Callers that want a hard failure on
	// mismatched input use TransformChecked.
	Transform(x []float64) []float64
	// InDim is the input dimensionality the transformer was fitted on.
	InDim() int
	// OutDim is the dimensionality of the transformed space.
	OutDim() int
}

// TransformChecked applies t after validating the input dimension,
// returning a descriptive error instead of silently padding/truncating.
func TransformChecked(t Transformer, x []float64) ([]float64, error) {
	if d := t.InDim(); len(x) != d {
		return nil, fmt.Errorf("preprocess: %T expects %d features, got %d", t, d, len(x))
	}
	return t.Transform(x), nil
}

// Apply transforms every row through t.
func Apply(t Transformer, rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = t.Transform(r)
	}
	return out
}

// Chain composes transformers left to right.
type Chain []Transformer

// Transform runs x through every stage.
func (c Chain) Transform(x []float64) []float64 {
	// Copy so later stages may mutate freely without aliasing the input.
	y := append([]float64(nil), x...)
	for _, t := range c {
		y = t.Transform(y)
	}
	return y
}

// TransformChecked runs x through every stage, validating the input
// dimension of each against the vector it receives. This is the entry
// point for untrusted feature vectors (e.g. the prediction service).
func (c Chain) TransformChecked(x []float64) ([]float64, error) {
	y := append([]float64(nil), x...)
	for i, t := range c {
		var err error
		if y, err = TransformChecked(t, y); err != nil {
			return nil, fmt.Errorf("stage %d: %w", i, err)
		}
	}
	return y, nil
}

// InDim is the input dimension of the first stage (0 for an empty
// chain, meaning any).
func (c Chain) InDim() int {
	if len(c) == 0 {
		return 0
	}
	return c[0].InDim()
}

// OutDim is the output dimension of the last stage.
func (c Chain) OutDim() int {
	if len(c) == 0 {
		return 0
	}
	return c[len(c)-1].OutDim()
}

// Validate rejects a decoded chain that could panic or change width in
// Transform: an empty stage, a scaler whose Max and Min differ in
// length, a PCA whose components do not match its mean, a stage of no
// input width, or a stage whose input width is not the previous stage's
// output width. A valid chain maps InDim-wide vectors to OutDim-wide
// ones; every chain FitPipeline returns is valid.
func (c Chain) Validate() error {
	for i, t := range c {
		misshapen := false
		switch s := t.(type) {
		case nil:
			return fmt.Errorf("preprocess: stage %d is empty", i)
		case *MinMaxScaler:
			misshapen = len(s.Max) != len(s.Min)
		case *PCA:
			// Rows <= len(Data) keeps Rows*Cols from overflowing.
			m := s.Components
			misshapen = m == nil || m.Cols != len(s.Mean) ||
				m.Rows < 0 || m.Rows > len(m.Data) || len(m.Data) != m.Rows*m.Cols
		}
		if misshapen {
			return fmt.Errorf("preprocess: stage %d (%T) is misshapen", i, t)
		}
		if t.InDim() <= 0 {
			return fmt.Errorf("preprocess: stage %d (%T) takes no input", i, t)
		}
		if i > 0 && t.InDim() != c[i-1].OutDim() {
			return fmt.Errorf("preprocess: stage %d (%T) takes %d features but stage %d emits %d",
				i, t, t.InDim(), i-1, c[i-1].OutDim())
		}
	}
	return nil
}

// SkewTransform applies log1p to features whose training distribution is
// heavy-tailed ("sparse" in the paper's terms) and sqrt to moderately
// skewed ones, leaving well-behaved features alone. The decision is made
// per feature from the skewness of the training sample.
type SkewTransform struct {
	// Mode[j] is 0 (identity), 1 (sqrt) or 2 (log1p) for feature j.
	Mode []int
}

// Skewness thresholds above which sqrt and log transforms are applied.
const (
	sqrtSkewThreshold = 1.0
	logSkewThreshold  = 3.0
)

// FitSkew inspects the training rows and decides per feature between
// identity, sqrt and log1p. Features can be negative in principle
// (max_mu, mu_min differences); those are shifted implicitly by using
// sign-preserving transforms.
func FitSkew(rows [][]float64) (*SkewTransform, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("preprocess: FitSkew on empty sample")
	}
	d := len(rows[0])
	t := &SkewTransform{Mode: make([]int, d)}
	for j := 0; j < d; j++ {
		g := skewness(rows, j)
		switch {
		case g > logSkewThreshold:
			t.Mode[j] = 2
		case g > sqrtSkewThreshold:
			t.Mode[j] = 1
		}
	}
	return t, nil
}

// skewness returns the adjusted Fisher-Pearson sample skewness of
// feature j: G1 = sqrt(n(n-1))/(n-2) * m3/m2^1.5, the bias-corrected
// estimator scipy's skew(bias=False) computes. Samples with fewer than
// three rows have no defined correction and return the biased value.
func skewness(rows [][]float64, j int) float64 {
	n := float64(len(rows))
	mu := 0.0
	for _, r := range rows {
		mu += r[j]
	}
	mu /= n
	var m2, m3 float64
	for _, r := range rows {
		d := r[j] - mu
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	g1 := m3 / math.Pow(m2, 1.5)
	if len(rows) < 3 {
		return g1
	}
	return g1 * math.Sqrt(n*(n-1)) / (n - 2)
}

// Transform applies the fitted per-feature transforms.
func (t *SkewTransform) Transform(x []float64) []float64 {
	y := make([]float64, len(x))
	for j, v := range x {
		mode := 0
		if j < len(t.Mode) {
			mode = t.Mode[j]
		}
		switch mode {
		case 1:
			y[j] = math.Copysign(math.Sqrt(math.Abs(v)), v)
		case 2:
			y[j] = math.Copysign(math.Log1p(math.Abs(v)), v)
		default:
			y[j] = v
		}
	}
	return y
}

// InDim returns the fitted dimensionality.
func (t *SkewTransform) InDim() int { return len(t.Mode) }

// OutDim returns the (unchanged) dimensionality.
func (t *SkewTransform) OutDim() int { return len(t.Mode) }

// MinMaxScaler scales each feature to [0, 1] using training minima and
// maxima; constant features map to 0. Values outside the training range
// are clamped, so novel test matrices cannot blow up distances.
type MinMaxScaler struct {
	Min, Max []float64
}

// FitMinMax computes per-feature minima and maxima.
func FitMinMax(rows [][]float64) (*MinMaxScaler, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("preprocess: FitMinMax on empty sample")
	}
	d := len(rows[0])
	s := &MinMaxScaler{Min: make([]float64, d), Max: make([]float64, d)}
	copy(s.Min, rows[0])
	copy(s.Max, rows[0])
	for _, r := range rows[1:] {
		for j, v := range r {
			if v < s.Min[j] {
				s.Min[j] = v
			}
			if v > s.Max[j] {
				s.Max[j] = v
			}
		}
	}
	return s, nil
}

// Transform scales x into [0, 1] per feature with clamping. The output
// always has the fitted dimension: extra input features are dropped and
// missing ones read as zero (which then clamps), so a wrong-length
// vector from an untrusted client can never panic on s.Min/s.Max.
func (s *MinMaxScaler) Transform(x []float64) []float64 {
	y := make([]float64, len(s.Min))
	for j := range y {
		span := s.Max[j] - s.Min[j]
		if span <= 0 {
			continue
		}
		v := 0.0
		if j < len(x) {
			v = x[j]
		}
		u := (v - s.Min[j]) / span
		if u < 0 {
			u = 0
		} else if u > 1 {
			u = 1
		}
		y[j] = u
	}
	return y
}

// InDim returns the fitted dimensionality.
func (s *MinMaxScaler) InDim() int { return len(s.Min) }

// OutDim returns the (unchanged) dimensionality.
func (s *MinMaxScaler) OutDim() int { return len(s.Min) }

// PCA projects onto the leading principal components of the training
// sample.
type PCA struct {
	// Mean is subtracted before projection.
	Mean []float64
	// Components is k x d: row i is the i-th principal axis.
	Components *linalg.Dense
	// ExplainedVariance holds the eigenvalues of the kept components.
	ExplainedVariance []float64
}

// PaperComponents is the PCA output dimension the paper uses.
const PaperComponents = 8

// FitPCA computes the top-k principal components with the Jacobi
// eigensolver on the covariance matrix. k is capped at the feature
// dimension.
func FitPCA(rows [][]float64, k int) (*PCA, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("preprocess: FitPCA on empty sample")
	}
	if k <= 0 {
		return nil, fmt.Errorf("preprocess: FitPCA with k = %d", k)
	}
	d := len(rows[0])
	if k > d {
		k = d
	}
	sample := linalg.FromRows(rows)
	cov, mean := linalg.Covariance(sample)
	vals, vecs, err := linalg.SymEigen(cov)
	if err != nil {
		return nil, fmt.Errorf("preprocess: FitPCA eigensolve: %w", err)
	}
	p := &PCA{
		Mean:              mean,
		Components:        linalg.NewDense(k, d),
		ExplainedVariance: make([]float64, k),
	}
	for i := 0; i < k; i++ {
		p.ExplainedVariance[i] = vals[i]
		for j := 0; j < d; j++ {
			p.Components.Set(i, j, vecs.At(j, i))
		}
	}
	return p, nil
}

// Transform centres x and projects it onto the kept components. Like
// MinMaxScaler.Transform it is total: the centred vector always has the
// fitted dimension, with extra input features dropped and missing ones
// read as zero.
func (p *PCA) Transform(x []float64) []float64 {
	centered := make([]float64, len(p.Mean))
	for j := range centered {
		v := 0.0
		if j < len(x) {
			v = x[j]
		}
		centered[j] = v - p.Mean[j]
	}
	return linalg.MulVec(p.Components, centered)
}

// InDim returns the fitted dimensionality.
func (p *PCA) InDim() int { return len(p.Mean) }

// OutDim returns the number of kept components (0 for a decoded PCA
// that carries none).
func (p *PCA) OutDim() int {
	if p.Components == nil {
		return 0
	}
	return p.Components.Rows
}

// Options configures FitPipeline.
type Options struct {
	// SkipSkew disables the log/sqrt stage (the paper's "naive"
	// baseline that clusters poorly).
	SkipSkew bool
	// SkipPCA disables the projection stage.
	SkipPCA bool
	// Components is the PCA output size; 0 means PaperComponents.
	Components int
}

// FitPipeline fits the paper's full preprocessing chain — skew transform,
// min-max scaling, PCA(8) — on the training rows.
func FitPipeline(rows [][]float64, opt Options) (Chain, error) {
	var chain Chain
	work := rows
	if !opt.SkipSkew {
		sk, err := FitSkew(work)
		if err != nil {
			return nil, err
		}
		chain = append(chain, sk)
		work = Apply(sk, work)
	}
	mm, err := FitMinMax(work)
	if err != nil {
		return nil, err
	}
	chain = append(chain, mm)
	work = Apply(mm, work)
	if !opt.SkipPCA {
		k := opt.Components
		if k == 0 {
			k = PaperComponents
		}
		pca, err := FitPCA(work, k)
		if err != nil {
			return nil, err
		}
		chain = append(chain, pca)
	}
	return chain, nil
}
