// Package linalg provides the small dense linear-algebra kernels shared
// by the preprocessing (PCA) and learning (logistic regression, SVM, CNN)
// packages: row-major dense matrices, basic BLAS-1/2 style operations
// and a Jacobi eigensolver for symmetric matrices.
//
// The package is deliberately minimal: it implements exactly what the
// reproduction needs, with clear semantics, rather than a general matrix
// library.
package linalg

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewDense allocates a zeroed rows x cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: NewDense(%d, %d)", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must be equal length.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	d := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != d.Cols {
			panic(fmt.Sprintf("linalg: FromRows ragged input: row %d has %d cols, want %d", i, len(r), d.Cols))
		}
		copy(d.Row(i), r)
	}
	return d
}

// At returns element (i, j).
func (d *Dense) At(i, j int) float64 { return d.Data[i*d.Cols+j] }

// Set assigns element (i, j).
func (d *Dense) Set(i, j int, v float64) { d.Data[i*d.Cols+j] = v }

// Row returns a mutable view of row i.
func (d *Dense) Row(i int) []float64 { return d.Data[i*d.Cols : (i+1)*d.Cols] }

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	c := NewDense(d.Rows, d.Cols)
	copy(c.Data, d.Data)
	return c
}

// MulVec returns a*x as a new vector.
func MulVec(a *Dense, x []float64) []float64 {
	if a.Cols != len(x) {
		panic(fmt.Sprintf("linalg: MulVec %dx%d by vector of %d", a.Rows, a.Cols, len(x)))
	}
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		y[i] = Dot(a.Row(i), x)
	}
	return y
}

// Dot returns the inner product of equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// SqDist returns the squared Euclidean distance between equal-length
// vectors; it is the inner loop of every clustering algorithm here.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: SqDist length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// ColumnMeans returns the per-column mean of a sample matrix.
func ColumnMeans(d *Dense) []float64 {
	mu := make([]float64, d.Cols)
	if d.Rows == 0 {
		return mu
	}
	for i := 0; i < d.Rows; i++ {
		Axpy(1, d.Row(i), mu)
	}
	Scale(1/float64(d.Rows), mu)
	return mu
}

// Covariance returns the (biased, 1/n) covariance matrix of the rows of d
// and the column means used for centring. The biased estimator matches
// scikit-learn's PCA up to an immaterial scale factor on the eigenvalues.
func Covariance(d *Dense) (cov *Dense, means []float64) {
	means = ColumnMeans(d)
	cov = NewDense(d.Cols, d.Cols)
	if d.Rows == 0 {
		return cov, means
	}
	row := make([]float64, d.Cols)
	for i := 0; i < d.Rows; i++ {
		copy(row, d.Row(i))
		Axpy(-1, means, row)
		for a := 0; a < d.Cols; a++ {
			if row[a] == 0 {
				continue
			}
			crow := cov.Row(a)
			for b := 0; b < d.Cols; b++ {
				crow[b] += row[a] * row[b]
			}
		}
	}
	Scale(1/float64(d.Rows), cov.Data)
	return cov, means
}
