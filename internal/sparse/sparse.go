// Package sparse implements the sparse matrix storage formats and SpMV
// kernels evaluated by Dhandhania et al. (ICPP Workshops 2021): COO, CSR,
// ELL and HYB, plus sliced ELL (SELL) for the five-format extension
// benchmark, together with conversions from CSR, MatrixMarket I/O, and
// serial as well as parallel matrix-vector multiplication.
//
// All formats store float64 values with zero-based int32 indices (matching
// the 32-bit index arrays used by CUSP on the GPU). A matrix is built
// either from a Triplet accumulator or converted from another format.
//
// The canonical interchange format is CSR: every other format converts
// to and from it, mirroring the benchmarking workflow of the paper where
// matrices are read into CSR and then converted per kernel.
package sparse

import (
	"errors"
	"fmt"
)

// Format enumerates the sparse storage formats known to this library.
type Format int

// The four storage formats the paper benchmarks, plus SELL. The Table 1
// DIA features (diagonals, dia_size, dia_frac) are computed straight
// from CSR by package features, so no DIA format is stored.
const (
	FormatCOO Format = iota
	FormatCSR
	FormatELL
	FormatHYB
	// FormatSELL is sliced ELLPACK, an extension format beyond the
	// paper's benchmark set (see the SELL type).
	FormatSELL
)

// NumKernelFormats is the number of formats benchmarked for format
// selection (CSR, COO, ELL, HYB); DIA is excluded, as in the paper.
const NumKernelFormats = 4

// KernelFormats lists the formats that participate in format selection,
// in the order used by label vectors throughout the repository.
func KernelFormats() []Format {
	return []Format{FormatCOO, FormatCSR, FormatELL, FormatHYB}
}

// String returns the conventional upper-case name of the format.
func (f Format) String() string {
	switch f {
	case FormatCOO:
		return "COO"
	case FormatCSR:
		return "CSR"
	case FormatELL:
		return "ELL"
	case FormatHYB:
		return "HYB"
	case FormatSELL:
		return "SELL"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// Matrix is the interface satisfied by every storage format. SpMV computes
// y = A*x; implementations must not retain x or y.
type Matrix interface {
	// Dims returns the number of rows and columns.
	Dims() (rows, cols int)
	// NNZ returns the number of explicitly stored nonzero entries.
	NNZ() int
	// Format identifies the storage format.
	Format() Format
	// SpMV computes y = A*x. len(x) must equal the column count and
	// len(y) the row count.
	SpMV(y, x []float64) error
}

// Errors shared by the format implementations.
var (
	// ErrDimension reports an SpMV vector length mismatch.
	ErrDimension = errors.New("sparse: dimension mismatch")
	// ErrIndexRange reports an out-of-range row or column index.
	ErrIndexRange = errors.New("sparse: index out of range")
	// ErrTooLarge reports that ELL's padded slab would exceed the
	// configured size limit; CUSP raises the analogous
	// format_conversion_exception, and the paper drops such matrices.
	ErrTooLarge = errors.New("sparse: format structure exceeds size limit")
)

func checkSpMVDims(m Matrix, y, x []float64) error {
	r, c := m.Dims()
	if len(x) != c || len(y) != r {
		return fmt.Errorf("%w: %s SpMV with %dx%d matrix, len(x)=%d, len(y)=%d",
			ErrDimension, m.Format(), r, c, len(x), len(y))
	}
	return nil
}
