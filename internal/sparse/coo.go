package sparse

import (
	"fmt"

	"repro/internal/obs"
)

// COO is the coordinate format: three parallel arrays of row indices,
// column indices and values, sorted by row then column. On GPUs the COO
// kernel is a segmented reduction whose work is perfectly balanced across
// threads, which is why it wins on extremely skewed matrices despite its
// higher per-entry traffic.
type COO struct {
	rows, cols int
	rowIdx     []int32
	colIdx     []int32
	vals       []float64
}

// NewCOO constructs a COO matrix from raw arrays (used directly, not
// copied). The entries must be sorted by row then column with no
// duplicates; Validate reports a descriptive error otherwise.
func NewCOO(rows, cols int, rowIdx, colIdx []int32, vals []float64) (*COO, error) {
	m := &COO{rows: rows, cols: cols, rowIdx: rowIdx, colIdx: colIdx, vals: vals}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate checks array lengths, index ranges and the sorted-no-duplicate
// ordering invariant.
func (m *COO) Validate() error {
	if m.rows <= 0 || m.cols <= 0 {
		return fmt.Errorf("sparse: COO with non-positive dims %dx%d", m.rows, m.cols)
	}
	if len(m.rowIdx) != len(m.vals) || len(m.colIdx) != len(m.vals) {
		return fmt.Errorf("sparse: COO array lengths differ: rows %d, cols %d, vals %d",
			len(m.rowIdx), len(m.colIdx), len(m.vals))
	}
	for k := range m.vals {
		r, c := m.rowIdx[k], m.colIdx[k]
		if r < 0 || int(r) >= m.rows || c < 0 || int(c) >= m.cols {
			return fmt.Errorf("%w: COO entry %d at (%d, %d) outside %dx%d",
				ErrIndexRange, k, r, c, m.rows, m.cols)
		}
		if k > 0 {
			pr, pc := m.rowIdx[k-1], m.colIdx[k-1]
			if pr > r || (pr == r && pc >= c) {
				return fmt.Errorf("sparse: COO entries not sorted/unique at position %d", k)
			}
		}
	}
	return nil
}

// Dims returns the matrix dimensions.
func (m *COO) Dims() (rows, cols int) { return m.rows, m.cols }

// NNZ returns the number of stored entries.
func (m *COO) NNZ() int { return len(m.vals) }

// Format returns FormatCOO.
func (m *COO) Format() Format { return FormatCOO }

// SpMV computes y = A*x by streaming the sorted entries, the CPU analogue
// of CUSP's segmented-reduction COO kernel.
func (m *COO) SpMV(y, x []float64) error {
	if err := checkSpMVDims(m, y, x); err != nil {
		return err
	}
	start := obs.Now()
	for i := range y {
		y[i] = 0
	}
	for k := range m.vals {
		y[m.rowIdx[k]] += m.vals[k] * x[m.colIdx[k]]
	}
	observeKernel(FormatCOO, m.rows, len(m.vals), start)
	return nil
}

// ToCSR converts the matrix to CSR. The entries are already sorted, so the
// conversion is a single counting pass plus copies.
func (m *COO) ToCSR() *CSR {
	rowPtr := make([]int32, m.rows+1)
	for _, r := range m.rowIdx {
		rowPtr[r+1]++
	}
	for i := 0; i < m.rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	colIdx := make([]int32, len(m.colIdx))
	copy(colIdx, m.colIdx)
	vals := make([]float64, len(m.vals))
	copy(vals, m.vals)
	return &CSR{rows: m.rows, cols: m.cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}
