package sparse

import (
	"fmt"

	"repro/internal/obs"
)

// CSR is the compressed sparse row format: rowPtr[i]..rowPtr[i+1] delimit
// the column indices and values of row i, with columns sorted ascending
// within each row. CSR is the canonical interchange format of this
// library, as it is for the CUSP-based benchmark in the paper.
type CSR struct {
	rows, cols int
	rowPtr     []int32 // length rows+1
	colIdx     []int32 // length nnz, sorted within each row
	vals       []float64
}

// NewCSR constructs a CSR matrix from raw arrays. The arrays are used
// directly (not copied) and must satisfy the CSR invariants; Validate
// reports a descriptive error if they do not.
func NewCSR(rows, cols int, rowPtr, colIdx []int32, vals []float64) (*CSR, error) {
	m := &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate checks the structural invariants: monotone rowPtr covering all
// of colIdx/vals, in-range sorted column indices, and matching lengths.
func (m *CSR) Validate() error {
	if m.rows <= 0 || m.cols <= 0 {
		return fmt.Errorf("sparse: CSR with non-positive dims %dx%d", m.rows, m.cols)
	}
	if len(m.rowPtr) != m.rows+1 {
		return fmt.Errorf("sparse: CSR rowPtr length %d, want %d", len(m.rowPtr), m.rows+1)
	}
	if m.rowPtr[0] != 0 {
		return fmt.Errorf("sparse: CSR rowPtr[0] = %d, want 0", m.rowPtr[0])
	}
	if len(m.colIdx) != len(m.vals) {
		return fmt.Errorf("sparse: CSR colIdx length %d != vals length %d", len(m.colIdx), len(m.vals))
	}
	if int(m.rowPtr[m.rows]) != len(m.vals) {
		return fmt.Errorf("sparse: CSR rowPtr[last] = %d, want nnz %d", m.rowPtr[m.rows], len(m.vals))
	}
	for i := 0; i < m.rows; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		if lo > hi {
			return fmt.Errorf("sparse: CSR rowPtr not monotone at row %d", i)
		}
		for k := lo; k < hi; k++ {
			c := m.colIdx[k]
			if c < 0 || int(c) >= m.cols {
				return fmt.Errorf("%w: CSR column %d at row %d (ncols %d)", ErrIndexRange, c, i, m.cols)
			}
			if k > lo && m.colIdx[k-1] >= c {
				return fmt.Errorf("sparse: CSR columns not strictly ascending in row %d", i)
			}
		}
	}
	return nil
}

// Dims returns the matrix dimensions.
func (m *CSR) Dims() (rows, cols int) { return m.rows, m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.vals) }

// Format returns FormatCSR.
func (m *CSR) Format() Format { return FormatCSR }

// RowPtr exposes the row pointer array; callers must not modify it.
func (m *CSR) RowPtr() []int32 { return m.rowPtr }

// ColIdx exposes the column index array; callers must not modify it.
func (m *CSR) ColIdx() []int32 { return m.colIdx }

// Values exposes the value array; callers must not modify it.
func (m *CSR) Values() []float64 { return m.vals }

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return int(m.rowPtr[i+1] - m.rowPtr[i]) }

// At returns the value at (i, j), or zero when the entry is not stored.
// Lookup is a binary search within the row, O(log nnz(row)).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		return 0
	}
	lo, hi := int(m.rowPtr[i]), int(m.rowPtr[i+1])
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case int(m.colIdx[mid]) < j:
			lo = mid + 1
		case int(m.colIdx[mid]) > j:
			hi = mid
		default:
			return m.vals[mid]
		}
	}
	return 0
}

// SpMV computes y = A*x with the scalar row-wise kernel.
func (m *CSR) SpMV(y, x []float64) error {
	if err := checkSpMVDims(m, y, x); err != nil {
		return err
	}
	start := obs.Now()
	m.spmvRange(y, x, 0, m.rows)
	observeKernel(FormatCSR, m.rows, len(m.vals), start)
	return nil
}

func (m *CSR) spmvRange(y, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		sum := 0.0
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			sum += m.vals[k] * x[m.colIdx[k]]
		}
		y[i] = sum
	}
}

// SpMVParallel computes y = A*x with rows partitioned across
// GOMAXPROCS goroutines. Rows are split into contiguous chunks balanced
// by nonzero count so a few heavy rows do not serialise the computation —
// the CPU analogue of the warp-imbalance effect the paper's csr_max
// feature captures on GPUs.
func (m *CSR) SpMVParallel(y, x []float64) error {
	if err := checkSpMVDims(m, y, x); err != nil {
		return err
	}
	start := obs.Now()
	workers := obs.Workers(m.rows)
	if workers <= 1 || m.NNZ() < 1<<14 {
		m.spmvRange(y, x, 0, m.rows)
		observeKernel(FormatCSR, m.rows, len(m.vals), start)
		return nil
	}
	bounds := m.partitionByNNZ(workers)
	obs.ParallelWorkers(workers, func(w int) {
		if lo, hi := bounds[w], bounds[w+1]; lo < hi {
			m.spmvRange(y, x, lo, hi)
		}
	})
	observeKernel(FormatCSR, m.rows, len(m.vals), start)
	return nil
}

// partitionByNNZ splits the rows into n contiguous chunks of roughly
// equal nonzero count, returning n+1 row boundaries.
func (m *CSR) partitionByNNZ(n int) []int {
	bounds := make([]int, n+1)
	nnz := len(m.vals)
	row := 0
	for w := 1; w < n; w++ {
		target := int32(nnz * w / n)
		for row < m.rows && m.rowPtr[row] < target {
			row++
		}
		bounds[w] = row
	}
	bounds[n] = m.rows
	return bounds
}

// Permute returns P_r * A * P_c' where rowPerm and colPerm map old indices
// to new: new row rowPerm[i] receives old row i. Either permutation may be
// nil to leave that side unchanged. It returns an error if a permutation
// has the wrong length or is not a bijection. Explicit zeros are dropped,
// as Triplet assembly drops them.
//
// The result is built row by row: each new row takes its old row's
// entries with mapped columns and sorts them. A row's columns are
// unique and stay unique under a bijection, so the sort has no ties and
// the result is bit-identical to assembling the mapped entries through
// a Triplet.
func (m *CSR) Permute(rowPerm, colPerm []int) (*CSR, error) {
	if rowPerm != nil {
		if err := checkPermutation(rowPerm, m.rows); err != nil {
			return nil, fmt.Errorf("sparse: row permutation: %w", err)
		}
	}
	if colPerm != nil {
		if err := checkPermutation(colPerm, m.cols); err != nil {
			return nil, fmt.Errorf("sparse: column permutation: %w", err)
		}
	}
	// src[ni] is the old row that becomes new row ni.
	src := make([]int32, m.rows)
	for i := range src {
		if rowPerm != nil {
			src[rowPerm[i]] = int32(i)
		} else {
			src[i] = int32(i)
		}
	}
	rowPtr := make([]int32, m.rows+1)
	for ni, i := range src {
		n := int32(0)
		for _, v := range m.vals[m.rowPtr[i]:m.rowPtr[i+1]] {
			if v != 0 {
				n++
			}
		}
		rowPtr[ni+1] = rowPtr[ni] + n
	}
	colIdx := make([]int32, rowPtr[m.rows])
	vals := make([]float64, rowPtr[m.rows])
	var s *ParseScratch
	if colPerm != nil {
		s = GetParseScratch()
		defer PutParseScratch(s)
	}
	for ni, i := range src {
		p := rowPtr[ni]
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if m.vals[k] == 0 {
				continue
			}
			c := m.colIdx[k]
			if colPerm != nil {
				c = int32(colPerm[c])
			}
			colIdx[p], vals[p] = c, m.vals[k]
			p++
		}
		if colPerm != nil {
			sortRow(colIdx[rowPtr[ni]:p], vals[rowPtr[ni]:p], s)
		}
	}
	return &CSR{rows: m.rows, cols: m.cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}, nil
}

func checkPermutation(p []int, n int) error {
	if len(p) != n {
		return fmt.Errorf("length %d, want %d", len(p), n)
	}
	seen := make([]bool, n)
	for _, v := range p {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("not a bijection on [0, %d)", n)
		}
		seen[v] = true
	}
	return nil
}
