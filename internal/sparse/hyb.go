package sparse

import (
	"fmt"

	"repro/internal/obs"
)

// HYB is the hybrid format: an ELL slab of fixed width holding the
// "typical" prefix of each row, and a COO tail holding the overflow of
// rows with more nonzeros than the slab width. It keeps ELL's coalescing
// for the bulk of the matrix while bounding the padding blow-up.
type HYB struct {
	rows, cols int
	nnz        int
	ell        *ELL
	coo        *COO // nil when no row overflows
}

// hybRelativeSpeed mirrors CUSP's hyb conversion heuristic: the ELL slab
// width is the largest w such that at least rows/hybRelativeSpeed rows
// have w or more nonzeros, so padding stays profitable relative to the
// COO tail.
const hybRelativeSpeed = 3

// HybWidthFromHistogram computes the ELL slab width CUSP's heuristic
// would choose for the given row-length histogram (hist[k] = number of
// rows with exactly k nonzeros) and row count. Exposed so the feature
// extractor computes hyb_* features without materialising the format.
func HybWidthFromHistogram(hist []int, rows int) int {
	// atLeast[k] = rows with >= k nonzeros, computed by suffix summation.
	width := 0
	atLeast := 0
	for k := len(hist) - 1; k >= 1; k-- {
		atLeast += hist[k]
		if atLeast*hybRelativeSpeed >= rows {
			width = k
			break
		}
	}
	return width
}

// NewHYBFromCSR converts a CSR matrix to HYB using the CUSP width
// heuristic.
func NewHYBFromCSR(a *CSR) (*HYB, error) {
	maxRow := 0
	for i := 0; i < a.rows; i++ {
		if n := a.RowNNZ(i); n > maxRow {
			maxRow = n
		}
	}
	hist := make([]int, maxRow+1)
	for i := 0; i < a.rows; i++ {
		hist[a.RowNNZ(i)]++
	}
	width := HybWidthFromHistogram(hist, a.rows)
	return newHYBWithWidth(a, width)
}

func newHYBWithWidth(a *CSR, width int) (*HYB, error) {
	if width < 0 {
		return nil, fmt.Errorf("sparse: HYB with negative width %d", width)
	}
	slab := a.rows * width
	ell := &ELL{
		rows:   a.rows,
		cols:   a.cols,
		width:  width,
		colIdx: make([]int32, slab),
		vals:   make([]float64, slab),
	}
	for i := range ell.colIdx {
		ell.colIdx[i] = PadIdx
	}
	var cooR, cooC []int32
	var cooV []float64
	for i := 0; i < a.rows; i++ {
		slot := 0
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			if slot < width {
				p := slot*a.rows + i
				ell.colIdx[p] = a.colIdx[k]
				ell.vals[p] = a.vals[k]
				ell.nnz++
			} else {
				cooR = append(cooR, int32(i))
				cooC = append(cooC, a.colIdx[k])
				cooV = append(cooV, a.vals[k])
			}
			slot++
		}
	}
	h := &HYB{rows: a.rows, cols: a.cols, nnz: a.NNZ(), ell: ell}
	if len(cooV) > 0 {
		coo, err := NewCOO(a.rows, a.cols, cooR, cooC, cooV)
		if err != nil {
			return nil, fmt.Errorf("sparse: HYB COO tail: %w", err)
		}
		h.coo = coo
	}
	return h, nil
}

// Dims returns the matrix dimensions.
func (m *HYB) Dims() (rows, cols int) { return m.rows, m.cols }

// NNZ returns the number of true entries across both parts.
func (m *HYB) NNZ() int { return m.nnz }

// Format returns FormatHYB.
func (m *HYB) Format() Format { return FormatHYB }

// ELLNNZ returns the number of true entries stored in the ELL part
// (the paper's hyb_ell_frac numerator).
func (m *HYB) ELLNNZ() int { return m.ell.nnz }

// COONNZ returns the number of entries in the COO tail (the paper's
// hyb_coo feature).
func (m *HYB) COONNZ() int {
	if m.coo == nil {
		return 0
	}
	return m.coo.NNZ()
}

// SpMV computes y = A*x: the ELL part writes y, then the COO tail
// accumulates into it.
func (m *HYB) SpMV(y, x []float64) error {
	if err := checkSpMVDims(m, y, x); err != nil {
		return err
	}
	start := obs.Now()
	m.ell.spmvKernel(y, x)
	if m.coo != nil {
		for k, v := range m.coo.vals {
			y[m.coo.rowIdx[k]] += v * x[m.coo.colIdx[k]]
		}
	}
	observeKernel(FormatHYB, m.rows, m.nnz, start)
	return nil
}

// ToCSR converts the matrix back to canonical CSR.
func (m *HYB) ToCSR() *CSR {
	t := NewTriplet(m.rows, m.cols)
	t.Reserve(m.nnz)
	for s := 0; s < m.ell.width; s++ {
		base := s * m.rows
		for i := 0; i < m.rows; i++ {
			if c := m.ell.colIdx[base+i]; c != PadIdx {
				_ = t.Add(i, int(c), m.ell.vals[base+i])
			}
		}
	}
	if m.coo != nil {
		for k, v := range m.coo.vals {
			_ = t.Add(int(m.coo.rowIdx[k]), int(m.coo.colIdx[k]), v)
		}
	}
	return t.ToCSR()
}
