package sparse

import (
	"fmt"

	"repro/internal/obs"
)

// ELL is the ELLPACK format: a dense rows x width slab where width is the
// maximum nonzeros per row, with shorter rows padded. Entries are stored
// column-major (entry j of every row is contiguous) exactly as in CUSP,
// where that layout gives coalesced GPU loads. Padding positions carry
// column index -1 and value 0.
//
// The storage blow-up for skewed matrices is the reason the paper's
// datasets exclude matrices whose ELL structure exceeds a size limit.
type ELL struct {
	rows, cols int
	width      int
	nnz        int
	colIdx     []int32   // len rows*width, column-major, -1 for padding
	vals       []float64 // len rows*width, column-major
}

// PadIdx is the column index stored in ELL/HYB padding slots.
const PadIdx int32 = -1

// DefaultELLLimit caps the ELL slab at this multiple of the nonzero
// count. CUSP's ell_matrix conversion fails beyond a similar threshold
// ("restrictions on the size" noted by the paper and by Benatia et al.).
const DefaultELLLimit = 16

// NewELLFromCSR converts a CSR matrix to ELL. If the slab rows*width would
// exceed limit*nnz entries, it returns ErrTooLarge (pass limit <= 0 for
// DefaultELLLimit).
func NewELLFromCSR(a *CSR, limit int) (*ELL, error) {
	if limit <= 0 {
		limit = DefaultELLLimit
	}
	width := 0
	for i := 0; i < a.rows; i++ {
		if n := a.RowNNZ(i); n > width {
			width = n
		}
	}
	slab := a.rows * width
	if nnz := a.NNZ(); nnz > 0 && slab > limit*nnz {
		return nil, fmt.Errorf("%w: ELL slab %d entries > %d * nnz %d", ErrTooLarge, slab, limit, nnz)
	}
	m := &ELL{
		rows:   a.rows,
		cols:   a.cols,
		width:  width,
		nnz:    a.NNZ(),
		colIdx: make([]int32, slab),
		vals:   make([]float64, slab),
	}
	for i := range m.colIdx {
		m.colIdx[i] = PadIdx
	}
	for i := 0; i < a.rows; i++ {
		slot := 0
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			p := slot*a.rows + i // column-major
			m.colIdx[p] = a.colIdx[k]
			m.vals[p] = a.vals[k]
			slot++
		}
	}
	return m, nil
}

// Dims returns the matrix dimensions.
func (m *ELL) Dims() (rows, cols int) { return m.rows, m.cols }

// NNZ returns the number of true (non-padding) entries.
func (m *ELL) NNZ() int { return m.nnz }

// Format returns FormatELL.
func (m *ELL) Format() Format { return FormatELL }

// SpMV computes y = A*x walking the slab column-major so that the access
// pattern mirrors the coalesced GPU kernel.
func (m *ELL) SpMV(y, x []float64) error {
	if err := checkSpMVDims(m, y, x); err != nil {
		return err
	}
	start := obs.Now()
	m.spmvKernel(y, x)
	observeKernel(FormatELL, m.rows, m.nnz, start)
	return nil
}

// spmvKernel is the uninstrumented slab walk, shared with the HYB kernel
// (which must not record an ELL observation for its ELL part).
func (m *ELL) spmvKernel(y, x []float64) {
	for i := range y {
		y[i] = 0
	}
	for s := 0; s < m.width; s++ {
		base := s * m.rows
		for i := 0; i < m.rows; i++ {
			c := m.colIdx[base+i]
			if c != PadIdx {
				y[i] += m.vals[base+i] * x[c]
			}
		}
	}
}

// ToCSR converts the matrix back to canonical CSR.
func (m *ELL) ToCSR() *CSR {
	t := NewTriplet(m.rows, m.cols)
	t.Reserve(m.nnz)
	for s := 0; s < m.width; s++ {
		base := s * m.rows
		for i := 0; i < m.rows; i++ {
			if c := m.colIdx[base+i]; c != PadIdx {
				// Indices came from a valid matrix; Add cannot fail.
				_ = t.Add(i, int(c), m.vals[base+i])
			}
		}
	}
	return t.ToCSR()
}
