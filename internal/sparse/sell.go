package sparse

import "repro/internal/obs"

// SELL is the sliced ELLPACK format (Kreutzer et al., SIAM J. Sci.
// Comput. 2014, discussed in the paper's related work): rows are
// partitioned into slices of fixed height, and each slice is stored
// ELL-style with its own width — the maximum row length within the
// slice. Padding is bounded per slice instead of per matrix, which tames
// ELL's blow-up on moderately skewed matrices while keeping coalesced
// slice-column-major access.
//
// SELL is not one of the paper's four benchmarked formats; it powers
// this repository's five-format extension experiment (see
// BenchmarkExtensionFiveFormats).
type SELL struct {
	rows, cols int
	slice      int // slice height
	nnz        int
	sliceOff   []int32 // per-slice start offset into colIdx/vals
	sliceWidth []int32 // per-slice ELL width
	colIdx     []int32 // padded, slice-column-major; PadIdx for padding
	vals       []float64
}

// DefaultSliceHeight matches the warp size the GPU kernels schedule by.
const DefaultSliceHeight = 32

// NewSELLFromCSR converts a CSR matrix to SELL with the given slice
// height (<= 0 selects DefaultSliceHeight).
func NewSELLFromCSR(a *CSR, sliceHeight int) (*SELL, error) {
	if sliceHeight <= 0 {
		sliceHeight = DefaultSliceHeight
	}
	nSlices := (a.rows + sliceHeight - 1) / sliceHeight
	m := &SELL{
		rows: a.rows, cols: a.cols, slice: sliceHeight, nnz: a.NNZ(),
		sliceOff:   make([]int32, nSlices+1),
		sliceWidth: make([]int32, nSlices),
	}
	total := 0
	for s := 0; s < nSlices; s++ {
		lo := s * sliceHeight
		hi := lo + sliceHeight
		if hi > a.rows {
			hi = a.rows
		}
		w := 0
		for i := lo; i < hi; i++ {
			if n := a.RowNNZ(i); n > w {
				w = n
			}
		}
		m.sliceWidth[s] = int32(w)
		m.sliceOff[s] = int32(total)
		total += w * (hi - lo)
	}
	m.sliceOff[nSlices] = int32(total)

	m.colIdx = make([]int32, total)
	m.vals = make([]float64, total)
	for i := range m.colIdx {
		m.colIdx[i] = PadIdx
	}
	for s := 0; s < nSlices; s++ {
		lo := s * sliceHeight
		hi := lo + sliceHeight
		if hi > a.rows {
			hi = a.rows
		}
		height := hi - lo
		base := int(m.sliceOff[s])
		for i := lo; i < hi; i++ {
			slot := 0
			for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
				p := base + slot*height + (i - lo) // slice-column-major
				m.colIdx[p] = a.colIdx[k]
				m.vals[p] = a.vals[k]
				slot++
			}
		}
	}
	return m, nil
}

// Dims returns the matrix dimensions.
func (m *SELL) Dims() (rows, cols int) { return m.rows, m.cols }

// NNZ returns the number of true entries.
func (m *SELL) NNZ() int { return m.nnz }

// Format returns FormatSELL.
func (m *SELL) Format() Format { return FormatSELL }

// SliceHeight returns the slice height.
func (m *SELL) SliceHeight() int { return m.slice }

// SlabSize returns the total number of stored slots including padding;
// always between NNZ and the full-ELL slab size.
func (m *SELL) SlabSize() int { return len(m.vals) }

// NumSlices returns the number of row slices.
func (m *SELL) NumSlices() int { return len(m.sliceWidth) }

// SpMV computes y = A*x walking each slice column-major.
func (m *SELL) SpMV(y, x []float64) error {
	if err := checkSpMVDims(m, y, x); err != nil {
		return err
	}
	start := obs.Now()
	for i := range y {
		y[i] = 0
	}
	for s := 0; s < len(m.sliceWidth); s++ {
		lo := s * m.slice
		hi := lo + m.slice
		if hi > m.rows {
			hi = m.rows
		}
		height := hi - lo
		base := int(m.sliceOff[s])
		for slot := 0; slot < int(m.sliceWidth[s]); slot++ {
			col := base + slot*height
			for r := 0; r < height; r++ {
				if c := m.colIdx[col+r]; c != PadIdx {
					y[lo+r] += m.vals[col+r] * x[c]
				}
			}
		}
	}
	observeKernel(FormatSELL, m.rows, m.nnz, start)
	return nil
}

// ToCSR converts the matrix back to canonical CSR.
func (m *SELL) ToCSR() *CSR {
	t := NewTriplet(m.rows, m.cols)
	t.Reserve(m.nnz)
	for s := 0; s < len(m.sliceWidth); s++ {
		lo := s * m.slice
		hi := lo + m.slice
		if hi > m.rows {
			hi = m.rows
		}
		height := hi - lo
		base := int(m.sliceOff[s])
		for slot := 0; slot < int(m.sliceWidth[s]); slot++ {
			col := base + slot*height
			for r := 0; r < height; r++ {
				if c := m.colIdx[col+r]; c != PadIdx {
					_ = t.Add(lo+r, int(c), m.vals[col+r])
				}
			}
		}
	}
	return t.ToCSR()
}

var _ Matrix = (*SELL)(nil)
