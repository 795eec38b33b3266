package sparse

import "fmt"

// Convert converts a CSR matrix to the requested format. CSR returns the
// input unchanged. ELL conversion may fail with ErrTooLarge; the
// benchmark driver treats that like CUSP's conversion exception and drops
// the matrix, as the paper does.
func Convert(a *CSR, f Format) (Matrix, error) {
	switch f {
	case FormatCSR:
		return a, nil
	case FormatCOO:
		return NewCOOFromCSR(a), nil
	case FormatELL:
		return NewELLFromCSR(a, 0)
	case FormatHYB:
		return NewHYBFromCSR(a)
	case FormatSELL:
		return NewSELLFromCSR(a, 0)
	default:
		return nil, fmt.Errorf("sparse: convert to unknown format %v", f)
	}
}

// NewCOOFromCSR expands a CSR matrix to coordinate form; entries stay
// sorted by row then column.
func NewCOOFromCSR(a *CSR) *COO {
	rowIdx := make([]int32, a.NNZ())
	for i := 0; i < a.rows; i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			rowIdx[k] = int32(i)
		}
	}
	colIdx := make([]int32, len(a.colIdx))
	copy(colIdx, a.colIdx)
	vals := make([]float64, len(a.vals))
	copy(vals, a.vals)
	return &COO{rows: a.rows, cols: a.cols, rowIdx: rowIdx, colIdx: colIdx, vals: vals}
}

// Equal reports whether two matrices have identical dimensions and
// identical stored entries, compared through their canonical CSR forms.
func Equal(a, b Matrix) bool {
	ca, err := ToCSR(a)
	if err != nil {
		return false
	}
	cb, err := ToCSR(b)
	if err != nil {
		return false
	}
	if ca.rows != cb.rows || ca.cols != cb.cols || len(ca.vals) != len(cb.vals) {
		return false
	}
	for i := range ca.rowPtr {
		if ca.rowPtr[i] != cb.rowPtr[i] {
			return false
		}
	}
	for k := range ca.vals {
		if ca.colIdx[k] != cb.colIdx[k] || ca.vals[k] != cb.vals[k] {
			return false
		}
	}
	return true
}

// ToCSR converts any Matrix to canonical CSR.
func ToCSR(m Matrix) (*CSR, error) {
	switch t := m.(type) {
	case *CSR:
		return t, nil
	case *COO:
		return t.ToCSR(), nil
	case *ELL:
		return t.ToCSR(), nil
	case *HYB:
		return t.ToCSR(), nil
	case *SELL:
		return t.ToCSR(), nil
	default:
		return nil, fmt.Errorf("sparse: cannot convert %T to CSR", m)
	}
}
