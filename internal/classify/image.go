package classify

import (
	"math"

	"repro/internal/sparse"
)

// ImageSize is the side of the density-image encoding consumed by the
// CNN: the sparsity pattern is histogrammed into ImageSize x ImageSize
// cells, following the matrix-as-image encoding of the CNN prior work
// the paper reimplements (Zhao et al., PPoPP 2018).
const ImageSize = 16

// DensityImage renders a matrix's sparsity pattern as a flattened
// ImageSize x ImageSize density map. Cell values are log-scaled counts
// normalised to [0, 1], which preserves structure across the enormous
// dynamic range of nonzero densities.
func DensityImage(m *sparse.CSR) []float64 {
	rows, cols := m.Dims()
	img := make([]float64, ImageSize*ImageSize)
	rowPtr, colIdx := m.RowPtr(), m.ColIdx()
	for i := 0; i < rows; i++ {
		pi := i * ImageSize / rows
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			pj := int(colIdx[k]) * ImageSize / cols
			img[pi*ImageSize+pj]++
		}
	}
	maxV := 0.0
	for _, v := range img {
		if v > maxV {
			maxV = v
		}
	}
	if maxV > 0 {
		norm := math.Log1p(maxV)
		for i, v := range img {
			img[i] = math.Log1p(v) / norm
		}
	}
	return img
}
