// Package features computes the 21 statistical sparse-matrix features of
// Table 1 in the paper, the inputs to every classifier and clustering
// model in this repository. Extract reads a CSR matrix in two passes: a
// sweep over the row pointers for the row-length statistics (the mean
// nnz/rows is known up front, so the squared deviations add in the same
// sweep), then a diagonal pass over the column indices that counts the
// occupied diagonals without a branch per nonzero and fills the
// row-length histogram the HYB features read. The features are
// architecture-invariant, so they are computed once per matrix.
package features

import (
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/sparse"
)

// Count is the number of features in Vector, matching Table 1.
const Count = 21

// Names lists the feature names in Vector order, using the paper's
// spelling.
var Names = [Count]string{
	"nrows", "ncols", "nnz", "nnz_frac", "nnz_mu", "nnz_min", "nnz_max",
	"nnz_sig", "max_mu", "mu_min", "csr_max", "sig_lower", "sig_higher",
	"hyb_ell_size", "hyb_coo", "hyb_ell_frac", "diagonals", "dia_size",
	"dia_frac", "ell_frac", "ell_size",
}

// Vector holds one matrix's feature values in Names order.
type Vector [Count]float64

// Indices of the individual features within Vector.
const (
	NRows = iota
	NCols
	NNZ
	NNZFrac
	NNZMu
	NNZMin
	NNZMax
	NNZSig
	MaxMu
	MuMin
	CSRMax
	SigLower
	SigHigher
	HybEllSize
	HybCoo
	HybEllFrac
	Diagonals
	DiaSize
	DiaFrac
	EllFrac
	EllSize
)

// CheapCount is the number of cheap features: the O(rows) subset that
// needs neither the column indices (DIA pass) nor the row-length
// histogram (HYB pass). These are the structural features the cascade's
// first stage classifies on.
const CheapCount = 8

// CheapIndices lists the Vector indices of the cheap features, in the
// order ExtractCheap emits them.
var CheapIndices = [CheapCount]int{
	NRows, NCols, NNZ, NNZFrac, NNZMu, NNZMin, NNZMax, NNZSig,
}

// CheapVector holds the cheap-feature values in CheapIndices order.
type CheapVector [CheapCount]float64

// Slice returns the cheap vector as a fresh []float64.
func (v CheapVector) Slice() []float64 {
	s := make([]float64, CheapCount)
	copy(s, v[:])
	return s
}

// CheapSlice gathers the cheap features out of a full feature row
// (Vector order). Extraction clamps both paths identically, so for any
// matrix CheapSlice(Extract(m).Slice()) == ExtractCheap(m).Slice().
func CheapSlice(full []float64) []float64 {
	out := make([]float64, CheapCount)
	for i, idx := range CheapIndices {
		if idx < len(full) {
			out[i] = full[idx]
		}
	}
	return out
}

// slab computes an a×b storage-size feature in float64. The operands are
// matrix dimensions and widths, so an int product can silently overflow
// negative on adversarial inputs (rows ~ 2^32 × width ~ 2^31); promoting
// each factor first keeps the feature finite and positive.
func slab(a, b int) float64 {
	return float64(a) * float64(b)
}

// Extraction metrics, recorded when an obs sink is registered:
// extractions performed, and the wall time per call.
var (
	extractCalls   = obs.Default.Counter("features/extractions")
	extractSeconds = obs.Default.Histogram("features/extract/seconds", obs.DurationBuckets)
	cheapCalls     = obs.Default.Counter("features/extractions_cheap")
	cheapSeconds   = obs.Default.Histogram("features/extract_cheap/seconds", obs.DurationBuckets)
)

// Scratch holds the reusable working buffers of the feature pass: the
// row-length histogram and the diagonal-occupancy map. A zero Scratch is
// ready to use; reusing one across matrices (as ExtractAll does per
// worker) drops the two per-call allocations that otherwise dominate
// extraction on small matrices.
type Scratch struct {
	hist []int
	occ  []uint8
}

// zeroed returns *buf resized to n and all zero, growing it when short.
func zeroed[T int | uint8](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
		return *buf
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// Extract computes the feature vector for a matrix.
func Extract(m *sparse.CSR) Vector {
	var s Scratch
	return s.Extract(m)
}

// Extract computes the feature vector for a matrix, reusing the
// scratch's buffers. Equivalent to the package-level Extract; a Scratch
// must not be shared between goroutines.
func (s *Scratch) Extract(m *sparse.CSR) Vector {
	start := obs.Now()
	defer func() {
		if !start.IsZero() {
			extractCalls.Inc()
			extractSeconds.Observe(time.Since(start).Seconds())
		}
	}()
	var f Vector
	rows, cols := m.Dims()
	nnz := m.NNZ()
	rowPtr, colIdx := m.RowPtr(), m.ColIdx()

	f[NRows] = float64(rows)
	f[NCols] = float64(cols)
	f[NNZ] = float64(nnz)
	if rows > 0 && cols > 0 {
		f[NNZFrac] = float64(nnz) / (float64(rows) * float64(cols))
	}
	var mu float64
	if rows > 0 {
		mu = float64(nnz) / float64(rows)
	}

	// Row sweep: extremes, the squared deviations from the mean, and the
	// one-sided ones below and above it, each sum adding in row order.
	// minRow starts at 0, not MaxInt64, when there are no rows to scan:
	// every feature of a degenerate matrix must stay finite and zero-safe
	// (they flow into drift windows and the scaler).
	minRow, maxRow := 0, 0
	if rows > 0 {
		minRow = math.MaxInt64
	}
	var sq, lowSq, highSq float64
	var nLow, nHigh int
	for i := range rows {
		n := int(rowPtr[i+1] - rowPtr[i])
		minRow = min(minRow, n)
		maxRow = max(maxRow, n)
		d := float64(n) - mu
		sq += d * d
		if d < 0 {
			lowSq += d * d
			nLow++
		} else if d > 0 {
			highSq += d * d
			nHigh++
		}
	}
	f[NNZMu] = mu
	f[NNZMin] = float64(minRow)
	f[NNZMax] = float64(maxRow)
	f[MaxMu] = float64(maxRow) - mu
	f[MuMin] = mu - float64(minRow)
	// csr_max: the scalar CSR kernel's warp of 32 rows finishes only when
	// its longest row does, and the longest of those over all warps is
	// the longest row.
	f[CSRMax] = float64(maxRow)
	if rows > 0 {
		f[NNZSig] = math.Sqrt(sq / float64(rows))
	}
	if nLow > 0 {
		f[SigLower] = math.Sqrt(lowSq / float64(nLow))
	}
	if nHigh > 0 {
		f[SigHigher] = math.Sqrt(highSq / float64(nHigh))
	}

	// ELL structure.
	f[EllSize] = slab(rows, maxRow)
	if maxRow > 0 {
		f[EllFrac] = float64(nnz) / f[EllSize]
	}

	// Diagonal pass. Entry (i, c) lies on diagonal c - i + rows - 1, so
	// o is row i's window onto the occupancy map, indexed by column, and
	// a diagonal counts the first time an entry sets it. A 0×0 matrix has
	// no diagonals at all; clamp the map size so it never goes negative.
	hist := zeroed(&s.hist, maxRow+1)
	occ := zeroed(&s.occ, max(rows+cols-1, 0))
	ndiag := 0
	for i := range rows {
		lo, hi := rowPtr[i], rowPtr[i+1]
		hist[hi-lo]++
		o := occ[rows-1-i:]
		for _, c := range colIdx[lo:hi] {
			ndiag += int(o[c] ^ 1)
			o[c] = 1
		}
	}
	f[Diagonals] = float64(ndiag)
	f[DiaSize] = slab(ndiag, rows)
	if f[DiaSize] > 0 {
		f[DiaFrac] = float64(nnz) / f[DiaSize]
	}

	// HYB structure: slab width per CUSP's heuristic. The ELL part holds
	// min(n, hybW) entries of each n-entry row, counted per row length:
	// an integer sum is the same in any order.
	hybW := sparse.HybWidthFromHistogram(hist, rows)
	ellPart := 0
	for n, count := range hist {
		ellPart += count * min(n, hybW)
	}
	f[HybEllSize] = slab(rows, hybW)
	f[HybCoo] = float64(nnz - ellPart)
	if f[HybEllSize] > 0 {
		f[HybEllFrac] = float64(ellPart) / f[HybEllSize]
	}

	return f
}

// ExtractCheap computes the cheap-feature subset for a matrix.
func ExtractCheap(m *sparse.CSR) CheapVector {
	var s Scratch
	return s.ExtractCheap(m)
}

// ExtractCheap computes the cheap-feature subset: two O(rows) passes
// over the row-pointer array, no histogram, no column-index walk, no
// scratch allocations. The values are bit-identical to the matching
// entries of a full Extract, including the degenerate-matrix clamps, so
// a cascade stage trained on gathered full vectors sees exactly the
// distribution this produces at serve time.
func (s *Scratch) ExtractCheap(m *sparse.CSR) CheapVector {
	start := obs.Now()
	defer func() {
		if !start.IsZero() {
			cheapCalls.Inc()
			cheapSeconds.Observe(time.Since(start).Seconds())
		}
	}()
	var f CheapVector
	rows, cols := m.Dims()
	nnz := m.NNZ()
	f[0] = float64(rows)
	f[1] = float64(cols)
	f[2] = float64(nnz)
	if rows > 0 && cols > 0 {
		f[3] = float64(nnz) / (float64(rows) * float64(cols))
	}
	minRow, maxRow := 0, 0
	if rows > 0 {
		minRow = math.MaxInt64
	}
	for i := 0; i < rows; i++ {
		n := m.RowNNZ(i)
		if n < minRow {
			minRow = n
		}
		if n > maxRow {
			maxRow = n
		}
	}
	var mu float64
	if rows > 0 {
		mu = float64(nnz) / float64(rows)
	}
	f[4] = mu
	f[5] = float64(minRow)
	f[6] = float64(maxRow)
	var sq float64
	for i := 0; i < rows; i++ {
		d := float64(m.RowNNZ(i)) - mu
		sq += d * d
	}
	if rows > 0 {
		f[7] = math.Sqrt(sq / float64(rows))
	}
	return f
}

// ExtractAll computes feature vectors for a slice of matrices, fanning
// the matrices out over contiguous per-worker chunks. Each worker reuses
// one Scratch across its chunk, so a corpus-sized extraction performs a
// handful of buffer allocations instead of two per matrix. The output
// is positional and extraction is pure, so the result is identical to a
// sequential loop.
func ExtractAll(ms []*sparse.CSR) []Vector {
	out := make([]Vector, len(ms))
	obs.ParallelChunks(len(ms), obs.Workers(len(ms)), func(w, lo, hi int) {
		var s Scratch
		for i := lo; i < hi; i++ {
			out[i] = s.Extract(ms[i])
		}
	})
	return out
}

// Slice returns the vector as a fresh []float64, the representation used
// by the preprocessing and learning packages.
func (v Vector) Slice() []float64 {
	s := make([]float64, Count)
	copy(s, v[:])
	return s
}

// Matrix converts feature vectors to the row-major sample matrix consumed
// by preprocessing pipelines.
func Matrix(vs []Vector) [][]float64 {
	out := make([][]float64, len(vs))
	for i, v := range vs {
		out[i] = v.Slice()
	}
	return out
}

// String renders a feature vector with names, for the explainability
// tooling.
func (v Vector) String() string {
	s := ""
	for i, n := range Names {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%.4g", n, v[i])
	}
	return s
}
