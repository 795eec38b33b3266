package sparse

import (
	"cmp"
	"fmt"
	"slices"
)

// Triplet accumulates (row, col, value) entries in arbitrary order and
// produces a canonical CSR matrix. Duplicate coordinates are summed, and
// explicit zeros are dropped, matching the semantics of MatrixMarket
// assembly. The zero value is not usable; call NewTriplet.
type Triplet struct {
	rows, cols int
	r, c       []int32
	v          []float64
}

// NewTriplet returns an empty accumulator for a rows x cols matrix.
// It panics if either dimension is not positive, since a matrix with a
// zero dimension cannot participate in SpMV.
func NewTriplet(rows, cols int) *Triplet {
	t := &Triplet{}
	t.Reset(rows, cols)
	return t
}

// Reset empties the accumulator and gives it new dimensions, keeping
// its buffers, so one Triplet can assemble a sequence of matrices. It
// panics on a non-positive dimension, as NewTriplet does.
func (t *Triplet) Reset(rows, cols int) {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("sparse: Triplet of %dx%d: dimensions must be positive", rows, cols))
	}
	t.rows, t.cols = rows, cols
	t.r, t.c, t.v = t.r[:0], t.c[:0], t.v[:0]
}

// Dims returns the logical dimensions of the matrix under construction.
func (t *Triplet) Dims() (rows, cols int) { return t.rows, t.cols }

// Len returns the number of accumulated entries, counting duplicates.
func (t *Triplet) Len() int { return len(t.v) }

// Add appends one entry. Entries may repeat; they are summed in ToCSR.
func (t *Triplet) Add(row, col int, v float64) error {
	if row < 0 || row >= t.rows || col < 0 || col >= t.cols {
		return t.rangeError(row, col)
	}
	t.r = append(t.r, int32(row))
	t.c = append(t.c, int32(col))
	t.v = append(t.v, v)
	return nil
}

// rangeError is Add's failure path, kept out of line so the formatting's
// argument boxing stays off the in-range path every entry takes.
//
//go:noinline
func (t *Triplet) rangeError(row, col int) error {
	return fmt.Errorf("%w: (%d, %d) outside %dx%d", ErrIndexRange, row, col, t.rows, t.cols)
}

// Reserve pre-allocates capacity for n entries.
func (t *Triplet) Reserve(n int) {
	if cap(t.r) < n {
		r := make([]int32, len(t.r), n)
		copy(r, t.r)
		t.r = r
		c := make([]int32, len(t.c), n)
		copy(c, t.c)
		t.c = c
		v := make([]float64, len(t.v), n)
		copy(v, t.v)
		t.v = v
	}
}

// ToCSR sorts the accumulated entries, sums duplicates, drops explicit
// zeros and returns the canonical CSR matrix. The Triplet remains valid
// and may keep accumulating entries afterwards.
//
// Assembly is a counting sort by row (O(nnz + rows)) followed by a
// per-row column sort, rather than a global comparison sort, so building
// large collections stays cheap.
func (t *Triplet) ToCSR() *CSR {
	return t.ToCSRScratch(new(ParseScratch))
}

// ToCSRScratch is ToCSR with the assembly's staging buffers taken from
// s, for callers that assemble many matrices in a row. The result never
// aliases s.
func (t *Triplet) ToCSRScratch(s *ParseScratch) *CSR {
	return assembleCSR(t.rows, t.cols, t.r, t.c, t.v, s)
}

// colVal is one (column, value) entry of a row being sorted.
type colVal struct {
	c int32
	v float64
}

// sortRow sorts one row's columns (and values in lockstep): insertion
// sort for the short rows that dominate sparse matrices, pdqsort over
// (column, value) pairs staged in s above a threshold. The sort is not
// stable and duplicate columns are summed in the order it leaves them,
// so the algorithm is part of the output. slices.SortFunc runs the same
// generated pdqsort as sort.Sort, so ties end in the order the golden
// corpus digests and TestSortRowMatchesSortSort pin.
func sortRow(c []int32, v []float64, s *ParseScratch) {
	if len(c) <= 24 {
		for i := 1; i < len(c); i++ {
			cc, vv := c[i], v[i]
			j := i - 1
			for j >= 0 && c[j] > cc {
				c[j+1], v[j+1] = c[j], v[j]
				j--
			}
			c[j+1], v[j+1] = cc, vv
		}
		return
	}
	if cap(s.pairs) < len(c) {
		s.pairs = make([]colVal, len(c))
	}
	p := s.pairs[:len(c)]
	for i := range p {
		p[i] = colVal{c[i], v[i]}
	}
	slices.SortFunc(p, func(a, b colVal) int { return cmp.Compare(a.c, b.c) })
	for i, e := range p {
		c[i], v[i] = e.c, e.v
	}
}
