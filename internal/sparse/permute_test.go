package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// permuteViaTriplet is the reference Permute: every entry goes through
// Triplet assembly at its mapped coordinates.
func permuteViaTriplet(tb testing.TB, m *CSR, rowPerm, colPerm []int) *CSR {
	tb.Helper()
	t := NewTriplet(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		ni := i
		if rowPerm != nil {
			ni = rowPerm[i]
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			nj := int(m.colIdx[k])
			if colPerm != nil {
				nj = colPerm[nj]
			}
			if err := t.Add(ni, nj, m.vals[k]); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return t.ToCSR()
}

// rawCSR builds a rows x cols matrix straight through NewCSR, so it can
// hold what Triplet assembly never produces: explicit zeros and -0. Some
// rows are empty and some are long enough for sortRow's pdqsort path.
func rawCSR(tb testing.TB, rng *rand.Rand, rows, cols int) *CSR {
	tb.Helper()
	negZero := math.Copysign(0, -1)
	rowPtr := make([]int32, rows+1)
	var colIdx []int32
	var vals []float64
	for i := 0; i < rows; i++ {
		density := rng.Float64() * 0.3
		switch rng.Intn(6) {
		case 0:
			density = 0
		case 1:
			density = 0.9
		}
		for j := 0; j < cols; j++ {
			if rng.Float64() >= density {
				continue
			}
			v := rng.NormFloat64()
			switch rng.Intn(8) {
			case 0:
				v = 0
			case 1:
				v = negZero
			}
			colIdx = append(colIdx, int32(j))
			vals = append(vals, v)
		}
		rowPtr[i+1] = int32(len(vals))
	}
	m, err := NewCSR(rows, cols, rowPtr, colIdx, vals)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func sameBits(a, b *CSR) bool {
	if a.rows != b.rows || a.cols != b.cols || len(a.rowPtr) != len(b.rowPtr) ||
		len(a.colIdx) != len(b.colIdx) || len(a.vals) != len(b.vals) {
		return false
	}
	for i := range a.rowPtr {
		if a.rowPtr[i] != b.rowPtr[i] {
			return false
		}
	}
	for k := range a.colIdx {
		if a.colIdx[k] != b.colIdx[k] || math.Float64bits(a.vals[k]) != math.Float64bits(b.vals[k]) {
			return false
		}
	}
	return true
}

// TestPermuteMatchesTripletReference requires the row-by-row Permute to
// be bit-identical to assembling the mapped entries through a Triplet,
// on rectangular matrices with explicit zeros, -0, empty rows and long
// rows, for every combination of nil and non-nil permutations.
func TestPermuteMatchesTripletReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		rows, cols := 1+rng.Intn(70), 1+rng.Intn(70)
		m := rawCSR(t, rng, rows, cols)
		for _, perms := range [][2][]int{
			{rng.Perm(rows), rng.Perm(cols)},
			{rng.Perm(rows), nil},
			{nil, rng.Perm(cols)},
			{nil, nil},
		} {
			got, err := m.Permute(perms[0], perms[1])
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("trial %d (%dx%d): invalid result: %v", trial, rows, cols, err)
			}
			if want := permuteViaTriplet(t, m, perms[0], perms[1]); !sameBits(got, want) {
				t.Fatalf("trial %d (%dx%d, row perm %v, col perm %v): differs from the Triplet reference",
					trial, rows, cols, perms[0] != nil, perms[1] != nil)
			}
		}
	}
}

func TestPermuteRejectsInvalidPermutations(t *testing.T) {
	m := rawCSR(t, rand.New(rand.NewSource(32)), 4, 3)
	for _, p := range [][]int{{0, 1, 2}, {0, 1, 2, 3, 4}, {0, 1, 2, 2}, {0, 1, 2, 4}, {-1, 0, 1, 2}} {
		if _, err := m.Permute(p, nil); err == nil {
			t.Errorf("row permutation %v accepted", p)
		}
	}
	for _, p := range [][]int{{0, 1}, {0, 1, 2, 3}, {1, 1, 0}, {0, 1, 3}, {0, -1, 1}} {
		if _, err := m.Permute(nil, p); err == nil {
			t.Errorf("column permutation %v accepted", p)
		}
	}
}

// rowSorter is the sort.Interface sortRow's long-row path used before it
// moved to slices.SortFunc.
type rowSorter struct {
	c []int32
	v []float64
}

func (s *rowSorter) Len() int           { return len(s.c) }
func (s *rowSorter) Less(i, j int) bool { return s.c[i] < s.c[j] }
func (s *rowSorter) Swap(i, j int) {
	s.c[i], s.c[j] = s.c[j], s.c[i]
	s.v[i], s.v[j] = s.v[j], s.v[i]
}

// TestSortRowMatchesSortSort pins the order sortRow leaves duplicate
// columns in, which decides how their sums round: on rows too long for
// its insertion sort, full of ties, it must move values exactly as
// sort.Sort did.
func TestSortRowMatchesSortSort(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var s ParseScratch
	for trial := 0; trial < 200; trial++ {
		n := 25 + rng.Intn(400)
		span := 1 + rng.Intn(n)
		c := make([]int32, n)
		v := make([]float64, n)
		for i := range c {
			c[i], v[i] = int32(rng.Intn(span)), float64(i)
		}
		ref := &rowSorter{c: append([]int32(nil), c...), v: append([]float64(nil), v...)}
		sort.Sort(ref)
		sortRow(c, v, &s)
		for i := range c {
			if c[i] != ref.c[i] || v[i] != ref.v[i] {
				t.Fatalf("trial %d (n %d, %d distinct columns): entry %d is (%d, %v), sort.Sort gives (%d, %v)",
					trial, n, span, i, c[i], v[i], ref.c[i], ref.v[i])
			}
		}
	}
}
