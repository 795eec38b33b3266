package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomCSR builds a random rows x cols matrix with the given fill
// density, deterministic in seed.
func randomCSR(tb testing.TB, rng *rand.Rand, rows, cols int, density float64) *CSR {
	tb.Helper()
	t := NewTriplet(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				if err := t.Add(i, j, rng.NormFloat64()); err != nil {
					tb.Fatalf("Add: %v", err)
				}
			}
		}
	}
	m := t.ToCSR()
	if m.NNZ() == 0 {
		// Guarantee at least one entry so SpMV tests are non-trivial.
		if err := t.Add(rng.Intn(rows), rng.Intn(cols), 1); err != nil {
			tb.Fatalf("Add: %v", err)
		}
		m = t.ToCSR()
	}
	return m
}

// dense expands a matrix for reference computations.
func dense(tb testing.TB, m Matrix) [][]float64 {
	tb.Helper()
	a, err := ToCSR(m)
	if err != nil {
		tb.Fatalf("ToCSR: %v", err)
	}
	rows, cols := a.Dims()
	d := make([][]float64, rows)
	for i := range d {
		d[i] = make([]float64, cols)
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			d[i][a.colIdx[k]] = a.vals[k]
		}
	}
	return d
}

func refSpMV(d [][]float64, x []float64) []float64 {
	y := make([]float64, len(d))
	for i, row := range d {
		for j, v := range row {
			y[i] += v * x[j]
		}
	}
	return y
}

func almostEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol*(1+math.Abs(b[i])) {
			return false
		}
	}
	return true
}

func TestFormatString(t *testing.T) {
	cases := map[Format]string{
		FormatCOO: "COO", FormatCSR: "CSR", FormatELL: "ELL",
		FormatHYB: "HYB", FormatSELL: "SELL", Format(99): "Format(99)",
	}
	for f, want := range cases {
		if got := f.String(); got != want {
			t.Errorf("Format(%d).String() = %q, want %q", int(f), got, want)
		}
	}
}

func TestKernelFormats(t *testing.T) {
	fs := KernelFormats()
	if len(fs) != NumKernelFormats {
		t.Fatalf("KernelFormats returned %d formats, want %d", len(fs), NumKernelFormats)
	}
	seen := map[Format]bool{}
	for _, f := range fs {
		if f == FormatSELL {
			t.Error("SELL must not be a kernel format")
		}
		if seen[f] {
			t.Errorf("duplicate kernel format %v", f)
		}
		seen[f] = true
	}
}

func TestTripletDuplicatesAndZeros(t *testing.T) {
	tr := NewTriplet(3, 3)
	mustAdd := func(i, j int, v float64) {
		t.Helper()
		if err := tr.Add(i, j, v); err != nil {
			t.Fatalf("Add(%d,%d): %v", i, j, err)
		}
	}
	mustAdd(0, 0, 1)
	mustAdd(0, 0, 2)  // duplicate: sums to 3
	mustAdd(1, 1, 5)  //
	mustAdd(1, 1, -5) // cancels to zero: dropped
	mustAdd(2, 0, 0)  // explicit zero: dropped
	mustAdd(2, 2, 4)  //
	m := tr.ToCSR()
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
	if got := m.At(0, 0); got != 3 {
		t.Errorf("At(0,0) = %v, want 3", got)
	}
	if got := m.At(1, 1); got != 0 {
		t.Errorf("At(1,1) = %v, want 0 (cancelled)", got)
	}
	if got := m.At(2, 2); got != 4 {
		t.Errorf("At(2,2) = %v, want 4", got)
	}
}

func TestTripletOutOfRange(t *testing.T) {
	tr := NewTriplet(2, 2)
	for _, c := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		if err := tr.Add(c[0], c[1], 1); err == nil {
			t.Errorf("Add(%d,%d) succeeded, want error", c[0], c[1])
		}
	}
}

func TestNewTripletPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTriplet(0, 5) did not panic")
		}
	}()
	NewTriplet(0, 5)
}

func TestCSRValidate(t *testing.T) {
	cases := []struct {
		name   string
		rows   int
		cols   int
		rowPtr []int32
		colIdx []int32
		vals   []float64
	}{
		{"short rowPtr", 2, 2, []int32{0, 1}, []int32{0}, []float64{1}},
		{"rowPtr[0] nonzero", 1, 2, []int32{1, 1}, []int32{0}, []float64{1}},
		{"length mismatch", 1, 2, []int32{0, 1}, []int32{0, 1}, []float64{1}},
		{"rowPtr tail mismatch", 1, 2, []int32{0, 2}, []int32{0}, []float64{1}},
		{"non-monotone", 2, 2, []int32{0, 1, 0}, []int32{0}, []float64{1}},
		{"column out of range", 1, 2, []int32{0, 1}, []int32{5}, []float64{1}},
		{"unsorted columns", 1, 3, []int32{0, 2}, []int32{2, 0}, []float64{1, 2}},
		{"zero dims", 0, 0, []int32{0}, nil, nil},
	}
	for _, c := range cases {
		if _, err := NewCSR(c.rows, c.cols, c.rowPtr, c.colIdx, c.vals); err == nil {
			t.Errorf("%s: NewCSR succeeded, want error", c.name)
		}
	}
	if _, err := NewCSR(2, 2, []int32{0, 1, 2}, []int32{0, 1}, []float64{1, 2}); err != nil {
		t.Errorf("valid CSR rejected: %v", err)
	}
}

func TestCSRAt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomCSR(t, rng, 17, 23, 0.2)
	d := dense(t, m)
	for i := 0; i < 17; i++ {
		for j := 0; j < 23; j++ {
			if got := m.At(i, j); got != d[i][j] {
				t.Fatalf("At(%d,%d) = %v, want %v", i, j, got, d[i][j])
			}
		}
	}
	if m.At(-1, 0) != 0 || m.At(0, -1) != 0 || m.At(17, 0) != 0 || m.At(0, 23) != 0 {
		t.Error("out-of-range At should return 0")
	}
}

func TestSpMVAllFormatsAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shapes := []struct{ r, c int }{{1, 1}, {5, 7}, {64, 64}, {100, 30}, {30, 100}}
	for _, sh := range shapes {
		a := randomCSR(t, rng, sh.r, sh.c, 0.15)
		d := dense(t, a)
		x := make([]float64, sh.c)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := refSpMV(d, x)
		for _, f := range []Format{FormatCOO, FormatCSR, FormatELL, FormatHYB, FormatSELL} {
			m, err := Convert(a, f)
			if err != nil {
				t.Fatalf("%dx%d Convert(%v): %v", sh.r, sh.c, f, err)
			}
			y := make([]float64, sh.r)
			if err := m.SpMV(y, x); err != nil {
				t.Fatalf("%v SpMV: %v", f, err)
			}
			if !almostEqual(y, want, 1e-12) {
				t.Errorf("%dx%d %v SpMV disagrees with dense reference", sh.r, sh.c, f)
			}
		}
	}
}

func TestSpMVDimensionErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomCSR(t, rng, 8, 9, 0.3)
	for _, f := range []Format{FormatCOO, FormatCSR, FormatELL, FormatHYB, FormatSELL} {
		m, err := Convert(a, f)
		if err != nil {
			t.Fatalf("Convert(%v): %v", f, err)
		}
		if err := m.SpMV(make([]float64, 8), make([]float64, 8)); err == nil {
			t.Errorf("%v SpMV accepted short x", f)
		}
		if err := m.SpMV(make([]float64, 9), make([]float64, 9)); err == nil {
			t.Errorf("%v SpMV accepted short y", f)
		}
	}
}

func TestSpMVParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Skewed matrix: one huge row to stress nnz-balanced partitioning.
	tr := NewTriplet(500, 400)
	for j := 0; j < 400; j++ {
		_ = tr.Add(0, j, rng.NormFloat64())
	}
	for n := 0; n < 30000; n++ {
		_ = tr.Add(rng.Intn(500), rng.Intn(400), rng.NormFloat64())
	}
	m := tr.ToCSR()
	x := make([]float64, 400)
	for i := range x {
		x[i] = rng.Float64()
	}
	ys := make([]float64, 500)
	yp := make([]float64, 500)
	if err := m.SpMV(ys, x); err != nil {
		t.Fatal(err)
	}
	if err := m.SpMVParallel(yp, x); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(yp, ys, 1e-12) {
		t.Error("parallel SpMV disagrees with serial")
	}
}

func TestConversionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		a := randomCSR(t, rng, rows, cols, 0.25)
		for _, f := range []Format{FormatCOO, FormatELL, FormatHYB, FormatSELL} {
			m, err := Convert(a, f)
			if err != nil {
				t.Fatalf("Convert(%v): %v", f, err)
			}
			if !Equal(a, m) {
				t.Errorf("trial %d: %v round-trip lost entries", trial, f)
			}
			if m.NNZ() != a.NNZ() {
				t.Errorf("trial %d: %v NNZ = %d, want %d", trial, f, m.NNZ(), a.NNZ())
			}
		}
	}
}

func TestELLTooLarge(t *testing.T) {
	// One dense row in an otherwise nearly empty tall matrix: width =
	// cols, slab = rows*cols >> limit*nnz.
	tr := NewTriplet(2000, 200)
	for j := 0; j < 200; j++ {
		_ = tr.Add(0, j, 1)
	}
	_ = tr.Add(1999, 0, 1)
	a := tr.ToCSR()
	if _, err := NewELLFromCSR(a, DefaultELLLimit); err == nil {
		t.Fatal("expected ErrTooLarge for skewed ELL conversion")
	}
	// HYB must succeed on the same matrix: the dense row overflows to COO.
	h, err := NewHYBFromCSR(a)
	if err != nil {
		t.Fatalf("HYB conversion failed: %v", err)
	}
	if h.COONNZ() == 0 {
		t.Error("HYB COO tail empty for a matrix with one dense row")
	}
}

func TestHybWidthFromHistogram(t *testing.T) {
	// 10 rows: 9 rows with 2 nnz, 1 row with 100 nnz. The width should be
	// 2: 10 rows have >=2 entries (>= 10/3), only 1 has >=3.
	hist := make([]int, 101)
	hist[2] = 9
	hist[100] = 1
	if w := HybWidthFromHistogram(hist, 10); w != 2 {
		t.Errorf("width = %d, want 2", w)
	}
	// Uniform rows: width equals the row length.
	hist2 := make([]int, 6)
	hist2[5] = 8
	if w := HybWidthFromHistogram(hist2, 8); w != 5 {
		t.Errorf("uniform width = %d, want 5", w)
	}
	// Empty matrix.
	if w := HybWidthFromHistogram([]int{4}, 4); w != 0 {
		t.Errorf("empty width = %d, want 0", w)
	}
}

func TestHYBPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomCSR(t, rng, 60, 60, 0.1)
	h, err := NewHYBFromCSR(a)
	if err != nil {
		t.Fatal(err)
	}
	if h.ELLNNZ()+h.COONNZ() != a.NNZ() {
		t.Errorf("ELL %d + COO %d != total %d", h.ELLNNZ(), h.COONNZ(), a.NNZ())
	}
}

func TestPermute(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomCSR(t, rng, 12, 9, 0.3)
	rp := rng.Perm(12)
	cp := rng.Perm(9)
	p, err := a.Permute(rp, cp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		for j := 0; j < 9; j++ {
			if a.At(i, j) != p.At(rp[i], cp[j]) {
				t.Fatalf("permute mismatch at (%d,%d)", i, j)
			}
		}
	}
	if p.NNZ() != a.NNZ() {
		t.Errorf("permutation changed NNZ: %d -> %d", a.NNZ(), p.NNZ())
	}
	// nil permutations are identity on that axis.
	id, err := a.Permute(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(a, id) {
		t.Error("nil permutation is not identity")
	}
	// Invalid permutations are rejected.
	if _, err := a.Permute([]int{0}, nil); err == nil {
		t.Error("short row permutation accepted")
	}
	if _, err := a.Permute(nil, []int{0, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("non-bijective column permutation accepted")
	}
}

func TestPermutePreservesRowNNZMultiset(t *testing.T) {
	// Property: row permutation permutes the per-row nonzero counts, a
	// fact the paper's augmentation relies on (features that depend only
	// on the row histogram are invariant).
	rng := rand.New(rand.NewSource(10))
	a := randomCSR(t, rng, 20, 20, 0.15)
	rp := rng.Perm(20)
	p, err := a.Permute(rp, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if a.RowNNZ(i) != p.RowNNZ(rp[i]) {
			t.Fatalf("row %d nnz changed under permutation", i)
		}
	}
}

// TestQuickTripletCSRConsistency property-tests that matrices assembled
// from arbitrary entry lists agree entry-wise with a map-based reference.
func TestQuickTripletCSRConsistency(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		tr := NewTriplet(rows, cols)
		ref := map[[2]int]float64{}
		for e := 0; e < int(n); e++ {
			i, j := rng.Intn(rows), rng.Intn(cols)
			v := float64(rng.Intn(7) - 3)
			if tr.Add(i, j, v) != nil {
				return false
			}
			ref[[2]int{i, j}] += v
		}
		m := tr.ToCSR()
		if m.Validate() != nil {
			return false
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if m.At(i, j) != ref[[2]int{i, j}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickSpMVLinearity property-tests A(ax + bz) = a*Ax + b*Az for all
// formats. ELL is built with a slab limit no generated matrix can
// exceed, so every seed checks the ELL kernel; Convert's ErrTooLarge
// refusal has its own tests.
func TestQuickSpMVLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		a := randomCSR(t, rng, rows, cols, 0.2)
		x := make([]float64, cols)
		z := make([]float64, cols)
		for i := range x {
			x[i], z[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		alpha, beta := rng.Float64(), rng.Float64()
		comb := make([]float64, cols)
		for i := range comb {
			comb[i] = alpha*x[i] + beta*z[i]
		}
		for _, fm := range []Format{FormatCOO, FormatCSR, FormatELL, FormatHYB} {
			var m Matrix
			var err error
			if fm == FormatELL {
				m, err = NewELLFromCSR(a, rows*cols)
			} else {
				m, err = Convert(a, fm)
			}
			if err != nil {
				return false
			}
			yx := make([]float64, rows)
			yz := make([]float64, rows)
			yc := make([]float64, rows)
			if m.SpMV(yx, x) != nil || m.SpMV(yz, z) != nil || m.SpMV(yc, comb) != nil {
				return false
			}
			for i := range yc {
				want := alpha*yx[i] + beta*yz[i]
				if math.Abs(yc[i]-want) > 1e-9*(1+math.Abs(want)) {
					return false
				}
			}
		}
		return true
	}
	// This seed builds a 24x1 matrix with one nonzero, whose ELL slab
	// Convert refuses with ErrTooLarge.
	if !f(3828267409903668515) {
		t.Error("linearity fails for seed 3828267409903668515")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCOOValidate(t *testing.T) {
	if _, err := NewCOO(2, 2, []int32{0, 0}, []int32{1, 0}, []float64{1, 2}); err == nil {
		t.Error("unsorted COO accepted")
	}
	if _, err := NewCOO(2, 2, []int32{0, 0}, []int32{0, 0}, []float64{1, 2}); err == nil {
		t.Error("duplicate COO accepted")
	}
	if _, err := NewCOO(2, 2, []int32{0}, []int32{0, 1}, []float64{1, 2}); err == nil {
		t.Error("length-mismatched COO accepted")
	}
	if _, err := NewCOO(2, 2, []int32{0, 5}, []int32{0, 0}, []float64{1, 2}); err == nil {
		t.Error("out-of-range COO accepted")
	}
	if _, err := NewCOO(2, 2, []int32{0, 1}, []int32{1, 0}, []float64{1, 2}); err != nil {
		t.Errorf("valid COO rejected: %v", err)
	}
}

func TestPartitionByNNZCoversAllRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomCSR(t, rng, 97, 13, 0.2)
	for _, n := range []int{1, 2, 3, 8, 97} {
		b := a.partitionByNNZ(n)
		if b[0] != 0 || b[n] != 97 {
			t.Fatalf("n=%d: bounds do not span rows: %v", n, b)
		}
		for i := 0; i < n; i++ {
			if b[i] > b[i+1] {
				t.Fatalf("n=%d: bounds not monotone: %v", n, b)
			}
		}
	}
}

func TestSELLAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, sh := range []struct{ r, c, slice int }{
		{5, 7, 4}, {64, 64, 32}, {100, 30, 32}, {33, 33, 32}, {1, 1, 32},
	} {
		a := randomCSR(t, rng, sh.r, sh.c, 0.2)
		m, err := NewSELLFromCSR(a, sh.slice)
		if err != nil {
			t.Fatalf("%dx%d: %v", sh.r, sh.c, err)
		}
		d := dense(t, a)
		x := make([]float64, sh.c)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := refSpMV(d, x)
		y := make([]float64, sh.r)
		if err := m.SpMV(y, x); err != nil {
			t.Fatal(err)
		}
		if !almostEqual(y, want, 1e-12) {
			t.Errorf("%dx%d slice %d: SELL SpMV wrong", sh.r, sh.c, sh.slice)
		}
		if !Equal(a, m) {
			t.Errorf("%dx%d: SELL round trip lost entries", sh.r, sh.c)
		}
	}
}

func TestSELLPaddingBoundedBySlices(t *testing.T) {
	// One dense row: full ELL pads every row to the max, SELL pads only
	// the slice containing the dense row.
	tr := NewTriplet(256, 256)
	for j := 0; j < 256; j++ {
		_ = tr.Add(0, j, 1)
	}
	for i := 1; i < 256; i++ {
		_ = tr.Add(i, i, 1)
	}
	a := tr.ToCSR()
	m, err := NewSELLFromCSR(a, 32)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSlices() != 8 {
		t.Fatalf("NumSlices = %d", m.NumSlices())
	}
	// Full ELL slab would be 256*256 = 65536; SELL: slice 0 is 32*256,
	// slices 1-7 are 32*1.
	want := 32*256 + 7*32
	if m.SlabSize() != want {
		t.Errorf("SlabSize = %d, want %d", m.SlabSize(), want)
	}
	if m.SliceHeight() != 32 {
		t.Errorf("SliceHeight = %d", m.SliceHeight())
	}
}

func TestSELLViaConvert(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := randomCSR(t, rng, 40, 40, 0.2)
	m, err := Convert(a, FormatSELL)
	if err != nil {
		t.Fatal(err)
	}
	if m.Format() != FormatSELL {
		t.Errorf("Format = %v", m.Format())
	}
	if !Equal(a, m) {
		t.Error("Convert(SELL) lost entries")
	}
	if m.NNZ() != a.NNZ() {
		t.Errorf("NNZ %d != %d", m.NNZ(), a.NNZ())
	}
}
