package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDenseBasics(t *testing.T) {
	d := NewDense(2, 3)
	d.Set(0, 1, 5)
	d.Set(1, 2, -2)
	if d.At(0, 1) != 5 || d.At(1, 2) != -2 || d.At(0, 0) != 0 {
		t.Error("Set/At wrong")
	}
	r := d.Row(1)
	r[0] = 9
	if d.At(1, 0) != 9 {
		t.Error("Row is not a view")
	}
	c := d.Clone()
	c.Set(0, 0, 77)
	if d.At(0, 0) == 77 {
		t.Error("Clone shares storage")
	}
}

func TestFromRows(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}}
	d := FromRows(rows)
	if d.Rows != 2 || d.Cols != 3 {
		t.Fatalf("FromRows dims %dx%d, want 2x3", d.Rows, d.Cols)
	}
	for i, row := range rows {
		for j, v := range row {
			if d.At(i, j) != v {
				t.Fatalf("FromRows At(%d,%d) = %v, want %v", i, j, d.At(i, j), v)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1}, {1, 2}})
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 0, 2}, {-1, 3, 1}})
	y := MulVec(a, []float64{3, 2, 1})
	if y[0] != 5 || y[1] != 4 {
		t.Errorf("MulVec = %v, want [5 4]", y)
	}
}

func TestVectorOps(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Error("Dot wrong")
	}
	z := append([]float64(nil), y...)
	Axpy(2, x, z)
	if z[0] != 6 || z[1] != 9 || z[2] != 12 {
		t.Errorf("Axpy = %v", z)
	}
	Scale(0.5, z)
	if z[0] != 3 {
		t.Errorf("Scale = %v", z)
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-15 {
		t.Error("Norm2 wrong")
	}
	if SqDist(x, y) != 27 {
		t.Error("SqDist wrong")
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Two perfectly correlated columns.
	d := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	cov, means := Covariance(d)
	if means[0] != 2 || means[1] != 4 {
		t.Fatalf("means = %v", means)
	}
	// var(col0) = 2/3, cov = 4/3, var(col1) = 8/3.
	if math.Abs(cov.At(0, 0)-2.0/3) > 1e-12 ||
		math.Abs(cov.At(0, 1)-4.0/3) > 1e-12 ||
		math.Abs(cov.At(1, 1)-8.0/3) > 1e-12 {
		t.Errorf("cov = %v", cov.Data)
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}})
	vals, vecs, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-10 {
			t.Errorf("eigenvalue %d = %v, want %v", i, vals[i], want[i])
		}
	}
	// First eigenvector must be +-e0.
	if math.Abs(math.Abs(vecs.At(0, 0))-1) > 1e-10 {
		t.Error("first eigenvector not aligned with axis 0")
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(10)
		// Random symmetric matrix.
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs, err := SymEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		// Check A v_k = lambda_k v_k, orthonormality, and ordering.
		for k := 0; k < n; k++ {
			vk := make([]float64, n)
			for r := 0; r < n; r++ {
				vk[r] = vecs.At(r, k)
			}
			av := MulVec(a, vk)
			for r := 0; r < n; r++ {
				if math.Abs(av[r]-vals[k]*vk[r]) > 1e-8 {
					t.Fatalf("trial %d: A v != lambda v at eigenpair %d", trial, k)
				}
			}
			if math.Abs(Norm2(vk)-1) > 1e-8 {
				t.Fatalf("trial %d: eigenvector %d not unit", trial, k)
			}
			if k > 0 && vals[k] > vals[k-1]+1e-10 {
				t.Fatalf("trial %d: eigenvalues not descending", trial)
			}
		}
	}
}

func TestSymEigenRejectsAsymmetric(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 1}})
	if _, _, err := SymEigen(a); err == nil {
		t.Error("asymmetric input accepted")
	}
	b := FromRows([][]float64{{1, 2, 3}})
	if _, _, err := SymEigen(b); err == nil {
		t.Error("non-square input accepted")
	}
}

// TestQuickCovariancePSD property-tests that covariance matrices are
// positive semi-definite (all Jacobi eigenvalues >= -tol).
func TestQuickCovariancePSD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 3+rng.Intn(20), 2+rng.Intn(6)
		d := NewDense(n, m)
		for i := range d.Data {
			d.Data[i] = rng.NormFloat64() * 10
		}
		cov, _ := Covariance(d)
		vals, _, err := SymEigen(cov)
		if err != nil {
			return false
		}
		for _, v := range vals {
			if v < -1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPanicsOnMismatch(t *testing.T) {
	check := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	check("MulVec", func() { MulVec(NewDense(2, 3), make([]float64, 2)) })
	check("Dot", func() { Dot([]float64{1}, []float64{1, 2}) })
	check("Axpy", func() { Axpy(1, []float64{1}, []float64{1, 2}) })
	check("SqDist", func() { SqDist([]float64{1}, []float64{1, 2}) })
}
