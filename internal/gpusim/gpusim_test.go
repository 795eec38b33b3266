package gpusim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func mustCSR(tb testing.TB, rows, cols int, fill func(t *sparse.Triplet)) *sparse.CSR {
	tb.Helper()
	t := sparse.NewTriplet(rows, cols)
	fill(t)
	return t.ToCSR()
}

func add(tb testing.TB, t *sparse.Triplet, i, j int) {
	tb.Helper()
	if err := t.Add(i, j, 1); err != nil {
		tb.Fatal(err)
	}
}

func TestArchByName(t *testing.T) {
	for _, a := range Archs() {
		got, ok := ArchByName(a.Name)
		if !ok || got.Model != a.Model {
			t.Errorf("ArchByName(%q) = %+v, %v", a.Name, got, ok)
		}
	}
	if _, ok := ArchByName("Ampere"); ok {
		t.Error("ArchByName accepted unknown architecture")
	}
}

func TestTable2Specs(t *testing.T) {
	// The specification columns must match the paper's Table 2 exactly.
	cases := []struct {
		a      Arch
		sms    int
		l1     int
		l2     int
		mem    float64
		bw     float64
		memTyp string
	}{
		{Pascal, 20, 48, 2048, 8, 320, "GDDR5"},
		{Volta, 80, 128, 6144, 32, 897, "HBM2"},
		{Turing, 72, 64, 6144, 48, 672, "GDDR6"},
	}
	for _, c := range cases {
		if c.a.SMs != c.sms || c.a.L1PerSMKiB != c.l1 || c.a.L2KiB != c.l2 ||
			c.a.MemoryGB != c.mem || c.a.BandwidthGBs != c.bw || c.a.MemoryType != c.memTyp {
			t.Errorf("%s specs do not match Table 2: %+v", c.a.Name, c.a)
		}
	}
}

func TestProfileHandComputed(t *testing.T) {
	// 3 rows: lengths 2, 1, 3 in a 3x4 matrix.
	m := mustCSR(t, 3, 4, func(tr *sparse.Triplet) {
		add(t, tr, 0, 0)
		add(t, tr, 0, 3)
		add(t, tr, 1, 1)
		add(t, tr, 2, 0)
		add(t, tr, 2, 1)
		add(t, tr, 2, 2)
	})
	p := NewProfile(m)
	if p.Rows != 3 || p.Cols != 4 || p.NNZ != 6 {
		t.Fatalf("dims: %+v", p)
	}
	if p.MaxRow != 3 {
		t.Errorf("MaxRow = %d, want 3", p.MaxRow)
	}
	if p.MeanRow != 2 {
		t.Errorf("MeanRow = %v, want 2", p.MeanRow)
	}
	// One warp of 3 rows, longest row 3: serialised work = 3*3 = 9.
	if p.WarpSerialNNZ != 9 {
		t.Errorf("WarpSerialNNZ = %v, want 9", p.WarpSerialNNZ)
	}
	if got := p.Imbalance(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("Imbalance = %v, want 1.5", got)
	}
	if p.EllSlab != 9 {
		t.Errorf("EllSlab = %d, want 9", p.EllSlab)
	}
	// Spans: row0 = 4 (cols 0..3), row1 = 1, row2 = 3; mean span 8/3;
	// scatter = (8/3)/4 = 2/3.
	if math.Abs(p.Scatter-2.0/3) > 1e-12 {
		t.Errorf("Scatter = %v, want 2/3", p.Scatter)
	}
	if p.HybEllNNZ+p.HybCooNNZ != p.NNZ {
		t.Errorf("HYB split loses entries: %d + %d != %d", p.HybEllNNZ, p.HybCooNNZ, p.NNZ)
	}
}

func TestKernelTimePositiveAndFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := mustCSR(t, 200, 200, func(tr *sparse.Triplet) {
		for n := 0; n < 2000; n++ {
			add(t, tr, rng.Intn(200), rng.Intn(200))
		}
	})
	p := NewProfile(m)
	for _, a := range Archs() {
		for _, f := range sparse.KernelFormats() {
			tm, err := a.KernelTime(p, f)
			if err != nil {
				t.Fatalf("%s/%v: %v", a.Name, f, err)
			}
			if tm <= 0 || math.IsNaN(tm) || math.IsInf(tm, 0) {
				t.Errorf("%s/%v: non-positive or non-finite time %v", a.Name, f, tm)
			}
		}
	}
}

func TestKernelTimeScalesWithWork(t *testing.T) {
	// A 10x larger matrix of the same shape must take longer in every
	// format on every architecture.
	build := func(n int) Profile {
		rng := rand.New(rand.NewSource(2))
		m := mustCSR(t, n, n, func(tr *sparse.Triplet) {
			for k := 0; k < 20*n; k++ {
				add(t, tr, rng.Intn(n), rng.Intn(n))
			}
		})
		return NewProfile(m)
	}
	small, large := build(500), build(5000)
	for _, a := range Archs() {
		for _, f := range sparse.KernelFormats() {
			ts, err1 := a.KernelTime(small, f)
			tl, err2 := a.KernelTime(large, f)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s/%v: %v %v", a.Name, f, err1, err2)
			}
			if tl <= ts {
				t.Errorf("%s/%v: 10x matrix not slower (%v <= %v)", a.Name, f, tl, ts)
			}
		}
	}
}

func TestELLInfeasibleWhenSlabExceedsMemory(t *testing.T) {
	// A synthetic profile whose ELL slab exceeds 8 GB but not 48 GB:
	// infeasible on Pascal, feasible on Turing.
	p := Profile{
		Rows: 2_000_000, Cols: 2_000_000, NNZ: 10_000_000,
		MaxRow: 500, MeanRow: 5, WarpSerialNNZ: 20_000_000,
		EllSlab:  1_000_000_000, // 12 GB at 12 bytes/entry
		HybWidth: 5, HybEllNNZ: 9_000_000, HybCooNNZ: 1_000_000,
		HybSlab: 10_000_000, Scatter: 0.5,
	}
	if _, err := Pascal.KernelTime(p, sparse.FormatELL); err == nil {
		t.Error("Pascal accepted a 12 GB ELL slab")
	}
	if _, err := Turing.KernelTime(p, sparse.FormatELL); err != nil {
		t.Errorf("Turing rejected a 12 GB ELL slab: %v", err)
	}
	// CSR stays feasible on Pascal.
	if _, err := Pascal.KernelTime(p, sparse.FormatCSR); err != nil {
		t.Errorf("Pascal rejected CSR: %v", err)
	}
}

func TestMeasureDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := mustCSR(t, 300, 300, func(tr *sparse.Triplet) {
		for n := 0; n < 3000; n++ {
			add(t, tr, rng.Intn(300), rng.Intn(300))
		}
	})
	p := NewProfile(m)
	a := Turing
	m1 := a.Measure("matrix_x", p)
	m2 := a.Measure("matrix_x", p)
	if m1 != m2 {
		t.Error("Measure is not deterministic")
	}
	m3 := a.Measure("matrix_y", p)
	same := true
	for i := range m1.Times {
		if m1.Times[i] != m3.Times[i] {
			same = false
		}
	}
	if same {
		t.Error("noise does not vary with matrix id")
	}
	if _, ok := m1.BestFormat(); !ok {
		t.Error("no best format for a feasible matrix")
	}
}

func TestMeasureTimeout(t *testing.T) {
	// A profile with a gigantic serial chain must fail Volta's timeout
	// but stay feasible on Turing (whose quota is 10 ms).
	p := Profile{
		Rows: 2_000, Cols: 100_000, NNZ: 200_000,
		MaxRow: 80_000, MeanRow: 100, WarpSerialNNZ: 5_000_000,
		EllSlab:  2_000 * 80_000,
		HybWidth: 100, HybEllNNZ: 120_000, HybCooNNZ: 80_000,
		HybSlab: 200_000, Scatter: 1,
	}
	mv := Volta.Measure("spike", p)
	if mv.Feasible() {
		t.Error("Volta accepted a chain-dominated spike matrix")
	}
	mt := Turing.Measure("spike", p)
	if !mt.Feasible() {
		t.Error("Turing rejected the spike matrix")
	}
	// And CSR must be far slower than the best format there: this is the
	// paper's two-orders-of-magnitude slowdown mechanism.
	best := math.Inf(1)
	for _, tm := range mt.Times {
		best = math.Min(best, tm)
	}
	if ratio := mt.Times[1] / best; ratio < 10 {
		t.Errorf("spike CSR slowdown on Turing only %.1fx, want >= 10x", ratio)
	}
}

func TestConversionCostTable8(t *testing.T) {
	want := map[sparse.Format]float64{
		sparse.FormatCOO: 9, sparse.FormatCSR: 0,
		sparse.FormatELL: 102, sparse.FormatHYB: 147,
	}
	for f, w := range want {
		if got := ConversionCost(f); got != w {
			t.Errorf("ConversionCost(%v) = %v, want %v", f, got, w)
		}
	}
	if ConversionCost(sparse.FormatSELL) != 0 {
		t.Error("SELL has no conversion cost entry")
	}
}

func TestBenchmarkingCost(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var ps []Profile
	for k := 0; k < 10; k++ {
		m := mustCSR(t, 100, 100, func(tr *sparse.Triplet) {
			for n := 0; n < 1000; n++ {
				add(t, tr, rng.Intn(100), rng.Intn(100))
			}
		})
		ps = append(ps, NewProfile(m))
	}
	c := Pascal.BenchmarkingCost(ps)
	// At minimum: 5 s of file reads per matrix.
	if c < 10*MTXReadSeconds {
		t.Errorf("BenchmarkingCost = %v, below the read floor", c)
	}
}

// TestQuickProfileInvariants property-tests structural bounds on random
// matrices: imbalance >= 1, hyb split conserves nnz, slab >= nnz.
func TestQuickProfileInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(60), 1+rng.Intn(60)
		tr := sparse.NewTriplet(rows, cols)
		for n := 0; n < 1+rng.Intn(4*rows); n++ {
			if tr.Add(rng.Intn(rows), rng.Intn(cols), 1) != nil {
				return false
			}
		}
		m := tr.ToCSR()
		if m.NNZ() == 0 {
			return true
		}
		p := NewProfile(m)
		if p.Imbalance() < 1 {
			return false
		}
		if p.HybEllNNZ+p.HybCooNNZ != p.NNZ {
			return false
		}
		if p.EllSlab < p.NNZ {
			return false
		}
		if p.Scatter < 0 || p.Scatter > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestLabelsDifferAcrossArchs verifies the premise of the transfer
// experiments: the same matrices receive different labels on different
// GPUs.
func TestLabelsDifferAcrossArchs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	differ := 0
	for k := 0; k < 60; k++ {
		rows := 200 + rng.Intn(2000)
		tr := sparse.NewTriplet(rows, rows)
		mean := 2 + rng.Intn(12)
		for i := 0; i < rows; i++ {
			for e := 0; e < mean; e++ {
				add(t, tr, i, rng.Intn(rows))
			}
		}
		// A heavy row on some matrices.
		if k%2 == 0 {
			i := rng.Intn(rows)
			for e := 0; e < rows/3; e++ {
				add(t, tr, i, rng.Intn(rows))
			}
		}
		p := NewProfile(tr.ToCSR())
		var labels []int
		for _, a := range Archs() {
			m := a.Measure("m", p)
			if m.Feasible() {
				labels = append(labels, m.Best)
			}
		}
		for i := 1; i < len(labels); i++ {
			if labels[i] != labels[0] {
				differ++
				break
			}
		}
	}
	if differ == 0 {
		t.Error("labels never differ across architectures; transfer experiments would be vacuous")
	}
}

func TestAmortizedSelection(t *testing.T) {
	// A mesh-like profile where ELL is the fastest steady-state kernel.
	rng := rand.New(rand.NewSource(6))
	tr := sparse.NewTriplet(4000, 4000)
	for i := 0; i < 4000; i++ {
		for d := 0; d < 5; d++ {
			j := i + d - 2
			if j >= 0 && j < 4000 {
				add(t, tr, i, j)
			}
		}
	}
	_ = rng
	p := NewProfile(tr.ToCSR())
	a := Pascal
	ellT, err := a.KernelTime(p, sparse.FormatELL)
	if err != nil {
		t.Fatal(err)
	}
	csrT, err := a.KernelTime(p, sparse.FormatCSR)
	if err != nil {
		t.Fatal(err)
	}
	if ellT >= csrT {
		t.Skipf("model prefers CSR for this profile (%v vs %v); amortization untestable", ellT, csrT)
	}
	// One iteration: conversion cost dominates, CSR must win.
	f, err := a.AmortizedSelect(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f != sparse.FormatCSR {
		t.Errorf("1 iteration: selected %v, want CSR", f)
	}
	// Far past break-even: the steady-state winner takes over.
	be, ok := a.BreakEvenIterations(p, sparse.FormatELL)
	if !ok {
		t.Fatal("no break-even for a faster format")
	}
	if be <= 0 {
		t.Fatalf("break-even %d", be)
	}
	f, err = a.AmortizedSelect(p, be*4)
	if err != nil {
		t.Fatal(err)
	}
	if f == sparse.FormatCSR {
		t.Errorf("%d iterations: still CSR despite break-even %d", be*4, be)
	}
	// Consistency: at the break-even count, ELL's amortized time is at
	// most CSR's.
	ellA, err := a.AmortizedTime(p, sparse.FormatELL, be)
	if err != nil {
		t.Fatal(err)
	}
	csrA, err := a.AmortizedTime(p, sparse.FormatCSR, be)
	if err != nil {
		t.Fatal(err)
	}
	if ellA > csrA*1.0001 {
		t.Errorf("at break-even %d: ELL %v > CSR %v", be, ellA, csrA)
	}
	// CSR itself breaks even immediately; a slower format never does.
	if n, ok := a.BreakEvenIterations(p, sparse.FormatCSR); !ok || n != 0 {
		t.Errorf("CSR break-even = %d, %v", n, ok)
	}
	if _, err := a.AmortizedTime(p, sparse.FormatELL, 0); err == nil {
		t.Error("0 iterations accepted")
	}
}

// TestBuiltinArchsValidate checks every built-in architecture for
// physical plausibility.
func TestBuiltinArchsValidate(t *testing.T) {
	checks := []struct {
		name string
		ok   func(a Arch) bool
	}{
		{"Name set", func(a Arch) bool { return a.Name != "" }},
		{"SMs > 0", func(a Arch) bool { return a.SMs > 0 }},
		{"L2KiB > 0", func(a Arch) bool { return a.L2KiB > 0 }},
		{"MemoryGB > 0", func(a Arch) bool { return a.MemoryGB > 0 }},
		{"BandwidthGBs > 0", func(a Arch) bool { return a.BandwidthGBs > 0 }},
		{"ClockGHz > 0", func(a Arch) bool { return a.ClockGHz > 0 }},
		{"GatherPenalty >= 1", func(a Arch) bool { return a.GatherPenalty >= 1 }},
		{"kernel efficiencies > 0", func(a Arch) bool {
			return a.COOEfficiency > 0 && a.ELLEfficiency > 0 && a.HYBEfficiency > 0
		}},
		{"ImbalanceWeight in [0, 1]", func(a Arch) bool { return a.ImbalanceWeight >= 0 && a.ImbalanceWeight <= 1 }},
		{"overheads >= 0", func(a Arch) bool { return a.HYBOverhead >= 0 && a.MaxKernelSeconds >= 0 }},
	}
	for _, a := range Archs() {
		for _, c := range checks {
			if !c.ok(a) {
				t.Errorf("%s: %s fails: %+v", a.Name, c.name, a)
			}
		}
	}
}
