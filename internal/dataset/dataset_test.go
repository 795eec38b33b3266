package dataset

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/features"
	"repro/internal/gpusim"
	"repro/internal/sparse"
)

// smallConfig keeps unit tests fast.
func smallConfig() Config {
	return Config{
		Seed:            7,
		BaseCount:       28,
		AugmentPerBase:  1,
		Scale:           0.25,
		DropELLFailures: true,
	}
}

func TestFamilyString(t *testing.T) {
	seen := map[string]bool{}
	for f := Family(0); f < numFamilies; f++ {
		s := f.String()
		if s == "" || strings.HasPrefix(s, "Family(") {
			t.Errorf("family %d has no name", int(f))
		}
		if seen[s] {
			t.Errorf("duplicate family name %q", s)
		}
		seen[s] = true
	}
	if !strings.HasPrefix(Family(99).String(), "Family(") {
		t.Error("unknown family should format as Family(n)")
	}
}

func TestGeneratorsProduceValidMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for f := Family(0); f < numFamilies; f++ {
		for trial := 0; trial < 3; trial++ {
			m := f.Generate(rng, 0.3)
			if err := m.Validate(); err != nil {
				t.Errorf("%v trial %d: invalid matrix: %v", f, trial, err)
			}
			if m.NNZ() == 0 {
				t.Errorf("%v trial %d: empty matrix", f, trial)
			}
			rows, cols := m.Dims()
			if rows < 8 || cols < 8 {
				t.Errorf("%v trial %d: degenerate dims %dx%d", f, trial, rows, cols)
			}
		}
	}
}

// rmatLevelSwitch is genRMAT's corner choice as a four-way switch on
// the draw, the form rmatLevel replaced, with the thresholds summed as
// the switch summed them.
func rmatLevelSwitch(r float64) (i, j int) {
	a, b, c := 0.57, 0.19, 0.19
	switch {
	case r < a:
		// top-left: nothing to add
	case r < a+b:
		j = 1
	case r < a+b+c:
		i = 1
	default:
		i, j = 1, 1
	}
	return i, j
}

// TestRMATLevelMatchesSwitch pins rmatLevel and rmatThresholds to the
// switch where a slip would show: on each threshold and just below it.
// The corpus goldens would almost never see a draw land there.
func TestRMATLevelMatchesSwitch(t *testing.T) {
	a, b, c := 0.57, 0.19, 0.19
	rs := []float64{0, math.Nextafter(1, 0)}
	for _, th := range []float64{a, a + b, a + b + c} {
		rs = append(rs, th, math.Nextafter(th, 0))
	}
	ga, gab, gabc := rmatThresholds()
	for _, r := range rs {
		wi, wj := rmatLevelSwitch(r)
		if gi, gj := rmatLevel(r, ga, gab, gabc); gi != wi || gj != wj {
			t.Errorf("r = %v (%#x): rmatLevel gives bits (%d, %d), the switch (%d, %d)",
				r, math.Float64bits(r), gi, gj, wi, wj)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallConfig()
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || !sparse.Equal(a[i].Matrix, b[i].Matrix) {
			t.Fatalf("item %d differs between runs", i)
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{BaseCount: 0, Scale: 0.5}); err == nil {
		t.Error("BaseCount 0 accepted")
	}
	if _, err := Generate(Config{BaseCount: 5, Scale: 0}); err == nil {
		t.Error("Scale 0 accepted")
	}
	if _, err := Generate(Config{BaseCount: 5, Scale: 1.5}); err == nil {
		t.Error("Scale > 1 accepted")
	}
}

func TestGenerateAugmentationNaming(t *testing.T) {
	items, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	bases, variants := 0, 0
	for _, it := range items {
		if strings.Contains(it.Name, "_p") {
			variants++
		} else {
			bases++
		}
	}
	if bases == 0 || variants == 0 {
		t.Fatalf("bases %d variants %d; want both > 0", bases, variants)
	}
	if variants != bases {
		t.Errorf("AugmentPerBase=1: want variants == bases, got %d vs %d", variants, bases)
	}
	// Each variant permutes its base: same dims and nnz, a different
	// layout.
	byName := map[string]*sparse.CSR{}
	for _, it := range items {
		byName[it.Name] = it.Matrix
	}
	for _, it := range items {
		i := strings.LastIndex(it.Name, "_p")
		if i < 0 {
			continue
		}
		base := byName[it.Name[:i]]
		if base == nil {
			t.Fatalf("variant %s has no base", it.Name)
		}
		r0, c0 := base.Dims()
		r, c := it.Matrix.Dims()
		if r != r0 || c != c0 || it.Matrix.NNZ() != base.NNZ() {
			t.Errorf("variant %s changed shape or nnz", it.Name)
		}
		if sparse.Equal(base, it.Matrix) {
			t.Errorf("variant %s is identical to its base", it.Name)
		}
	}
}

func TestAugmentPreservesNNZAndDims(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := FamilyBanded.Generate(rng, 0.2)
	r0, c0 := m.Dims()
	for i := 0; i < 3; i++ {
		rp, cp := drawPerms(rng, r0, c0)
		v, err := m.Permute(rp, cp)
		if err != nil {
			t.Fatal(err)
		}
		r, c := v.Dims()
		if r != r0 || c != c0 || v.NNZ() != m.NNZ() {
			t.Errorf("variant %d changed shape or nnz", i)
		}
		if sparse.Equal(m, v) {
			t.Errorf("variant %d is identical to the base", i)
		}
	}
}

func TestWindowedPermIsBijection(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 2, 5, 64, 101} {
		p := windowedPerm(rng, n, 8)
		seen := make([]bool, n)
		for i, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("n=%d: not a bijection at %d", n, i)
			}
			seen[v] = true
			// Windowed: nothing moves further than one window.
			if d := v - i; d > 8 || d < -8 {
				t.Fatalf("n=%d: index %d moved %d, beyond the window", n, i, d)
			}
		}
	}
}

func TestBuildCorpus(t *testing.T) {
	items, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	archs := gpusim.Archs()
	c := Build(context.Background(), items, archs)
	if len(c.Feats) != len(items) || len(c.Profiles) != len(items) {
		t.Fatal("corpus arrays not aligned with items")
	}
	for i := range items {
		if len(c.Feats[i]) != features.Count {
			t.Fatalf("item %d: feature vector has %d entries", i, len(c.Feats[i]))
		}
	}
	for _, a := range archs {
		d := c.PerArch[a.Name]
		if d == nil {
			t.Fatalf("missing ArchData for %s", a.Name)
		}
		if d.Len() == 0 {
			t.Fatalf("%s dataset empty", a.Name)
		}
		if d.Len() > len(items) {
			t.Fatalf("%s dataset larger than the collection", a.Name)
		}
		counts := d.ClassCounts()
		sum := 0
		for _, n := range counts {
			sum += n
		}
		if sum != d.Len() {
			t.Errorf("%s class counts sum to %d, want %d", a.Name, sum, d.Len())
		}
		for row, idx := range d.Index {
			if d.Names[row] != items[idx].Name {
				t.Fatalf("%s: row %d name mismatch", a.Name, row)
			}
			if len(d.Times[row]) != sparse.NumKernelFormats {
				t.Fatalf("%s: row %d has %d times", a.Name, row, len(d.Times[row]))
			}
			if l := d.Labels[row]; l < 0 || l >= sparse.NumKernelFormats {
				t.Fatalf("%s: row %d label %d out of range", a.Name, row, l)
			}
		}
	}
}

func TestCommonSubsetAligned(t *testing.T) {
	items, err := Generate(Config{
		Seed: 9, BaseCount: 35, AugmentPerBase: 0, Scale: 0.45,
		DropELLFailures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	archs := gpusim.Archs()
	c := Build(context.Background(), items, archs)
	sub, err := c.CommonSubset(archs)
	if err != nil {
		t.Fatal(err)
	}
	var ref *ArchData
	for _, a := range archs {
		d := sub[a.Name]
		if d == nil {
			t.Fatalf("missing common subset for %s", a.Name)
		}
		if d.Len() > c.PerArch[a.Name].Len() {
			t.Fatalf("%s: common subset larger than the per-arch dataset", a.Name)
		}
		if ref == nil {
			ref = d
			continue
		}
		if d.Len() != ref.Len() {
			t.Fatalf("common subsets not equal length: %d vs %d", d.Len(), ref.Len())
		}
		for k := range d.Index {
			if d.Index[k] != ref.Index[k] {
				t.Fatalf("common subset row %d refers to different matrices", k)
			}
		}
	}
	if ref.Len() == 0 {
		t.Fatal("common subset empty; transfer experiments would be vacuous")
	}
}

func TestCommonSubsetErrors(t *testing.T) {
	c := &Corpus{PerArch: map[string]*ArchData{}}
	if _, err := c.CommonSubset(nil); err == nil {
		t.Error("empty arch list accepted")
	}
	if _, err := c.CommonSubset([]gpusim.Arch{gpusim.Pascal}); err == nil {
		t.Error("unknown architecture accepted")
	}
}

func TestLabelDistributionShape(t *testing.T) {
	// The headline property the simulator must reproduce (Table 3):
	// unbalanced classes with CSR the clear majority on every GPU.
	items, err := Generate(Config{
		Seed: 21, BaseCount: 140, AugmentPerBase: 0, Scale: 0.5,
		DropELLFailures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := Build(context.Background(), items, gpusim.Archs())
	for _, a := range gpusim.Archs() {
		d := c.PerArch[a.Name]
		counts := d.ClassCounts()
		csr := counts[1] // KernelFormats order: COO, CSR, ELL, HYB
		for i, n := range counts {
			if i != 1 && n >= csr {
				t.Errorf("%s: class %v (%d) >= CSR (%d); distribution shape wrong",
					a.Name, sparse.KernelFormats()[i], n, csr)
			}
		}
		if frac := float64(csr) / float64(d.Len()); frac < 0.40 || frac > 0.95 {
			t.Errorf("%s: CSR fraction %.2f outside the plausible Table 3 range", a.Name, frac)
		}
	}
}
