package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/gpusim"
	"repro/internal/sparse"
)

// trainingSet builds a small labelled corpus on one architecture.
func trainingSet(t *testing.T, arch gpusim.Arch) (ms []*sparse.CSR, best []sparse.Format) {
	t.Helper()
	items, err := dataset.Generate(dataset.Config{
		Seed: 3, BaseCount: 63, AugmentPerBase: 0, Scale: 0.35,
		DropELLFailures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		meas := arch.Measure(it.Name, gpusim.NewProfile(it.Matrix))
		if !meas.Feasible() {
			continue
		}
		f, _ := meas.BestFormat()
		ms = append(ms, it.Matrix)
		best = append(best, f)
	}
	return ms, best
}

func TestTrainSelectorAndSelect(t *testing.T) {
	ms, best := trainingSet(t, gpusim.Turing)
	sel, err := TrainSelector(ms, best, Options{NumClusters: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sel.NumClusters() <= 0 {
		t.Fatal("no clusters")
	}
	// In-sample recommendations should agree with ground truth much more
	// often than the majority-class rate.
	hit := 0
	for i, m := range ms {
		if sel.Select(m) == best[i] {
			hit++
		}
	}
	acc := float64(hit) / float64(len(ms))
	if acc < 0.6 {
		t.Errorf("in-sample agreement %.3f", acc)
	}
}

func TestSelectorValidation(t *testing.T) {
	if _, err := TrainSelector(nil, nil, Options{}); err == nil {
		t.Error("empty input accepted")
	}
	tr := sparse.NewTriplet(4, 4)
	if err := tr.Add(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	m := tr.ToCSR()
	if _, err := TrainSelector([]*sparse.CSR{m}, []sparse.Format{sparse.FormatSELL}, Options{}); err == nil {
		t.Error("SELL label accepted")
	}
	if _, err := TrainSelector([]*sparse.CSR{m}, nil, Options{}); err == nil {
		t.Error("label mismatch accepted")
	}
}

func TestSelectorConvert(t *testing.T) {
	ms, best := trainingSet(t, gpusim.Pascal)
	sel, err := TrainSelector(ms, best, Options{NumClusters: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sel.Convert(ms[0])
	if err != nil {
		// ELL conversion may legitimately fail; the fallback must be the
		// original matrix.
		if out != sparse.Matrix(ms[0]) {
			t.Fatal("failed Convert did not fall back to the input")
		}
		return
	}
	if !sparse.Equal(out, ms[0]) {
		t.Error("Convert changed the matrix contents")
	}
	if out.Format() != sel.Select(ms[0]) {
		t.Error("Convert used a different format than Select")
	}
}

func TestSelectorExplain(t *testing.T) {
	ms, best := trainingSet(t, gpusim.Turing)
	sel, err := TrainSelector(ms, best, Options{NumClusters: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := sel.Explain(ms[1])
	if e.Format != sel.Select(ms[1]) {
		t.Error("Explain format disagrees with Select")
	}
	if e.Cluster < 0 || e.Cluster >= sel.NumClusters() {
		t.Errorf("cluster %d out of range", e.Cluster)
	}
	if e.ClusterSize <= 0 {
		t.Errorf("cluster size %d", e.ClusterSize)
	}
	if e.String() == "" {
		t.Error("empty explanation")
	}
	if e.Features[0] <= 0 {
		t.Error("explanation lost the feature vector")
	}
}

func TestSelectorPortImprovesTransfer(t *testing.T) {
	items, err := dataset.Generate(dataset.Config{
		Seed: 11, BaseCount: 70, AugmentPerBase: 0, Scale: 0.35,
		DropELLFailures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Keep the matrices feasible on both architectures, labelled by each.
	var common []*sparse.CSR
	var labP, labV []sparse.Format
	for _, it := range items {
		p := gpusim.NewProfile(it.Matrix)
		mp := gpusim.Pascal.Measure(it.Name, p)
		mv := gpusim.Volta.Measure(it.Name, p)
		if !mp.Feasible() || !mv.Feasible() {
			continue
		}
		fp, _ := mp.BestFormat()
		fv, _ := mv.BestFormat()
		common = append(common, it.Matrix)
		labP = append(labP, fp)
		labV = append(labV, fv)
	}
	if len(common) < 30 {
		t.Fatalf("only %d common matrices", len(common))
	}
	cut := len(common) * 2 / 3
	sel, err := TrainSelector(common[:cut], labP[:cut], Options{NumClusters: 16, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	score := func() float64 {
		hit := 0
		for i := cut; i < len(common); i++ {
			if sel.Select(common[i]) == labV[i] {
				hit++
			}
		}
		return float64(hit) / float64(len(common)-cut)
	}
	before := score()
	if err := sel.Port(common[:cut], labV[:cut]); err != nil {
		t.Fatal(err)
	}
	after := score()
	if after < before-0.05 {
		t.Errorf("porting hurt transfer accuracy: %.3f -> %.3f", before, after)
	}
	if err := sel.Port(nil, nil); err == nil {
		t.Error("empty port accepted")
	}
}

func TestSelectorPurity(t *testing.T) {
	ms, best := trainingSet(t, gpusim.Turing)
	sel, err := TrainSelector(ms, best, Options{NumClusters: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	purity, count, err := sel.Purity(ms, best)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for c := range purity {
		total += count[c]
		if purity[c] < 0 || purity[c] > 1 {
			t.Errorf("cluster %d purity %v", c, purity[c])
		}
	}
	if total != len(ms) {
		t.Errorf("purity counts %d != %d matrices", total, len(ms))
	}
	if _, _, err := sel.Purity(ms[:1], []sparse.Format{sparse.FormatSELL}); err == nil {
		t.Error("bad purity label accepted")
	}
}
