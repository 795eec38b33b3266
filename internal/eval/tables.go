package eval

import (
	"context"
	"fmt"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/semisup"
	"repro/internal/sparse"
)

// Metrics is the (MCC, ACC, F1) triple reported throughout the paper.
type Metrics struct {
	MCC, ACC, F1 float64
}

// SupMetrics adds the SpMV-outcome columns of Tables 6 and 7.
type SupMetrics struct {
	ACC, F1, MCC, GT, CSR float64
	Threshold             int
}

// Combo names one semi-supervised configuration using the paper's
// naming ("K-Means-VOTE", ...).
type Combo struct {
	Algo semisup.Algorithm
	Rule semisup.Rule
}

// Name formats the combo as the paper does.
func (c Combo) Name() string {
	algo := map[semisup.Algorithm]string{
		semisup.AlgoKMeans:    "K-Means",
		semisup.AlgoMeanShift: "Mean-Shift",
		semisup.AlgoBirch:     "Birch",
	}[c.Algo]
	rule := map[semisup.Rule]string{
		semisup.RuleVote: "VOTE",
		semisup.RuleLR:   "LR",
		semisup.RuleRF:   "RF",
	}[c.Rule]
	return algo + "-" + rule
}

// Combos returns the nine clustering x labelling configurations of the
// paper's Section 4, in Table 4's order.
func Combos() []Combo {
	var out []Combo
	for _, a := range []semisup.Algorithm{semisup.AlgoKMeans, semisup.AlgoMeanShift, semisup.AlgoBirch} {
		for _, r := range []semisup.Rule{semisup.RuleVote, semisup.RuleLR, semisup.RuleRF} {
			out = append(out, Combo{a, r})
		}
	}
	return out
}

// evalMetrics computes the triple from truth and predictions.
func evalMetrics(truth, pred []int) (Metrics, error) {
	c, err := metrics.NewConfusion(truth, pred, sparse.NumKernelFormats)
	if err != nil {
		return Metrics{}, err
	}
	return Metrics{MCC: c.MCC(), ACC: c.Accuracy(), F1: c.F1Weighted()}, nil
}

// ---------------------------------------------------------------------
// Table 3: best-format distribution per GPU and the common subset.

// Table3Row is one architecture's class distribution.
type Table3Row struct {
	Arch   string
	Counts [sparse.NumKernelFormats]int
	Common [sparse.NumKernelFormats]int
	Total  int
	// MaxSlowdown is the worst CSR-vs-best ratio with the matrix name,
	// the paper's Section 2.2 anecdote.
	MaxSlowdown     float64
	MaxSlowdownName string
}

// Table3 computes the label distributions.
func Table3(env *Env) []Table3Row {
	rows := make([]Table3Row, 0, len(env.Archs))
	for _, a := range env.Archs {
		d := env.Corpus.PerArch[a.Name]
		var r Table3Row
		r.Arch = a.Name
		r.Counts = d.ClassCounts()
		r.Common = env.Common[a.Name].ClassCounts()
		r.Total = d.Len()
		ratio, row := metrics.MaxSlowdown(d.Times)
		r.MaxSlowdown = ratio
		r.MaxSlowdownName = d.Names[row]
		rows = append(rows, r)
	}
	return rows
}

// ---------------------------------------------------------------------
// Table 4: semi-supervised local evaluation.

// Table4Row is one (architecture, combo) result at its best NC.
type Table4Row struct {
	Arch string
	Algo string
	NC   int
	M    Metrics
}

// Table4 cross-validates all nine combos on each architecture, sweeping
// NC for the K-driven algorithms and reporting the best-MCC setting.
// Every (arch, combo, NC) triple is an independent CV run, so the grid
// goes through the scheduler; the best-NC reduction walks the sweep in
// its canonical order afterwards, exactly as the sequential loop did.
func Table4(ctx context.Context, env *Env, opt Options) ([]Table4Row, error) {
	type cell struct {
		arch  string
		d     *dataset.ArchData
		combo Combo
		nc    int
	}
	var cells []cell
	for _, a := range env.Archs {
		d := env.Corpus.PerArch[a.Name]
		for _, combo := range Combos() {
			sweep := opt.NCSweep
			if combo.Algo == semisup.AlgoMeanShift {
				sweep = []int{0} // Mean-Shift finds its own NC
			}
			for _, nc := range sweep {
				cells = append(cells, cell{a.Name, d, combo, nc})
			}
		}
	}
	type result struct {
		m     Metrics
		avgNC int
	}
	results := make([]result, len(cells))
	err := runCells(ctx, "table4", len(cells), func(ctx context.Context, i int) error {
		c := cells[i]
		ctx, sp := obs.Start(ctx, "cell/"+c.arch+"/"+c.combo.Name())
		defer sp.End()
		m, avgNC, err := cvSemi(ctx, c.d, c.combo, c.nc, opt)
		if err != nil {
			return fmt.Errorf("eval: Table4 %s/%s: %w", c.arch, c.combo.Name(), err)
		}
		results[i] = result{m, avgNC}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Table4Row
	for i := 0; i < len(cells); {
		best := Table4Row{Arch: cells[i].arch, Algo: cells[i].combo.Name(), M: Metrics{MCC: -2}}
		for ; i < len(cells) && cells[i].arch == best.Arch && cells[i].combo.Name() == best.Algo; i++ {
			if results[i].m.MCC > best.M.MCC {
				best.M = results[i].m
				best.NC = results[i].avgNC
			}
		}
		rows = append(rows, best)
	}
	return rows, nil
}

// cvSemi cross-validates one combo at one NC on one architecture's data,
// returning mean metrics and the mean cluster count.
func cvSemi(ctx context.Context, d *dataset.ArchData, combo Combo, nc int, opt Options) (Metrics, int, error) {
	ctx, span := obs.Start(ctx, "cv/"+combo.Name())
	defer span.End()
	folds := StratifiedFolds(d.Labels, opt.Folds, opt.Seed)
	var truth, pred []int
	ncSum := 0
	for f, test := range folds {
		train := trainTestSplit(d.Len(), test)
		cfg := semisup.Config{
			Algorithm:   combo.Algo,
			Rule:        combo.Rule,
			NumClusters: nc,
			Seed:        opt.Seed + int64(f),
		}
		m, err := semisup.TrainCtx(ctx, gather(d.Feats, train), gatherInts(d.Labels, train),
			sparse.NumKernelFormats, cfg)
		if err != nil {
			return Metrics{}, 0, err
		}
		ncSum += m.NumClusters()
		truth = append(truth, gatherInts(d.Labels, test)...)
		pred = append(pred, m.PredictAll(gather(d.Feats, test))...)
	}
	m, err := evalMetrics(truth, pred)
	return m, ncSum / len(folds), err
}

// ---------------------------------------------------------------------
// Table 5: semi-supervised transfer across architecture pairs.

// Table5Row is one (source -> target, combo) result at the three
// retraining fractions 0%, 25%, 50%.
type Table5Row struct {
	Pair string
	Algo string
	NC   int
	M    [3]Metrics
}

// RetrainFractions are the retraining levels of Tables 5 and 7.
var RetrainFractions = [3]float64{0, 0.25, 0.50}

// TransferPairs returns the six ordered (source, target) architecture
// pairs in Table 5's order.
func TransferPairs(archs []gpusim.Arch) [][2]gpusim.Arch {
	var out [][2]gpusim.Arch
	for _, src := range archs {
		for _, tgt := range archs {
			if src.Name != tgt.Name {
				out = append(out, [2]gpusim.Arch{src, tgt})
			}
		}
	}
	return out
}

// Table5 evaluates all combos on every transfer pair over the common
// subset: the model is trained with source labels, then incrementally
// relabelled with growing fractions of target labels. The (pair, combo)
// cells run on the scheduler; each cell is one full CV and fills only
// its own row.
func Table5(ctx context.Context, env *Env, opt Options) ([]Table5Row, error) {
	type cell struct {
		pair  [2]gpusim.Arch
		combo Combo
	}
	var cells []cell
	for _, pair := range TransferPairs(env.Archs) {
		for _, combo := range Combos() {
			cells = append(cells, cell{pair, combo})
		}
	}
	rows := make([]Table5Row, len(cells))
	err := runCells(ctx, "table5", len(cells), func(ctx context.Context, i int) error {
		c := cells[i]
		ctx, sp := obs.Start(ctx, fmt.Sprintf("cell/%s-%s/%s", c.pair[0].Name, c.pair[1].Name, c.combo.Name()))
		defer sp.End()
		row, err := transferSemiCell(ctx, env, c.pair, c.combo, opt)
		if err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// transferSemiCell runs one (pair, combo) cell of Table 5.
func transferSemiCell(ctx context.Context, env *Env, pair [2]gpusim.Arch, combo Combo, opt Options) (Table5Row, error) {
	src := env.Common[pair[0].Name]
	tgt := env.Common[pair[1].Name]
	row := Table5Row{
		Pair: fmt.Sprintf("%s to %s", pair[0].Name, pair[1].Name),
		Algo: combo.Name(),
	}
	folds := StratifiedFolds(tgt.Labels, opt.Folds, opt.Seed)
	var truth [3][]int
	var pred [3][]int
	ncSum := 0
	for f, test := range folds {
		train := trainTestSplit(tgt.Len(), test)
		cfg := semisup.Config{
			Algorithm:   combo.Algo,
			Rule:        combo.Rule,
			NumClusters: opt.TransferNC,
			Seed:        opt.Seed + int64(f),
		}
		// Train with SOURCE labels: the portable model.
		m, err := semisup.TrainCtx(ctx, gather(src.Feats, train), gatherInts(src.Labels, train),
			sparse.NumKernelFormats, cfg)
		if err != nil {
			return Table5Row{}, fmt.Errorf("eval: Table5 %s/%s: %w", row.Pair, combo.Name(), err)
		}
		ncSum += m.NumClusters()
		testX := gather(tgt.Feats, test)
		testY := gatherInts(tgt.Labels, test)
		for fi, frac := range RetrainFractions {
			if frac > 0 {
				take := int(frac * float64(len(train)))
				if take < 1 {
					take = 1
				}
				sub := train[:take]
				if err := m.Relabel(gather(tgt.Feats, sub), gatherInts(tgt.Labels, sub)); err != nil {
					return Table5Row{}, err
				}
			}
			truth[fi] = append(truth[fi], testY...)
			pred[fi] = append(pred[fi], m.PredictAll(testX)...)
		}
	}
	row.NC = ncSum / len(folds)
	for fi := range RetrainFractions {
		m, err := evalMetrics(truth[fi], pred[fi])
		if err != nil {
			return Table5Row{}, err
		}
		row.M[fi] = m
	}
	return row, nil
}

// ---------------------------------------------------------------------
// Tables 6 and 7: supervised baselines, local and transfer.

// SupervisedModels returns the paper's supervised baselines, in Table
// 6's order. The CNN is built separately since it consumes images.
func SupervisedModels(seed int64) []struct {
	Name  string
	Build func() classify.Classifier
} {
	return []struct {
		Name  string
		Build func() classify.Classifier
	}{
		{"DT", func() classify.Classifier { return classify.NewTree(10) }},
		{"RF", func() classify.Classifier { return classify.NewForest(seed) }},
		{"SVM", func() classify.Classifier { return classify.NewSVM(seed) }},
		{"KNN", func() classify.Classifier { return classify.NewKNN(5) }},
		{"XGBoost", func() classify.Classifier { return classify.NewGBoost() }},
	}
}

// Table6Row is one (architecture, model) local result.
type Table6Row struct {
	Arch  string
	Model string
	M     SupMetrics
}

// Table6 cross-validates the supervised baselines (plus the CNN) on
// each architecture. A first scheduler pass fits the per-architecture
// feature scaling; a second runs the (arch, model) CV cells.
func Table6(ctx context.Context, env *Env, opt Options) ([]Table6Row, error) {
	type prep struct {
		d      *dataset.ArchData
		feats  [][]float64
		images [][]float64
	}
	preps := make([]prep, len(env.Archs))
	err := runCells(ctx, "table6/prep", len(env.Archs), func(ctx context.Context, i int) error {
		d := env.Corpus.PerArch[env.Archs[i].Name]
		feats, err := scaledFeatures(d)
		if err != nil {
			return err
		}
		preps[i] = prep{d: d, feats: feats, images: env.ImagesFor(d)}
		return nil
	})
	if err != nil {
		return nil, err
	}

	specs := table6Models(opt)
	type cell struct {
		arch string
		prep prep
		spec supervisedSpec
	}
	var cells []cell
	for ai, a := range env.Archs {
		for _, spec := range specs {
			cells = append(cells, cell{a.Name, preps[ai], spec})
		}
	}
	rows := make([]Table6Row, len(cells))
	err = runCells(ctx, "table6", len(cells), func(ctx context.Context, i int) error {
		c := cells[i]
		feats := c.prep.feats
		if c.spec.OnImages {
			feats = c.prep.images
		}
		m, err := cvSupervised(ctx, c.prep.d, feats, c.spec.Name, c.spec.Build, opt)
		if err != nil {
			return fmt.Errorf("eval: Table6 %s/%s: %w", c.arch, c.spec.Name, err)
		}
		rows[i] = Table6Row{Arch: c.arch, Model: c.spec.Name, M: m}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// supervisedSpec names one supervised model family of Tables 6, 7 and 9.
type supervisedSpec struct {
	Name     string
	Build    func() classify.Classifier
	OnImages bool
}

// table6Models returns the Table 6 model list: the five classical
// baselines plus the CNN over density images, in the paper's order.
func table6Models(opt Options) []supervisedSpec {
	var specs []supervisedSpec
	for _, s := range SupervisedModels(opt.Seed) {
		specs = append(specs, supervisedSpec{Name: s.Name, Build: s.Build})
	}
	specs = append(specs, supervisedSpec{
		Name: "CNN",
		Build: func() classify.Classifier {
			c := classify.NewCNN(opt.Seed)
			c.Epochs = opt.CNNEpochs
			return c
		},
		OnImages: true,
	})
	return specs
}

// scaledFeatures applies the paper's skew + min-max stages (no PCA, so
// tree models keep interpretable axes) fitted on the whole arch dataset.
// Fitting scaling on train folds only changes results negligibly and
// the paper normalises per dataset.
func scaledFeatures(d *dataset.ArchData) ([][]float64, error) {
	chain, err := fitScaler(d.Feats)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, d.Len())
	for i, r := range d.Feats {
		out[i] = chain.Transform(r)
	}
	return out, nil
}

// cvSupervised cross-validates one model family over the rows of d using
// the supplied feature representation. One span covers the whole CV of
// the family; per-Fit wall times go to classify.Timed's histograms.
func cvSupervised(ctx context.Context, d *dataset.ArchData, feats [][]float64, name string, build func() classify.Classifier, opt Options) (SupMetrics, error) {
	_, span := obs.Start(ctx, "train/"+name)
	defer span.End()
	folds := StratifiedFolds(d.Labels, opt.Folds, opt.Seed)
	var truth, pred []int
	var times [][]float64
	for _, test := range folds {
		train := trainTestSplit(d.Len(), test)
		clf := classify.NewTimed(name, build())
		if err := clf.Fit(gather(feats, train), gatherInts(d.Labels, train), sparse.NumKernelFormats); err != nil {
			return SupMetrics{}, err
		}
		preds := classify.PredictAll(clf, gather(feats, test))
		for k, i := range test {
			truth = append(truth, d.Labels[i])
			pred = append(pred, preds[k])
			times = append(times, d.Times[i])
		}
	}
	return supMetrics(truth, pred, times)
}

func supMetrics(truth, pred []int, times [][]float64) (SupMetrics, error) {
	c, err := metrics.NewConfusion(truth, pred, sparse.NumKernelFormats)
	if err != nil {
		return SupMetrics{}, err
	}
	sp, err := metrics.Speedups(times, pred)
	if err != nil {
		return SupMetrics{}, err
	}
	return SupMetrics{
		ACC: c.Accuracy(), F1: c.F1Weighted(), MCC: c.MCC(),
		GT: sp.GT, CSR: sp.CSR, Threshold: sp.Threshold,
	}, nil
}

// Table7Row is one (pair, model) transfer result at the three
// retraining fractions.
type Table7Row struct {
	Pair  string
	Model string
	M     [3]SupMetrics
}

// Table7Pairs returns the five transfer pairs of Table 7 (the paper
// omits Volta to Pascal as near-identical to Turing to Pascal).
func Table7Pairs(archs []gpusim.Arch) [][2]gpusim.Arch {
	all := TransferPairs(archs)
	out := all[:0:0]
	for _, p := range all {
		if p[0].Name == "Volta" && p[1].Name == "Pascal" {
			continue
		}
		out = append(out, p)
	}
	return out
}

// Table7 evaluates the supervised baselines in the transfer setting:
// models are trained on source labels, with a fraction of the training
// matrices relabelled by target benchmarking. A scheduler pass fits the
// per-pair target feature scaling, then the (pair, model) CV cells fan
// out.
func Table7(ctx context.Context, env *Env, opt Options) ([]Table7Row, error) {
	pairs := Table7Pairs(env.Archs)
	feats := make([][][]float64, len(pairs))
	err := runCells(ctx, "table7/prep", len(pairs), func(ctx context.Context, i int) error {
		// Identical features; scaling fit on the pair's common subset.
		f, err := scaledFeatures(env.Common[pairs[i][1].Name])
		if err != nil {
			return err
		}
		feats[i] = f
		return nil
	})
	if err != nil {
		return nil, err
	}

	type cell struct {
		pair  [2]gpusim.Arch
		feats [][]float64
		spec  supervisedSpec
	}
	var cells []cell
	for pi, pair := range pairs {
		for _, s := range SupervisedModels(opt.Seed) {
			cells = append(cells, cell{pair, feats[pi], supervisedSpec{Name: s.Name, Build: s.Build}})
		}
	}
	rows := make([]Table7Row, len(cells))
	err = runCells(ctx, "table7", len(cells), func(ctx context.Context, i int) error {
		c := cells[i]
		row, err := transferSupervisedCell(ctx, env, c.pair, c.feats, c.spec, opt)
		if err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// transferSupervisedCell runs one (pair, model) cell of Table 7.
func transferSupervisedCell(ctx context.Context, env *Env, pair [2]gpusim.Arch, feats [][]float64, spec supervisedSpec, opt Options) (Table7Row, error) {
	src := env.Common[pair[0].Name]
	tgt := env.Common[pair[1].Name]
	row := Table7Row{
		Pair:  fmt.Sprintf("%s to %s", pair[0].Name, pair[1].Name),
		Model: spec.Name,
	}
	_, msp := obs.Start(ctx, fmt.Sprintf("cell/%s-%s/%s", pair[0].Name, pair[1].Name, spec.Name))
	defer msp.End()
	folds := StratifiedFolds(tgt.Labels, opt.Folds, opt.Seed)
	var truth [3][]int
	var pred [3][]int
	var times [3][][]float64
	for _, test := range folds {
		train := trainTestSplit(tgt.Len(), test)
		for fi, frac := range RetrainFractions {
			// Labels: source, with the first frac of the training
			// rows re-benchmarked on the target.
			y := gatherInts(src.Labels, train)
			take := int(frac * float64(len(train)))
			for k := 0; k < take; k++ {
				y[k] = tgt.Labels[train[k]]
			}
			clf := classify.NewTimed(spec.Name, spec.Build())
			if err := clf.Fit(gather(feats, train), y, sparse.NumKernelFormats); err != nil {
				return Table7Row{}, fmt.Errorf("eval: Table7 %s/%s: %w", row.Pair, spec.Name, err)
			}
			preds := classify.PredictAll(clf, gather(feats, test))
			for k, i := range test {
				truth[fi] = append(truth[fi], tgt.Labels[i])
				pred[fi] = append(pred[fi], preds[k])
				times[fi] = append(times[fi], tgt.Times[i])
			}
		}
	}
	for fi := range RetrainFractions {
		m, err := supMetrics(truth[fi], pred[fi], times[fi])
		if err != nil {
			return Table7Row{}, err
		}
		row.M[fi] = m
	}
	return row, nil
}

// ---------------------------------------------------------------------
// Table 8: conversion cost and benchmarking time.

// Table8 summarises the format conversion costs and the modelled
// per-architecture benchmarking cost in hours.
type Table8Result struct {
	// ConversionCost[f] is the cost of converting to kernel format f in
	// CSR-SpMV units.
	ConversionCost map[string]float64
	// Hours[arch] is the modelled total benchmarking time.
	Hours map[string]float64
}

// Table8 computes the benchmark cost model over the corpus.
func Table8(env *Env) Table8Result {
	r := Table8Result{
		ConversionCost: map[string]float64{},
		Hours:          map[string]float64{},
	}
	for _, f := range sparse.KernelFormats() {
		if f == sparse.FormatCSR {
			continue
		}
		r.ConversionCost[f.String()] = gpusim.ConversionCost(f)
	}
	for _, a := range env.Archs {
		r.Hours[a.Name] = a.BenchmarkingCost(env.Corpus.Profiles) / 3600
	}
	return r
}

// ---------------------------------------------------------------------
// Table 9: training times.

// Table9Row is one model's wall-clock training time at the three
// transfer-data levels.
type Table9Row struct {
	Model string
	Secs  [3]float64
}

// Table9 measures actual training wall-clock on this machine for each
// model at dataset sizes n, 1.25n and 1.5n (the paper's 0/25/50%
// additional transfer data). Absolute values are hardware and
// implementation specific — the paper says the same. The reproducible
// claim is the paper's CNN >> classical; its classical >> K-Means
// labelling holds here for the ensembles (RF, XGBoost) only, as DT and
// the linear SVM train faster than K-Means-VOTE.
// Table9 deliberately stays off the cell scheduler: its rows ARE
// wall-clock timings, and co-scheduling the fits would make each row
// measure contention instead of the model's training cost.
func Table9(ctx context.Context, env *Env, opt Options) ([]Table9Row, error) {
	d := env.Common[env.Archs[0].Name]
	feats, err := scaledFeatures(d)
	if err != nil {
		return nil, err
	}
	images := env.ImagesFor(d)
	n := d.Len()

	sizes := [3]int{n, n + n/4, n + n/2}
	// Build the enlarged sets by repeating rows deterministically.
	makeSet := func(base [][]float64, size int) ([][]float64, []int) {
		x := make([][]float64, size)
		y := make([]int, size)
		for i := 0; i < size; i++ {
			x[i] = base[i%n]
			y[i] = d.Labels[i%n]
		}
		return x, y
	}

	var rows []Table9Row
	for _, spec := range SupervisedModels(opt.Seed) {
		row := Table9Row{Model: spec.Name}
		_, msp := obs.Start(ctx, "train/"+spec.Name)
		for si, size := range sizes {
			x, y := makeSet(feats, size)
			clf := spec.Build()
			t := obs.StartTimer("train/" + spec.Name)
			if err := clf.Fit(x, y, sparse.NumKernelFormats); err != nil {
				msp.End()
				return nil, fmt.Errorf("eval: Table9 %s: %w", spec.Name, err)
			}
			row.Secs[si] = t.Stop().Seconds()
		}
		msp.End()
		rows = append(rows, row)
	}
	// CNN.
	{
		row := Table9Row{Model: "CNN"}
		_, msp := obs.Start(ctx, "train/CNN")
		for si, size := range sizes {
			x, y := makeSet(images, size)
			c := classify.NewCNN(opt.Seed)
			c.Epochs = opt.CNNEpochs
			t := obs.StartTimer("train/CNN")
			if err := c.Fit(x, y, sparse.NumKernelFormats); err != nil {
				msp.End()
				return nil, fmt.Errorf("eval: Table9 CNN: %w", err)
			}
			row.Secs[si] = t.Stop().Seconds()
		}
		msp.End()
		rows = append(rows, row)
	}
	// Semi-supervised variants: the transfer-time cost is clustering once
	// plus relabelling, so we time Train at the base size and Relabel for
	// the increments.
	for _, rule := range []semisup.Rule{semisup.RuleVote, semisup.RuleLR, semisup.RuleRF} {
		row := Table9Row{Model: "K-Means-" + map[semisup.Rule]string{
			semisup.RuleVote: "VOTE", semisup.RuleLR: "LR", semisup.RuleRF: "RF"}[rule]}
		mctx, msp := obs.Start(ctx, "train/"+row.Model)
		for si, size := range sizes {
			x, y := makeSet(d.Feats, size)
			cfg := semisup.Config{Algorithm: semisup.AlgoKMeans, Rule: rule,
				NumClusters: opt.TransferNC, Seed: opt.Seed}
			t := obs.StartTimer("train/" + row.Model)
			if _, err := semisup.TrainCtx(mctx, x, y, sparse.NumKernelFormats, cfg); err != nil {
				msp.End()
				return nil, fmt.Errorf("eval: Table9 %s: %w", row.Model, err)
			}
			row.Secs[si] = t.Stop().Seconds()
		}
		msp.End()
		rows = append(rows, row)
	}
	return rows, nil
}
