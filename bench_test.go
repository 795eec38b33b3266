// Package repro's top-level benchmark harness: one benchmark per paper
// table (Tables 3-9 are computed; Tables 1-2 are static catalogues),
// ablation benchmarks for the design choices called out in DESIGN.md,
// and substrate micro-benchmarks for the SpMV kernels themselves.
//
// The table benchmarks run the evaluation at the reduced QuickOptions
// scale so `go test -bench=.` finishes in minutes; the full paper-scale
// tables are regenerated with `go run ./cmd/spmvselect tables`. Key
// quality numbers are attached to the benchmark output via
// b.ReportMetric (MCC etc.), so the harness doubles as a regression
// tracker for result shape, not just speed.
package repro

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/features"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/semisup"
	"repro/internal/sparse"
)

var (
	envOnce sync.Once
	envVal  *eval.Env
	envErr  error
)

// benchEnv builds the shared quick-scale environment once.
func benchEnv(b *testing.B) *eval.Env {
	b.Helper()
	envOnce.Do(func() {
		envVal, envErr = eval.NewEnv(context.Background(), eval.QuickOptions())
	})
	if envErr != nil {
		b.Fatalf("building environment: %v", envErr)
	}
	return envVal
}

// BenchmarkTable3 regenerates the best-format distribution (Table 3).
func BenchmarkTable3(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := eval.Table3(env)
		if i == b.N-1 {
			csrShare := float64(rows[0].Counts[1]) / float64(rows[0].Total)
			b.ReportMetric(csrShare, "csr-share-pascal")
			b.ReportMetric(rows[2].MaxSlowdown, "max-csr-slowdown-turing")
		}
	}
}

// BenchmarkTable4 regenerates the semi-supervised local evaluation.
func BenchmarkTable4(b *testing.B) {
	env := benchEnv(b)
	opt := eval.QuickOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table4(context.Background(), env, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(bestMCC(rows, "Turing", "K-Means"), "kmeans-mcc-turing")
			b.ReportMetric(bestMCC(rows, "Turing", "Mean-Shift"), "meanshift-mcc-turing")
		}
	}
}

func bestMCC(rows []eval.Table4Row, arch, algoPrefix string) float64 {
	best := -2.0
	for _, r := range rows {
		if r.Arch == arch && strings.HasPrefix(r.Algo, algoPrefix) && r.M.MCC > best {
			best = r.M.MCC
		}
	}
	return best
}

// BenchmarkTable5 regenerates the semi-supervised transfer evaluation.
func BenchmarkTable5(b *testing.B) {
	env := benchEnv(b)
	opt := eval.QuickOptions()
	opt.Folds = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table5(context.Background(), env, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var acc0, acc50 float64
			for _, r := range rows {
				acc0 += r.M[0].ACC
				acc50 += r.M[2].ACC
			}
			b.ReportMetric(acc0/float64(len(rows)), "mean-acc-0pct")
			b.ReportMetric(acc50/float64(len(rows)), "mean-acc-50pct")
		}
	}
}

// BenchmarkTable6 regenerates the supervised local evaluation.
func BenchmarkTable6(b *testing.B) {
	env := benchEnv(b)
	opt := eval.QuickOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table6(context.Background(), env, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				if r.Arch == "Turing" && r.Model == "XGBoost" {
					b.ReportMetric(r.M.MCC, "xgboost-mcc-turing")
					b.ReportMetric(r.M.CSR, "xgboost-csr-speedup")
				}
			}
		}
	}
}

// BenchmarkTable7 regenerates the supervised transfer evaluation.
func BenchmarkTable7(b *testing.B) {
	env := benchEnv(b)
	opt := eval.QuickOptions()
	opt.Folds = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table7(context.Background(), env, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var gain float64
			for _, r := range rows {
				gain += r.M[2].ACC - r.M[0].ACC
			}
			b.ReportMetric(gain/float64(len(rows)), "mean-retrain-gain")
		}
	}
}

// BenchmarkTable8 regenerates the benchmarking-cost model.
func BenchmarkTable8(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := eval.Table8(env)
		if i == b.N-1 {
			b.ReportMetric(r.Hours["Pascal"], "pascal-bench-hours")
		}
	}
}

// BenchmarkTable9 regenerates the training-time comparison.
func BenchmarkTable9(b *testing.B) {
	env := benchEnv(b)
	opt := eval.QuickOptions()
	opt.CNNEpochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table9(context.Background(), env, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var cnn, km float64
			for _, r := range rows {
				switch r.Model {
				case "CNN":
					cnn = r.Secs[0]
				case "K-Means-VOTE":
					km = r.Secs[0]
				}
			}
			if km > 0 {
				b.ReportMetric(cnn/km, "cnn-over-kmeans-cost")
			}
		}
	}
}

// ---------------------------------------------------------------------
// Ablations: the design choices DESIGN.md calls out.

// ablationMCC trains K-Means-VOTE under the given semisup config on
// Turing and returns the CV MCC.
func ablationMCC(b *testing.B, env *eval.Env, mutate func(*semisup.Config)) float64 {
	b.Helper()
	d := env.Corpus.PerArch["Turing"]
	folds := eval.StratifiedFolds(d.Labels, 3, 1)
	var truth, pred []int
	for f, test := range folds {
		inTest := make(map[int]bool, len(test))
		for _, i := range test {
			inTest[i] = true
		}
		var tx [][]float64
		var ty []int
		for i := 0; i < d.Len(); i++ {
			if !inTest[i] {
				tx = append(tx, d.Feats[i])
				ty = append(ty, d.Labels[i])
			}
		}
		cfg := semisup.Config{NumClusters: 40, Seed: int64(f)}
		mutate(&cfg)
		m, err := semisup.Train(tx, ty, sparse.NumKernelFormats, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, i := range test {
			truth = append(truth, d.Labels[i])
			pred = append(pred, m.Predict(d.Feats[i]))
		}
	}
	c, err := metrics.NewConfusion(truth, pred, sparse.NumKernelFormats)
	if err != nil {
		b.Fatal(err)
	}
	return c.MCC()
}

// BenchmarkAblationLogTransform compares the paper's log/sqrt transform
// against raw features — the paper's key preprocessing insight.
func BenchmarkAblationLogTransform(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with := ablationMCC(b, env, func(c *semisup.Config) {})
		without := ablationMCC(b, env, func(c *semisup.Config) { c.Preprocess.SkipSkew = true })
		if i == b.N-1 {
			b.ReportMetric(with, "mcc-with-log")
			b.ReportMetric(without, "mcc-without-log")
		}
	}
}

// BenchmarkAblationPCA compares PCA(8) against the full scaled feature
// space.
func BenchmarkAblationPCA(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with := ablationMCC(b, env, func(c *semisup.Config) {})
		without := ablationMCC(b, env, func(c *semisup.Config) { c.Preprocess.SkipPCA = true })
		if i == b.N-1 {
			b.ReportMetric(with, "mcc-with-pca")
			b.ReportMetric(without, "mcc-without-pca")
		}
	}
}

// BenchmarkAblationNumClusters sweeps K, the accuracy/cost trade-off the
// paper discusses at length.
func BenchmarkAblationNumClusters(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range []int{10, 40, 160} {
			mcc := ablationMCC(b, env, func(c *semisup.Config) { c.NumClusters = k })
			if i == b.N-1 {
				b.ReportMetric(mcc, "mcc-k"+itoa(k))
			}
		}
	}
}

// BenchmarkAblationBenchmarkFraction sweeps the fraction of matrices
// benchmarked per cluster (the paper's one-matrix-per-cluster economy).
func BenchmarkAblationBenchmarkFraction(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, frac := range []float64{0.1, 0.5, 1.0} {
			mcc := ablationMCC(b, env, func(c *semisup.Config) { c.BenchmarkFraction = frac })
			if i == b.N-1 {
				b.ReportMetric(mcc, "mcc-frac"+itoa(int(frac*100)))
			}
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkExtensionFiveFormats measures the extension experiment: how
// the best-format distribution shifts when sliced ELLPACK (SELL) joins
// the paper's four candidate formats. SELL's bounded per-slice padding
// should capture a share of both ELL's and CSR's wins on moderately
// irregular matrices.
func BenchmarkExtensionFiveFormats(b *testing.B) {
	env := benchEnv(b)
	fiveFormats := append(sparse.KernelFormats(), sparse.FormatSELL)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sellWins, total := 0, 0
		for idx, p := range env.Corpus.Profiles {
			_ = idx
			bestF, bestT := sparse.FormatCSR, 0.0
			ok := true
			for _, f := range fiveFormats {
				t, err := gpusim.Turing.KernelTime(p, f)
				if err != nil {
					ok = false
					break
				}
				if bestT == 0 || t < bestT {
					bestT = t
					bestF = f
				}
			}
			if !ok {
				continue
			}
			total++
			if bestF == sparse.FormatSELL {
				sellWins++
			}
		}
		if i == b.N-1 && total > 0 {
			b.ReportMetric(float64(sellWins)/float64(total), "sell-win-share")
		}
	}
}

// BenchmarkAblationRCMReordering measures how reverse Cuthill-McKee
// reordering changes the modelled SpMV cost: restoring locality shrinks
// the matrix bandwidth, the x-gather hits cache, and the predicted CSR
// time drops — the reordering/format interplay the paper's related work
// discusses.
func BenchmarkAblationRCMReordering(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	type pair struct{ before, after gpusim.Profile }
	var pairs []pair
	for k := 0; k < 3; k++ {
		// Large banded matrices: locality only matters once the x vector
		// outgrows the L2 cache (2 MiB on Pascal), i.e. past ~260k
		// columns.
		rows := 400_000
		band := 3 + k
		tr := sparse.NewTriplet(rows, rows)
		for i := 0; i < rows; i++ {
			for j := i - band; j <= i+band; j++ {
				if j >= 0 && j < rows {
					if err := tr.Add(i, j, 1); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		m := tr.ToCSR()
		shuffle := rng.Perm(rows)
		shuffled, err := m.Permute(shuffle, shuffle)
		if err != nil {
			b.Fatal(err)
		}
		perm, err := sparse.RCM(shuffled)
		if err != nil {
			b.Fatal(err)
		}
		restored, err := shuffled.Permute(perm, perm)
		if err != nil {
			b.Fatal(err)
		}
		pairs = append(pairs, pair{gpusim.NewProfile(shuffled), gpusim.NewProfile(restored)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var speedup float64
		for _, p := range pairs {
			tb, err1 := gpusim.Pascal.KernelTime(p.before, sparse.FormatCSR)
			ta, err2 := gpusim.Pascal.KernelTime(p.after, sparse.FormatCSR)
			if err1 != nil || err2 != nil {
				b.Fatal(err1, err2)
			}
			speedup += tb / ta
		}
		if i == b.N-1 {
			b.ReportMetric(speedup/float64(len(pairs)), "csr-speedup-after-rcm")
		}
	}
}

// ---------------------------------------------------------------------
// Substrate micro-benchmarks: the SpMV kernels and the feature pass.

// benchMatrix builds a mid-size scale-free matrix once.
var (
	benchMatOnce sync.Once
	benchMat     *sparse.CSR
)

func benchMatrix(b *testing.B) *sparse.CSR {
	b.Helper()
	benchMatOnce.Do(func() {
		// Banded: the one family every format (including ELL) can store,
		// so the per-format comparison has no gaps.
		rng := rand.New(rand.NewSource(1))
		benchMat = dataset.FamilyBanded.Generate(rng, 0.6)
	})
	return benchMat
}

// BenchmarkSpMV measures the CPU SpMV kernels per format.
func BenchmarkSpMV(b *testing.B) {
	m := benchMatrix(b)
	_, cols := m.Dims()
	rows, _ := m.Dims()
	x := make([]float64, cols)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, rows)
	for _, f := range sparse.KernelFormats() {
		conv, err := sparse.Convert(m, f)
		if err != nil {
			b.Logf("skipping %v: %v", f, err)
			continue
		}
		b.Run(f.String(), func(b *testing.B) {
			b.SetBytes(int64(m.NNZ() * 12))
			for i := 0; i < b.N; i++ {
				if err := conv.SpMV(y, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("CSR-parallel", func(b *testing.B) {
		b.SetBytes(int64(m.NNZ() * 12))
		for i := 0; i < b.N; i++ {
			if err := m.SpMVParallel(y, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFeatureExtract measures the O(nnz) Table 1 feature pass.
func BenchmarkFeatureExtract(b *testing.B) {
	m := benchMatrix(b)
	b.SetBytes(int64(m.NNZ() * 12))
	for i := 0; i < b.N; i++ {
		_ = features.Extract(m)
	}
}

// BenchmarkObsOverhead proves the observability layer is free when no
// sink is registered: a full obs.Start/End span pair on the disabled
// path must stay under 2 ns/op with zero allocations (ci.sh runs this
// benchmark on every check). The same guard exists next to the
// implementation in internal/obs; this copy keeps the repo-root
// `go test -bench BenchmarkObsOverhead` invocation meaningful.
func BenchmarkObsOverhead(b *testing.B) {
	if obs.Enabled() {
		b.Fatal("observability unexpectedly enabled")
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := obs.Start(ctx, "bench/disabled")
		sp.End()
	}
}

// BenchmarkKernelModel measures the analytical GPU cost model.
func BenchmarkKernelModel(b *testing.B) {
	m := benchMatrix(b)
	p := gpusim.NewProfile(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range sparse.KernelFormats() {
			if _, err := gpusim.Turing.KernelTime(p, f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTablesParallel times the scheduled tables (4-7) end to end
// with the scheduler pinned to one worker versus eight — the measurement
// behind BENCH_parallel.json (`spmvselect bench parallel` regenerates
// that file and additionally byte-compares the rendered output). GOMAXPROCS
// is raised for the parallel case so the workers can actually interleave
// even when the host reports a single CPU.
func BenchmarkTablesParallel(b *testing.B) {
	env := benchEnv(b)
	run := func(b *testing.B, workers int) {
		prev := obs.SetMaxWorkers(workers)
		defer obs.SetMaxWorkers(prev)
		opt := eval.QuickOptions()
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eval.Table4(ctx, env, opt); err != nil {
				b.Fatal(err)
			}
			if _, err := eval.Table5(ctx, env, opt); err != nil {
				b.Fatal(err)
			}
			if _, err := eval.Table6(ctx, env, opt); err != nil {
				b.Fatal(err)
			}
			if _, err := eval.Table7(ctx, env, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, 1) })
	b.Run("parallel-8", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
		run(b, 8)
	})
}
