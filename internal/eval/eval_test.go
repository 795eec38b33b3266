package eval

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sparse"
)

// sharedEnv caches one quick environment across the tests of this
// package; building it is the expensive step.
var sharedEnv *Env

func getEnv(t *testing.T) *Env {
	t.Helper()
	if sharedEnv == nil {
		env, err := NewEnv(context.Background(), QuickOptions())
		if err != nil {
			t.Fatalf("NewEnv: %v", err)
		}
		sharedEnv = env
	}
	return sharedEnv
}

func TestStratifiedFolds(t *testing.T) {
	labels := make([]int, 100)
	for i := 60; i < 90; i++ {
		labels[i] = 1
	}
	for i := 90; i < 100; i++ {
		labels[i] = 2
	}
	folds := StratifiedFolds(labels, 5, 1)
	if len(folds) != 5 {
		t.Fatalf("%d folds", len(folds))
	}
	seen := map[int]int{}
	for _, f := range folds {
		counts := [3]int{}
		for _, i := range f {
			seen[i]++
			counts[labels[i]]++
		}
		// Every fold carries a proportional share of each class.
		if counts[0] != 12 || counts[1] != 6 || counts[2] != 2 {
			t.Errorf("fold distribution %v, want [12 6 2]", counts)
		}
	}
	if len(seen) != 100 {
		t.Fatalf("folds cover %d samples", len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("sample %d appears %d times", i, n)
		}
	}
	train := trainTestSplit(100, folds[0])
	if len(train)+len(folds[0]) != 100 {
		t.Error("train/test split loses samples")
	}
}

func TestEnvConstruction(t *testing.T) {
	env := getEnv(t)
	if len(env.Images) != len(env.Corpus.Items) {
		t.Fatal("images not aligned with corpus")
	}
	for _, a := range env.Archs {
		if env.Common[a.Name] == nil || env.Common[a.Name].Len() == 0 {
			t.Fatalf("common subset missing for %s", a.Name)
		}
	}
	d := env.Corpus.PerArch["Pascal"]
	imgs := env.ImagesFor(d)
	if len(imgs) != d.Len() {
		t.Fatal("ImagesFor misaligned")
	}
}

func TestTable3ShapeAndRender(t *testing.T) {
	env := getEnv(t)
	rows := Table3(env)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		sum := 0
		for _, c := range r.Counts {
			sum += c
		}
		if sum != r.Total {
			t.Errorf("%s: counts sum %d != total %d", r.Arch, sum, r.Total)
		}
		// CSR must be the plurality class (Table 3's shape).
		csr := r.Counts[1]
		for i, c := range r.Counts {
			if i != 1 && c > csr {
				t.Errorf("%s: class %v exceeds CSR", r.Arch, sparse.KernelFormats()[i])
			}
		}
		if r.MaxSlowdown < 1 {
			t.Errorf("%s: max slowdown %v < 1", r.Arch, r.MaxSlowdown)
		}
	}
	var buf bytes.Buffer
	if err := RenderTable3(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "worst CSR slowdown") {
		t.Error("render missing slowdown note")
	}
}

func TestTable4QuickRun(t *testing.T) {
	env := getEnv(t)
	opt := QuickOptions()
	// Restrict to one architecture's worth of work by reusing the env but
	// trimming the sweep for speed.
	opt.NCSweep = []int{16}
	rows, err := Table4(context.Background(), env, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*9 {
		t.Fatalf("%d rows, want 27", len(rows))
	}
	for _, r := range rows {
		if r.M.ACC <= 0 || r.M.ACC > 1 {
			t.Errorf("%s/%s: ACC %v out of range", r.Arch, r.Algo, r.M.ACC)
		}
		if r.M.MCC < -1 || r.M.MCC > 1 {
			t.Errorf("%s/%s: MCC %v out of range", r.Arch, r.Algo, r.M.MCC)
		}
		if r.NC <= 0 {
			t.Errorf("%s/%s: NC %d", r.Arch, r.Algo, r.NC)
		}
	}
	// The paper's headline comparison: K-Means at a controlled NC is at
	// least on par with Mean-Shift (at full scale Mean-Shift's automatic
	// bandwidth under-clusters badly; at this reduced scale a tie is
	// possible, so the assertion allows a small tolerance), and
	// Mean-Shift always finds fewer clusters than K-Means is given.
	for _, arch := range []string{"Pascal", "Volta", "Turing"} {
		bestKM, bestMS := -2.0, -2.0
		kmNC, msNC := 0, 0
		for _, r := range rows {
			if r.Arch != arch {
				continue
			}
			if strings.HasPrefix(r.Algo, "K-Means") && r.M.MCC > bestKM {
				bestKM = r.M.MCC
				kmNC = r.NC
			}
			if strings.HasPrefix(r.Algo, "Mean-Shift") && r.M.MCC > bestMS {
				bestMS = r.M.MCC
				msNC = r.NC
			}
		}
		if bestKM < bestMS-0.05 {
			t.Errorf("%s: best K-Means MCC %.3f well below best Mean-Shift %.3f", arch, bestKM, bestMS)
		}
		if msNC >= kmNC {
			t.Errorf("%s: Mean-Shift found %d clusters, not fewer than K-Means' %d", arch, msNC, kmNC)
		}
	}
	var buf bytes.Buffer
	if err := RenderTable4(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestTable5QuickRun(t *testing.T) {
	env := getEnv(t)
	opt := QuickOptions()
	opt.Folds = 2
	rows, err := Table5(context.Background(), env, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6*9 {
		t.Fatalf("%d rows, want 54", len(rows))
	}
	// Retraining should help on average (paper: moderate increase).
	var gain0, gain50 float64
	for _, r := range rows {
		gain0 += r.M[0].ACC
		gain50 += r.M[2].ACC
	}
	if gain50 < gain0-0.5 {
		t.Errorf("50%% retraining made things drastically worse: %.3f vs %.3f", gain50, gain0)
	}
	var buf bytes.Buffer
	if err := RenderTable5(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestTable6QuickRun(t *testing.T) {
	env := getEnv(t)
	opt := QuickOptions()
	rows, err := Table6(context.Background(), env, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*6 {
		t.Fatalf("%d rows, want 18", len(rows))
	}
	for _, r := range rows {
		if r.M.GT > 1+1e-9 {
			t.Errorf("%s/%s: GT %v exceeds the oracle", r.Arch, r.Model, r.M.GT)
		}
		if r.M.ACC < 0.3 {
			t.Errorf("%s/%s: ACC %.3f suspiciously low", r.Arch, r.Model, r.M.ACC)
		}
		if r.M.Threshold < 0 {
			t.Errorf("%s/%s: negative threshold", r.Arch, r.Model)
		}
	}
	var buf bytes.Buffer
	if err := RenderTable6(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestTable7QuickRun(t *testing.T) {
	env := getEnv(t)
	opt := QuickOptions()
	opt.Folds = 2
	rows, err := Table7(context.Background(), env, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5*5 {
		t.Fatalf("%d rows, want 25", len(rows))
	}
	// No Volta-to-Pascal pair, as in the paper.
	for _, r := range rows {
		if r.Pair == "Volta to Pascal" {
			t.Errorf("Table 7 must omit Volta to Pascal")
		}
		for _, m := range r.M {
			if m.GT > 1+1e-9 {
				t.Errorf("%s/%s: GT %v exceeds the oracle", r.Pair, r.Model, m.GT)
			}
		}
	}
	var buf bytes.Buffer
	if err := RenderTable7(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestTable8(t *testing.T) {
	env := getEnv(t)
	r := Table8(env)
	if r.ConversionCost["ELL"] != 102 || r.ConversionCost["HYB"] != 147 || r.ConversionCost["COO"] != 9 {
		t.Errorf("conversion costs %v", r.ConversionCost)
	}
	for _, a := range env.Archs {
		if r.Hours[a.Name] <= 0 {
			t.Errorf("%s: non-positive benchmarking hours", a.Name)
		}
	}
	var buf bytes.Buffer
	if err := RenderTable8(&buf, r); err != nil {
		t.Fatal(err)
	}
}

func TestTable9(t *testing.T) {
	env := getEnv(t)
	opt := QuickOptions()
	opt.CNNEpochs = 1
	rows, err := Table9(context.Background(), env, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d rows, want 9", len(rows))
	}
	byName := map[string][3]float64{}
	for _, r := range rows {
		byName[r.Model] = r.Secs
		for _, s := range r.Secs {
			if s < 0 {
				t.Errorf("%s: negative time", r.Model)
			}
		}
	}
	// The reproducible ordering claim: CNN is the costliest model even at
	// one epoch.
	cnn := byName["CNN"][0]
	km := byName["K-Means-VOTE"][0]
	if cnn <= km {
		t.Errorf("CNN (%.3fs) should cost more than K-Means-VOTE (%.3fs)", cnn, km)
	}
	var buf bytes.Buffer
	if err := RenderTable9(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestRenderStaticTables(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderTable1(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "csr_max") {
		t.Error("Table 1 render missing features")
	}
	buf.Reset()
	if err := RenderTable2(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"GTX 1080", "V100", "RTX 8000"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table 2 render missing %q", want)
		}
	}
}

func TestCombosNaming(t *testing.T) {
	combos := Combos()
	if len(combos) != 9 {
		t.Fatalf("%d combos", len(combos))
	}
	names := map[string]bool{}
	for _, c := range combos {
		names[c.Name()] = true
	}
	for _, want := range []string{"K-Means-VOTE", "Mean-Shift-LR", "Birch-RF"} {
		if !names[want] {
			t.Errorf("missing combo %q", want)
		}
	}
}

// renderComputedTables renders tables 3-8 into one buffer — everything
// the scheduler parallelises. Table 9 is excluded on purpose: its rows
// are wall-clock training timings, never byte-stable across runs.
func renderComputedTables(t *testing.T, env *Env, opt Options) string {
	t.Helper()
	ctx := context.Background()
	var buf bytes.Buffer
	if err := RenderTable3(&buf, Table3(env)); err != nil {
		t.Fatal(err)
	}
	rows4, err := Table4(ctx, env, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderTable4(&buf, rows4); err != nil {
		t.Fatal(err)
	}
	rows5, err := Table5(ctx, env, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderTable5(&buf, rows5); err != nil {
		t.Fatal(err)
	}
	rows6, err := Table6(ctx, env, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderTable6(&buf, rows6); err != nil {
		t.Fatal(err)
	}
	rows7, err := Table7(ctx, env, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderTable7(&buf, rows7); err != nil {
		t.Fatal(err)
	}
	if err := RenderTable8(&buf, Table8(env)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTablesDeterministicAcrossWorkers is the scheduler's contract: the
// rendered tables are byte-identical whether the CV cells run strictly
// sequentially (worker cap 1) or fanned out over 8 workers. GOMAXPROCS
// is raised so the 8-worker pass exercises real goroutine interleaving
// even on a single-CPU host.
func TestTablesDeterministicAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	env := getEnv(t)
	opt := QuickOptions()

	seq := func() string {
		prev := obs.SetMaxWorkers(1)
		defer obs.SetMaxWorkers(prev)
		return renderComputedTables(t, env, opt)
	}()

	parOut := renderComputedTables(t, env, opt)
	if seq != parOut {
		t.Fatalf("tables differ between workers=1 and workers=8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, parOut)
	}
}

// TestTablesHonourCancelledContext checks first-error/cancellation
// propagation through the scheduler for every scheduled table.
func TestTablesHonourCancelledContext(t *testing.T) {
	env := getEnv(t)
	opt := QuickOptions()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Table4(ctx, env, opt); err == nil {
		t.Fatal("Table4: no error from cancelled context")
	}
	if _, err := Table5(ctx, env, opt); err == nil {
		t.Fatal("Table5: no error from cancelled context")
	}
	if _, err := Table6(ctx, env, opt); err == nil {
		t.Fatal("Table6: no error from cancelled context")
	}
	if _, err := Table7(ctx, env, opt); err == nil {
		t.Fatal("Table7: no error from cancelled context")
	}
}
