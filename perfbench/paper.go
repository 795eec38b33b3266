package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/features"
	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/semisup"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// paperRun is one iteration of the paper pipeline.
type paperRun struct {
	SetupS, WallS, PeakMB float64
	// GCFrac and AllocMB are the pipeline's GC share of CPU and heap
	// allocation.
	GCFrac, AllocMB float64
	// SelectMs is each corpus matrix's fastest selection over the
	// selection passes.
	SelectMs []float64
	Table9   []eval.Table9Row
	Got      paperDigests
	Spans    []*obs.SpanData `json:",omitempty"`
}

const (
	// paperIterations is how many pipeline iterations an untraced run
	// makes. Two iterations' best still moved by 0.09-0.23 (quartile
	// distance over median) between runs on the calibration host.
	paperIterations = 3
	// selectionPasses is how many times the selection pass times every
	// corpus matrix; each matrix's fastest pass is its latency.
	selectionPasses = 5
	// selectionPause separates the passes. On the calibration host the
	// selection rate drifted by up to 25% within a second or two, so
	// back-to-back passes all ran at the same rate; spaced passes see
	// several.
	selectionPause = 750 * time.Millisecond
)

// runPaper is `spmvselect table -n 9` at paper scale: eval.NewEnv
// builds the corpus, Tables 3 and 8 are rendered for the answer check,
// and eval.Table9 fits every model at n, 1.25n and 1.5n. Each iteration
// runs in a fresh process, as every `table` invocation does; a run makes
// paperIterations of them, a fixed number so that best-of-N compares
// like with like.
// After each pipeline a selection pass times format selection
// (features.Extract → Artifact.Predict with a K-Means-VOTE model fitted
// on the pipeline's data) for every corpus matrix: the paper's online
// selection cost, which p50_ms reports for this workload.
func runPaper(env *runEnv) (*outcome, error) {
	seed := env.cfg.corpusSeed(env.seed)
	want, ok := env.cfg.digests(seed)
	if !ok {
		return nil, fmt.Errorf("config.json records no answers for corpus seed %d", seed)
	}
	fmt.Fprintf(env.log, "paper: corpus seed %d\n", seed)
	o := &outcome{}
	iterate := func(traced bool) (*paperRun, error) {
		r, err := paperChild(env.log, seed, traced)
		if err != nil {
			return nil, err
		}
		o.Attempted += int64(1 + len(r.SelectMs))
		checkPaper(o, seed, r.Got, want)
		fmt.Fprintf(env.log, "paper: traced=%v setup %.3fs wall %.3fs peak heap %.0f MB\n", traced, r.SetupS, r.WallS, r.PeakMB)
		return r, nil
	}
	if env.trace {
		plain, err := iterate(false)
		if err != nil {
			return nil, err
		}
		traced, err := iterate(true)
		if err != nil {
			return nil, err
		}
		o.EndToEnd = paperMetrics([]*paperRun{plain})
		o.Traced = paperMetrics([]*paperRun{traced})
		o.PerLayer = paperLayers(traced)
		o.Spans, traced.Spans = traced.Spans, nil
		o.Details = []*paperRun{plain, traced}
		return o, nil
	}
	var runs []*paperRun
	for i := 0; i < paperIterations; i++ {
		r, err := iterate(false)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	o.EndToEnd = paperMetrics(runs)
	o.Details = runs
	return o, nil
}

// paperChild runs one iteration in a fresh process of this binary.
func paperChild(log io.Writer, corpusSeed int64, traced bool) (*paperRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--paper-iteration", strconv.FormatInt(corpusSeed, 10), "--trace", trace)
	cmd.Stderr = log
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("paper iteration: %w", err)
	}
	var r paperRun
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("paper iteration output: %w", err)
	}
	return &r, nil
}

// checkPaper compares an iteration's answer digests with the recorded ones.
func checkPaper(o *outcome, corpusSeed int64, got, want paperDigests) {
	for _, f := range []struct{ name, got, want string }{
		{"corpus", got.Corpus, want.Corpus},
		{"table3", got.Table3, want.Table3},
		{"table8", got.Table8, want.Table8},
		{"selections", got.Selections, want.Selections},
	} {
		if f.got != f.want {
			o.mismatch("paper corpus seed %d: %s digest %s, want %s", corpusSeed, f.name, f.got, f.want)
		}
	}
}

// paperMetrics reduces iterations to the end-to-end metrics: the best
// (lowest) over the iterations, since other tenants of a shared host
// only ever slow an iteration down and the fastest is the closest to
// the program's own cost. p50_ms is the median over the corpus
// matrices of each matrix's fastest selection in any iteration.
func paperMetrics(runs []*paperRun) map[string]float64 {
	m := map[string]float64{}
	fastest := append([]float64(nil), runs[0].SelectMs...)
	for i, r := range runs {
		for k, v := range map[string]float64{"setup_s": r.SetupS, "wall_s": r.WallS, "peak_heap_mb": r.PeakMB} {
			if i == 0 || v < m[k] {
				m[k] = v
			}
		}
		for j, v := range r.SelectMs {
			fastest[j] = min(fastest[j], v)
		}
	}
	m["p50_ms"] = median(fastest)
	return m
}

// paperLayers reads the per-layer metrics off a traced iteration.
func paperLayers(r *paperRun) map[string]float64 {
	m := map[string]float64{
		"dataset.generate_s":        spanSeconds(r.Spans, "generate"),
		"dataset.generate_alloc_mb": spanAllocMB(r.Spans, "generate"),
		"dataset.build_s":           spanSeconds(r.Spans, "features") + spanSeconds(r.Spans, "label/*"),
		"features.extract_s":        spanSeconds(r.Spans, "features.ExtractAll"),
		"gpusim.label_s":            spanSeconds(r.Spans, "gpusim.label"),
		"classify.images_s":         spanSeconds(r.Spans, "images"),
		"eval.table9_s":             spanSeconds(r.Spans, "eval.Table9"),
	}
	for _, row := range r.Table9 {
		secs := row.Secs[0] + row.Secs[1] + row.Secs[2]
		switch {
		case row.Model == "CNN":
			m["classify.cnn_fit_s"] += secs
		case strings.HasPrefix(row.Model, "K-Means-"):
			m["semisup.fit_s"] += secs
		default:
			m["classify.fit_s"] += secs
		}
	}
	m["runtime.gc_cpu_frac"], m["runtime.alloc_mb"] = r.GCFrac, r.AllocMB
	return m
}

// paperIteration runs the pipeline once and computes its answer digests.
func paperIteration(opt eval.Options, tr tracer) (*paperRun, error) {
	runtime.GC()
	ctx, root := tr.start(context.Background(), "perfbench/paper")
	pctx, psp := tr.start(ctx, "pipeline")
	rt0 := readRuntime()
	heap := watchHeap()
	t0 := time.Now()
	env, err := newEnv(pctx, tr.on, opt)
	if err != nil {
		heap.Stop()
		return nil, err
	}
	setup := time.Since(t0)
	var t3, t8 bytes.Buffer
	_, sp := tr.start(pctx, "eval.Table3")
	err = eval.RenderTable3(&t3, eval.Table3(env))
	sp.End()
	var r8 eval.Table8Result
	if err == nil {
		_, sp = tr.start(pctx, "eval.Table8")
		r8 = eval.Table8(env)
		err = eval.RenderTable8(&t8, r8)
		sp.End()
	}
	var rows []eval.Table9Row
	if err == nil {
		_, sp = tr.start(pctx, "eval.Table9")
		rows, err = eval.Table9(context.Background(), env, opt)
		sp.End()
	}
	if err == nil {
		err = eval.RenderTable9(io.Discard, rows)
	}
	wall := time.Since(t0)
	peak := heap.Stop()
	gc, alloc := readRuntime().sub(rt0)
	psp.SetMetric("gc_cpu_frac", gc)
	psp.SetMetric("alloc_mb", alloc)
	psp.End()
	if err != nil {
		return nil, err
	}
	r := &paperRun{SetupS: setup.Seconds(), WallS: wall.Seconds(), PeakMB: peak, GCFrac: gc, AllocMB: alloc, Table9: rows}
	r.Got.Table3 = digest(t3.Bytes())
	r.Got.Table8 = table8Digest(t8.Bytes(), r8)
	r.Got.Corpus = corpusDigest(env.Corpus.Items)
	if err := selectionPass(ctx, tr, env, opt, r); err != nil {
		return nil, err
	}
	if tr.on {
		// Direct calls into the layers eval.NewEnv runs fused inside
		// dataset.Build, outside the timed pipeline.
		mats := make([]*sparse.CSR, len(env.Corpus.Items))
		for i, it := range env.Corpus.Items {
			mats[i] = it.Matrix
		}
		_, sp := tr.start(ctx, "features.ExtractAll")
		features.ExtractAll(mats)
		sp.End()
		_, sp = tr.start(ctx, "gpusim.label")
		for _, it := range env.Corpus.Items {
			p := gpusim.NewProfile(it.Matrix)
			for _, a := range env.Archs {
				a.Measure(it.Name, p)
			}
		}
		sp.End()
		r.Spans = []*obs.SpanData{root.EndData()}
	}
	return r, nil
}

// newEnv runs eval.NewEnv. Traced, it registers a sink for the call,
// so the spans NewEnv and dataset.Build open themselves (generate,
// features, label/<arch>, common, images) join the tree of the span ctx
// carries, and removes it again: the rest of the pipeline runs with the
// program's instrumentation off, as in the untraced pass.
func newEnv(ctx context.Context, traced bool, opt eval.Options) (*eval.Env, error) {
	if traced {
		obs.SetSink(nopSink{})
		defer obs.SetSink(nil)
	}
	return eval.NewEnv(ctx, opt)
}

// nopSink turns on the program's own spans. Each reaches the
// benchmark's tree through its parent, so the sink keeps none.
type nopSink struct{}

func (nopSink) SpanEnded(*obs.SpanData) {}

// selectionPass fits the paper's K-Means-VOTE selector on the common
// subset Table 9 trains on, then selects a format for every corpus
// matrix one at a time, timing each selection, selectionPasses times.
func selectionPass(ctx context.Context, tr tracer, env *eval.Env, opt eval.Options, r *paperRun) error {
	d := env.Common[env.Archs[0].Name]
	model, err := semisup.Train(d.Feats, d.Labels, sparse.NumKernelFormats, semisup.Config{
		Algorithm: semisup.AlgoKMeans, Rule: semisup.RuleVote, NumClusters: opt.TransferNC, Seed: opt.Seed,
	})
	if err != nil {
		return fmt.Errorf("training the selection model: %w", err)
	}
	art := serve.NewSemisupArtifact(model, env.Archs[0].Name)
	// Collect the pipeline's garbage first, so no GC cycle it left
	// owing runs during the timed selections.
	runtime.GC()
	_, sp := tr.start(ctx, "selection")
	defer sp.End()
	var s features.Scratch
	items := env.Corpus.Items
	formats := make([]string, len(items))
	times := make([][]float64, len(items))
	for pass := 0; pass < selectionPasses; pass++ {
		if pass > 0 {
			time.Sleep(selectionPause)
		}
		for i, it := range items {
			t0 := time.Now()
			vec := s.Extract(it.Matrix)
			pred, err := art.Predict(vec[:])
			times[i] = append(times[i], ms(time.Since(t0)))
			if err != nil {
				return fmt.Errorf("selecting a format for %s: %w", it.Name, err)
			}
			if pass > 0 && pred.Format != formats[i] {
				return fmt.Errorf("selection for %s changed between passes: %s, then %s", it.Name, formats[i], pred.Format)
			}
			formats[i] = pred.Format
		}
	}
	r.SelectMs = make([]float64, len(items))
	for i, t := range times {
		r.SelectMs[i] = sorted(t)[0]
	}
	r.Got.Selections = digest([]byte(strings.Join(formats, "\n")))
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// table8Digest is the SHA-256 over the rendered Table 8 and its values
// at full precision, in sorted key order: the rendering rounds the
// benchmarking hours, the only figures that depend on the corpus, to
// whole hours.
func table8Digest(text []byte, r eval.Table8Result) string {
	h := sha256.New()
	h.Write(text)
	var buf []byte
	for _, m := range []map[string]float64{r.ConversionCost, r.Hours} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			buf = append(append(buf, k...), 0)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m[k]))
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// corpusDigest is the SHA-256 over every item's name and CSR arrays, in
// corpus order, each array prefixed by its length.
func corpusDigest(items []dataset.Item) string {
	h := sha256.New()
	var buf []byte
	for _, it := range items {
		h.Write([]byte(it.Name))
		h.Write([]byte{0})
		buf = appendInt32s(buf[:0], it.Matrix.RowPtr())
		buf = appendInt32s(buf, it.Matrix.ColIdx())
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(it.Matrix.Values())))
		for _, v := range it.Matrix.Values() {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func appendInt32s(buf []byte, xs []int32) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
	}
	return buf
}

// paperIterationJSON runs one iteration on a corpus seed and writes it
// as JSON, for paperChild.
func paperIterationJSON(w io.Writer, corpusSeed int64, traced bool) error {
	opt := eval.PaperOptions()
	opt.Dataset.Seed = corpusSeed
	r, err := paperIteration(opt, tracer{on: traced})
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(r)
}

// recordDigests prints the answer digests of the given paper corpus
// seeds in config.json's format.
func recordDigests(w io.Writer, seedList string) error {
	out := map[string]paperDigests{}
	for _, f := range strings.Split(seedList, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("--record-digests: %w", err)
		}
		opt := eval.PaperOptions()
		opt.Dataset.Seed = seed
		r, err := paperIteration(opt, tracer{})
		if err != nil {
			return err
		}
		out[strconv.FormatInt(seed, 10)] = r.Got
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
