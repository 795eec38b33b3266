// Command spmvselect is the experiment driver for the sparse-format
// selection reproduction: it regenerates every table of the paper,
// exports the synthetic matrix collection, and recommends storage
// formats for MatrixMarket files.
//
// Usage:
//
//	spmvselect table -n <1..9> [-quick]   regenerate one paper table
//	spmvselect tables [-quick]            regenerate every table
//	spmvselect export -dir DIR [-count N] write the collection as .mtx
//	spmvselect predict -mtx FILE [-arch Turing] [-quick]
//	                                      recommend a format for a matrix
//	spmvselect train -save FILE           fit the pipeline once and save the
//	                                      full artifact (model + fitted
//	                                      preprocessing + label mapping)
//	spmvselect serve -models arch=path,.. host one saved artifact per target
//	                                      architecture over HTTP until SIGTERM,
//	                                      with hot-reload (SIGHUP or the admin
//	                                      API) and shadow evaluation
//	spmvselect request -addr HOST:PORT    post one prediction (or batch, or
//	                                      admin call) to a running serve
//	spmvselect promote -addr HOST:PORT    flip an arch's shadow candidate to
//	                                      live through the admin API
//	spmvselect proxy -fleet H:P,H:P,...   front a fleet of serve replicas with
//	                                      consistent-hash routing, health
//	                                      ejection and hedged retries
//	spmvselect rollout -fleet ... -artifact FILE
//	                                      push a candidate to every replica's
//	                                      shadow slot and promote fleet-wide
//	                                      once all clear the agreement bar
//	spmvselect benchfleet                 measure 1-replica vs N-replica
//	                                      throughput through the proxy,
//	                                      gating on byte-identical answers
//	                                      (BENCH_fleet.json)
//	spmvselect monitor -addr HOST:PORT    poll a running serve instance's
//	                                      /metrics, SLO and drift endpoints and
//	                                      render a terminal status table
//	spmvselect replay -dir DIR -addr ...  play a serve -record capture back
//	                                      against a live server, diffing the
//	                                      replayed predictions vs the recording
//	spmvselect benchserve                 measure single-request vs batched
//	                                      serving throughput (BENCH_serve.json)
//	spmvselect benchparse                 measure the streaming MatrixMarket
//	                                      reader vs the byte-slice fast path,
//	                                      gating on bit-identical output
//	                                      (BENCH_parse.json)
//	spmvselect benchreplay                record, feedback and replay a known
//	                                      request mix, gating on reproduced
//	                                      predictions (BENCH_replay.json)
//	spmvselect cpubench -dir DIR          run the pipeline on real measured
//	                                      host-CPU SpMV times over a
//	                                      directory of .mtx(.gz) files
//	spmvselect report                     print the run report of the last
//	                                      instrumented (-obs) run
//	spmvselect trace -addr HOST:PORT      list a serve replica's or proxy's
//	                                      retained request traces, or render
//	                                      one stitched trace as a span tree
//	spmvselect benchtrace                 measure tracing-on vs tracing-off
//	                                      predict latency, merging the gated
//	                                      comparison into BENCH_obs.json
//
// The table, tables and cpubench subcommands accept -obs ADDR, which
// turns on the internal/obs pipeline instrumentation, serves expvar and
// net/http/pprof on ADDR (":0" picks a free port) for the duration of
// the run, and writes a machine-readable run report (-report PATH,
// default obs-run.json) with per-stage span timings and the
// kernel-throughput histograms.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cpubench"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sparse"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "table":
		err = cmdTable(os.Args[2:], false)
	case "tables":
		err = cmdTable(os.Args[2:], true)
	case "export":
		err = cmdExport(os.Args[2:])
	case "predict":
		err = cmdPredict(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "request":
		err = cmdRequest(os.Args[2:])
	case "proxy":
		err = cmdProxy(os.Args[2:])
	case "rollout":
		err = cmdRollout(os.Args[2:])
	case "benchfleet":
		err = cmdBenchFleet(os.Args[2:])
	case "promote":
		err = cmdPromote(os.Args[2:])
	case "monitor":
		err = cmdMonitor(os.Args[2:])
	case "benchserve":
		err = cmdBenchServe(os.Args[2:])
	case "benchparse":
		err = cmdBenchParse(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "benchreplay":
		err = cmdBenchReplay(os.Args[2:])
	case "cpubench":
		err = cmdCPUBench(os.Args[2:])
	case "benchpar":
		err = cmdBenchPar(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "benchtrace":
		err = cmdBenchTrace(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmvselect:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  spmvselect table -n <1..9> [-quick] [-workers N] [-obs ADDR] [-report PATH]
  spmvselect tables [-quick] [-workers N] [-obs ADDR] [-report PATH]
  spmvselect benchpar [-workers N] [-quick] [-out PATH] [-min-speedup X]
  spmvselect export -dir DIR [-count N] [-seed S]
  spmvselect predict -mtx FILE [-model FILE | -arch Turing [-quick]]
  spmvselect train -save FILE [-arch Turing] [-model semisup|knn|tree|forest|logreg] [-clusters K] [-quick]
             [-cascade [-cascade-target-agreement X] [-cascade-model logreg|forest]]
  spmvselect serve (-model FILE | -models arch=path,...) [-shadow arch=path,...] [-default-arch A]
             [-admin-token T] [-addr :8080] [-portfile PATH] [-max-concurrent N] [-max-batch N]
             [-feat-memo N] [-timeout D] [-obs ADDR] [-access-log PATH] [-access-log-sample N]
             [-slo-target X] [-record DIR] [-record-max-mb N]
             [-trace N] [-trace-slow D] [-trace-sample N] [-debug-dir DIR] [-burn-threshold X]
  spmvselect request -addr HOST:PORT (-mtx FILE | -batch "f1,f2,..." | -features "v1,v2,..." | -get PATH | -post PATH [-json BODY]) [-arch A] [-token T] [-request-id ID] [-timeout D] [-retries N] [-keep-trace] [-v]
  spmvselect promote -addr HOST:PORT -token T [-arch A]
  spmvselect proxy -fleet "H:P,H:P,..." [-addr :8080] [-portfile PATH] [-vnodes N] [-timeout D]
             [-hedge-after D] [-health-interval D] [-max-backoff D]
             [-admin-token T] [-trace N] [-trace-slow D] [-trace-sample N]
  spmvselect rollout -fleet "H:P,..." -artifact FILE -token T [-arch A] [-threshold X] [-min-scored N]
             [-drive DIR] [-timeout D] [-poll D] [-q]
  spmvselect benchfleet [-replicas N] [-matrices N] [-rounds N] [-out PATH] [-min-speedup X]
  spmvselect monitor -addr HOST:PORT [-token T] [-interval D] [-once]
  spmvselect replay -dir DIR -addr HOST:PORT [-concurrency N] [-rate R] [-arch-skew "a=w,..."] [-out PATH]
  spmvselect benchserve [-matrices N] [-batch N] [-rounds N] [-out PATH] [-min-speedup X]
  spmvselect benchparse [-matrices N | -dir DIR] [-rounds N] [-out PATH] [-min-speedup X] [-max-alloc-frac X]
  spmvselect benchreplay [-singles N] [-batches N] [-batch-size N] [-concurrency N] [-out PATH] [-min-speedup X]
  spmvselect cpubench -dir DIR [-trials N] [-clusters K] [-quick] [-obs ADDR] [-report PATH]
  spmvselect report [-in PATH] [-text]
  spmvselect trace -addr HOST:PORT [-id TRACE] [-token T] [-json] [-timeout D]
  spmvselect benchtrace [-matrices N] [-rounds N] [-out PATH] [-max-overhead X]`)
}

func options(quick bool) eval.Options {
	if quick {
		return eval.QuickOptions()
	}
	return eval.PaperOptions()
}

// startObs turns observability on when addr is non-empty: it installs a
// span collector as the sink, serves expvar and net/http/pprof on addr,
// and returns a finish func that tears both down and writes the run
// report. With addr == "" both the returned finish and the run stay
// no-ops.
func startObs(command string, args []string, addr, reportPath string) (func() error, error) {
	if addr == "" {
		return func() error { return nil }, nil
	}
	col := obs.NewCollector()
	obs.SetSink(col)
	bound, stop, err := obs.Serve(addr)
	if err != nil {
		obs.SetSink(nil)
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "obs: serving expvar and pprof on http://%s/debug/\n", bound)
	return func() error {
		obs.SetSink(nil)
		if err := stop(); err != nil {
			return err
		}
		if err := obs.WriteReport(reportPath, col.Report(command, args)); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "obs: run report written to %s\n", reportPath)
		return nil
	}, nil
}

// calibrateKernels runs a short measured SpMV sweep over a handful of
// generated matrices so an instrumented run always carries
// kernel-throughput histograms — the simulator-backed tables never
// execute a real kernel.
func calibrateKernels(ctx context.Context) error {
	_, span := obs.Start(ctx, "calibrate")
	defer span.End()
	items, err := dataset.Generate(dataset.Config{
		Seed: 7, BaseCount: 8, Scale: 0.3, DropELLFailures: true,
	})
	if err != nil {
		return fmt.Errorf("calibrating kernels: %w", err)
	}
	for _, it := range items {
		if _, err := cpubench.Measure(it.Matrix, 2); err != nil {
			return fmt.Errorf("calibrating kernels: %w", err)
		}
	}
	span.SetMetric("matrices", float64(len(items)))
	return nil
}

func cmdTable(args []string, all bool) error {
	fs := flag.NewFlagSet("table", flag.ExitOnError)
	n := fs.Int("n", 0, "table number (1-9)")
	quick := fs.Bool("quick", false, "reduced dataset and folds for a fast run")
	workers := fs.Int("workers", 0, "parallel workers across the whole pipeline (0 = GOMAXPROCS)")
	obsAddr := fs.String("obs", "", "enable instrumentation and serve expvar+pprof on this address (:0 picks a port)")
	reportPath := fs.String("report", obs.DefaultReportPath, "run-report path (used with -obs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if all {
		*n = 0
	} else if *n < 1 || *n > 9 {
		return fmt.Errorf("table number %d outside 1..9", *n)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers %d: must be >= 0", *workers)
	}
	opt := options(*quick)
	if *workers > 0 {
		// Cap the shared obs pool, not just the scheduler, so -workers 1
		// yields a genuinely sequential run all the way down (K-Means,
		// forest training, feature extraction).
		obs.SetMaxWorkers(*workers)
		opt.Workers = *workers
	}

	command := "table"
	if all {
		command = "tables"
	}
	finish, err := startObs(command, args, *obsAddr, *reportPath)
	if err != nil {
		return err
	}
	ctx := context.Background()

	want := func(k int) bool { return all || *n == k }

	if want(1) {
		if err := eval.RenderTable1(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	if want(2) {
		if err := eval.RenderTable2(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	if !all && *n <= 2 {
		return finish()
	}

	if *obsAddr != "" {
		if err := calibrateKernels(ctx); err != nil {
			return err
		}
	}

	tm := obs.StartTimer("cmd/corpus")
	fmt.Fprintf(os.Stderr, "building corpus (quick=%v)...\n", *quick)
	env, err := eval.NewEnv(ctx, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "corpus ready in %v\n", tm.Stop().Round(time.Millisecond))

	run := func(k int, f func() error) error {
		if !want(k) {
			return nil
		}
		t := obs.StartTimer(fmt.Sprintf("cmd/table%d", k))
		if err := f(); err != nil {
			return fmt.Errorf("table %d: %w", k, err)
		}
		fmt.Fprintf(os.Stderr, "table %d done in %v\n", k, t.Stop().Round(time.Millisecond))
		fmt.Println()
		return nil
	}

	if err := run(3, func() error { return eval.RenderTable3(os.Stdout, eval.Table3(env)) }); err != nil {
		return err
	}
	if err := run(4, func() error {
		rows, err := eval.Table4(ctx, env, opt)
		if err != nil {
			return err
		}
		return eval.RenderTable4(os.Stdout, rows)
	}); err != nil {
		return err
	}
	if err := run(5, func() error {
		rows, err := eval.Table5(ctx, env, opt)
		if err != nil {
			return err
		}
		return eval.RenderTable5(os.Stdout, rows)
	}); err != nil {
		return err
	}
	if err := run(6, func() error {
		rows, err := eval.Table6(ctx, env, opt)
		if err != nil {
			return err
		}
		return eval.RenderTable6(os.Stdout, rows)
	}); err != nil {
		return err
	}
	if err := run(7, func() error {
		rows, err := eval.Table7(ctx, env, opt)
		if err != nil {
			return err
		}
		return eval.RenderTable7(os.Stdout, rows)
	}); err != nil {
		return err
	}
	if err := run(8, func() error { return eval.RenderTable8(os.Stdout, eval.Table8(env)) }); err != nil {
		return err
	}
	if err := run(9, func() error {
		rows, err := eval.Table9(ctx, env, opt)
		if err != nil {
			return err
		}
		return eval.RenderTable9(os.Stdout, rows)
	}); err != nil {
		return err
	}
	return finish()
}

// parallelBench is the committed record of one benchpar run
// (BENCH_parallel.json): the same quick-scale tables rendered
// sequentially and through the parallel scheduler, byte-compared.
type parallelBench struct {
	CPUs              int     `json:"cpus"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	Workers           int     `json:"workers"`
	Quick             bool    `json:"quick"`
	SequentialSeconds float64 `json:"sequential_seconds"`
	ParallelSeconds   float64 `json:"parallel_seconds"`
	Speedup           float64 `json:"speedup"`
	IdenticalOutput   bool    `json:"identical_output"`
}

// cmdBenchPar times tables 3-8 rendered sequentially (-workers 1) and
// through the parallel scheduler, verifies the two outputs are
// byte-identical, and writes the measurement as JSON. It fails when the
// outputs differ or the speedup falls below the gate, so CI catches both
// determinism and performance regressions.
func cmdBenchPar(args []string) error {
	fs := flag.NewFlagSet("benchpar", flag.ExitOnError)
	workers := fs.Int("workers", 8, "parallel worker count to compare against sequential")
	quick := fs.Bool("quick", true, "use the quick-scale corpus and folds")
	out := fs.String("out", "BENCH_parallel.json", "output JSON path")
	minSpeedup := fs.Float64("min-speedup", 0,
		"fail below this sequential/parallel speedup; 0 picks 3.0 when the host has >= workers CPUs and 0.80 otherwise")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 2 {
		return fmt.Errorf("benchpar: -workers %d: need >= 2 to compare against sequential", *workers)
	}
	opt := options(*quick)
	ctx := context.Background()
	fmt.Fprintf(os.Stderr, "building corpus (quick=%v)...\n", *quick)
	env, err := eval.NewEnv(ctx, opt)
	if err != nil {
		return err
	}

	renderAll := func(w int) (string, time.Duration, error) {
		prev := obs.SetMaxWorkers(w)
		defer obs.SetMaxWorkers(prev)
		o := opt
		o.Workers = w
		var buf bytes.Buffer
		start := time.Now()
		if err := eval.RenderTable3(&buf, eval.Table3(env)); err != nil {
			return "", 0, err
		}
		rows4, err := eval.Table4(ctx, env, o)
		if err != nil {
			return "", 0, err
		}
		if err := eval.RenderTable4(&buf, rows4); err != nil {
			return "", 0, err
		}
		rows5, err := eval.Table5(ctx, env, o)
		if err != nil {
			return "", 0, err
		}
		if err := eval.RenderTable5(&buf, rows5); err != nil {
			return "", 0, err
		}
		rows6, err := eval.Table6(ctx, env, o)
		if err != nil {
			return "", 0, err
		}
		if err := eval.RenderTable6(&buf, rows6); err != nil {
			return "", 0, err
		}
		rows7, err := eval.Table7(ctx, env, o)
		if err != nil {
			return "", 0, err
		}
		if err := eval.RenderTable7(&buf, rows7); err != nil {
			return "", 0, err
		}
		if err := eval.RenderTable8(&buf, eval.Table8(env)); err != nil {
			return "", 0, err
		}
		return buf.String(), time.Since(start), nil
	}

	fmt.Fprintln(os.Stderr, "sequential pass (workers=1)...")
	seqOut, seqDur, err := renderAll(1)
	if err != nil {
		return fmt.Errorf("benchpar: sequential pass: %w", err)
	}
	fmt.Fprintf(os.Stderr, "sequential: %v\nparallel pass (workers=%d)...\n",
		seqDur.Round(time.Millisecond), *workers)
	parOut, parDur, err := renderAll(*workers)
	if err != nil {
		return fmt.Errorf("benchpar: parallel pass: %w", err)
	}
	fmt.Fprintf(os.Stderr, "parallel:   %v\n", parDur.Round(time.Millisecond))

	res := parallelBench{
		CPUs:              runtime.NumCPU(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Workers:           *workers,
		Quick:             *quick,
		SequentialSeconds: seqDur.Seconds(),
		ParallelSeconds:   parDur.Seconds(),
		Speedup:           seqDur.Seconds() / parDur.Seconds(),
		IdenticalOutput:   seqOut == parOut,
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchpar: %d cpus, %d workers: %.2fs sequential, %.2fs parallel (%.2fx), identical=%v -> %s\n",
		res.CPUs, res.Workers, res.SequentialSeconds, res.ParallelSeconds, res.Speedup, res.IdenticalOutput, *out)

	if !res.IdenticalOutput {
		return fmt.Errorf("benchpar: parallel output differs from sequential output")
	}
	gate := *minSpeedup
	if gate == 0 {
		if res.CPUs >= *workers {
			gate = 3.0
		} else {
			// Fewer CPUs than workers: parallelism cannot pay for
			// itself (oversubscribed goroutines share the same cores
			// and fight over cache), so only guard against the
			// scheduler making the run pathologically slower than
			// sequential.
			gate = 0.80
		}
	}
	if res.Speedup < gate {
		return fmt.Errorf("benchpar: speedup %.2fx below the %.2fx gate", res.Speedup, gate)
	}
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	dir := fs.String("dir", "", "output directory (required)")
	count := fs.Int("count", 50, "number of base matrices")
	seed := fs.Int64("seed", 1, "generator seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("export: -dir is required")
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	items, err := dataset.Generate(dataset.Config{
		Seed: *seed, BaseCount: *count, Scale: 0.5, DropELLFailures: true,
	})
	if err != nil {
		return err
	}
	for _, it := range items {
		path := filepath.Join(*dir, it.Name+".mtx")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := sparse.WriteMatrixMarket(f, it.Matrix); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d matrices to %s\n", len(items), *dir)
	return nil
}

// cmdCPUBench runs the whole pipeline on a directory of MatrixMarket
// files with genuinely measured host-CPU SpMV times: measure each matrix
// in every format, train the semi-supervised selector on a 70% split,
// and report held-out accuracy and speedups. This is the command to
// point at a directory of real SuiteSparse downloads (.mtx or .mtx.gz).
func cmdCPUBench(args []string) error {
	fs := flag.NewFlagSet("cpubench", flag.ExitOnError)
	dir := fs.String("dir", "", "directory of .mtx / .mtx.gz files (required)")
	trials := fs.Int("trials", 5, "SpMV repetitions per kernel")
	clusters := fs.Int("clusters", 40, "number of K-Means clusters")
	quick := fs.Bool("quick", false, "fewer trials and clusters for a fast smoke run")
	obsAddr := fs.String("obs", "", "enable instrumentation and serve expvar+pprof on this address (:0 picks a port)")
	reportPath := fs.String("report", obs.DefaultReportPath, "run-report path (used with -obs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("cpubench: -dir is required")
	}
	if *quick {
		// Explicit -trials / -clusters win over the quick defaults.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["trials"] {
			*trials = 2
		}
		if !set["clusters"] {
			*clusters = 8
		}
	}
	finish, err := startObs("cpubench", args, *obsAddr, *reportPath)
	if err != nil {
		return err
	}
	ctx, span := obs.Start(context.Background(), "cpubench")
	err = runCPUBench(ctx, *dir, *trials, *clusters)
	span.End()
	if err != nil {
		return err
	}
	return finish()
}

func runCPUBench(ctx context.Context, dirPath string, trials, clusters int) error {
	entries, err := os.ReadDir(dirPath)
	if err != nil {
		return err
	}
	var names []string
	var ms []*sparse.CSR
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".mtx") && !strings.HasSuffix(name, ".mtx.gz") {
			continue
		}
		m, err := sparse.ReadMatrixMarketFile(filepath.Join(dirPath, name))
		if err != nil {
			fmt.Fprintf(os.Stderr, "skipping %s: %v\n", name, err)
			continue
		}
		names = append(names, name)
		ms = append(ms, m)
	}
	if len(ms) < 10 {
		return fmt.Errorf("cpubench: only %d readable matrices in %s; need >= 10", len(ms), dirPath)
	}
	fmt.Printf("measuring %d matrices x %d formats (%d trials each)...\n",
		len(ms), sparse.NumKernelFormats, trials)
	_, msp := obs.Start(ctx, "measure")
	lab, dropped, err := cpubench.MeasureAll(names, ms, trials)
	msp.SetMetric("matrices", float64(len(ms)))
	msp.End()
	if err != nil {
		return err
	}
	fmt.Printf("%d measured, %d dropped (a format was infeasible)\n", len(lab.Names), dropped)

	byName := map[string]*sparse.CSR{}
	for i, n := range names {
		byName[n] = ms[i]
	}
	kept := make([]*sparse.CSR, len(lab.Names))
	best := make([]sparse.Format, len(lab.Names))
	counts := make(map[sparse.Format]int)
	for i, n := range lab.Names {
		kept[i] = byName[n]
		best[i] = sparse.KernelFormats()[lab.Labels[i]]
		counts[best[i]]++
	}
	fmt.Print("best-format distribution:")
	for _, f := range sparse.KernelFormats() {
		fmt.Printf("  %v %d", f, counts[f])
	}
	fmt.Println()
	if len(kept) < 10 {
		return fmt.Errorf("cpubench: only %d measurable matrices; need >= 10", len(kept))
	}

	cut := len(kept) * 7 / 10
	_, tsp := obs.Start(ctx, "train")
	sel, err := core.TrainSelector(kept[:cut], best[:cut], core.Options{NumClusters: clusters, Seed: 1})
	tsp.End()
	if err != nil {
		return err
	}
	hit := 0
	var logCSR float64
	csrIdx := 1 // KernelFormats order: COO, CSR, ELL, HYB
	for i := cut; i < len(kept); i++ {
		pred := sel.Select(kept[i])
		if pred == best[i] {
			hit++
		}
		pi := 0
		for k, f := range sparse.KernelFormats() {
			if f == pred {
				pi = k
			}
		}
		logCSR += math.Log(lab.Times[i][csrIdx] / lab.Times[i][pi])
	}
	n := float64(len(kept) - cut)
	fmt.Printf("held-out accuracy:            %.1f%% (%d matrices)\n", 100*float64(hit)/n, len(kept)-cut)
	fmt.Printf("speedup over always-CSR (GM): %.3fX\n", math.Exp(logCSR/n))
	return nil
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	mtx := fs.String("mtx", "", "MatrixMarket file (required)")
	model := fs.String("model", "", "predict from this saved model file instead of training")
	archName := fs.String("arch", "Turing", "target architecture (Pascal, Volta, Turing)")
	quick := fs.Bool("quick", false, "train on a reduced corpus")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mtx == "" {
		return fmt.Errorf("predict: -mtx is required")
	}
	f, err := os.Open(*mtx)
	if err != nil {
		return err
	}
	m, err := sparse.ReadMatrixMarket(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("reading %s: %w", *mtx, err)
	}
	rows, cols := m.Dims()
	fmt.Printf("matrix: %s (%dx%d, %d nonzeros)\n", filepath.Base(*mtx), rows, cols, m.NNZ())

	if *model != "" {
		// Predict from a saved artifact: no training, no corpus.
		art, err := serve.LoadFile(*model)
		if err != nil {
			return err
		}
		pred, err := art.PredictMatrix(m)
		if err != nil {
			return err
		}
		fmt.Printf("model: %s (%s, trained for %s)\n", *model, art.Kind, art.Arch)
		fmt.Printf("recommended format: %s\n", pred.Format)
		if pred.Cluster >= 0 {
			fmt.Printf("explanation: cluster %d (%d training matrices) votes label %d\n",
				pred.Cluster, pred.ClusterSize, pred.Label)
		}
		return nil
	}

	// Train a selector on the synthetic corpus labelled for the target
	// architecture.
	ms, best, arch, err := labelledTrainingSet(*archName, *quick)
	if err != nil {
		return fmt.Errorf("predict: %w", err)
	}
	sel, err := core.TrainSelector(ms, best, core.Options{NumClusters: 200, Seed: 1})
	if err != nil {
		return err
	}
	e := sel.Explain(m)
	fmt.Printf("target: %s (%s)\n", arch.Name, arch.Model)
	fmt.Printf("recommended format: %v\n", e.Format)
	fmt.Printf("explanation: %s\n", e)
	fmt.Printf("features: %s\n", e.Features)
	return nil
}

// cmdReport prints the run report written by an earlier instrumented
// (-obs) run: JSON by default, or the span tree as text with -text.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	in := fs.String("in", obs.DefaultReportPath, "run-report file to read")
	text := fs.Bool("text", false, "render the span tree as text instead of JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	r, err := obs.ReadReport(*in)
	if err != nil {
		return err
	}
	if *text {
		fmt.Printf("spmvselect %s %s (%v, go %s %s/%s, %d cpu)\n",
			r.Command, strings.Join(r.Args, " "),
			r.Duration.Round(time.Millisecond), r.GoVersion, r.GOOS, r.GOARCH, r.NumCPU)
		return obs.WriteTree(os.Stdout, r.Spans)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(data, '\n'))
	return err
}
