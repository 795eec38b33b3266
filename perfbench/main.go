// Command perfbench is the repository's benchmark. It runs one named
// workload against the program through its public Go APIs, checks every
// answer the program gives, and prints the workload's metrics:
//
//	go run . --workload serve_unique --seed 3 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it runs the workload once with the benchmark's own
// spans off and once with them on, prints the per-layer metrics and
// the tracing overhead, and writes the spans as an obs.RunReport that
// `spmvselect report -in FILE -text` renders. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics. perfbench/run.sh builds and runs it from the repository root.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// metricDef names one metric with its unit and better direction; the
// same lists are in BENCHMARK.json (TestBenchmarkJSONMatches).
type metricDef struct{ Name, Unit, Better string }

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"p50_ms", "ms", "lower"},
}

var perLayer = []metricDef{
	{"dataset.generate_s", "s", "lower"},
	{"dataset.generate_alloc_mb", "MB", "lower"},
	{"dataset.build_s", "s", "lower"},
	{"features.extract_s", "s", "lower"},
	{"gpusim.label_s", "s", "lower"},
	{"classify.images_s", "s", "lower"},
	{"classify.fit_s", "s", "lower"},
	{"classify.cnn_fit_s", "s", "lower"},
	{"semisup.fit_s", "s", "lower"},
	{"eval.table9_s", "s", "lower"},
	{"loadgen.late_ms_max", "ms", "lower"},
	{"loadgen.p50_ms", "ms", "lower"},
	{"loadgen.p99_ms", "ms", "lower"},
	{"loadgen.max_rps", "req/s", "higher"},
	{"proxy.self_ms_p50", "ms", "lower"},
	{"proxy.hedge_ratio", "ratio", "lower"},
	{"serve.handler_ms_p50", "ms", "lower"},
	{"serve.handler_ms_p99", "ms", "lower"},
	{"serve.lru_hit_ratio", "ratio", "higher"},
	{"serve.memo_hit_ratio", "ratio", "higher"},
	{"serve.cascade_hit_ratio", "ratio", "higher"},
	{"serve.rejected", "count", "lower"},
	{"sparse.parse_ms_p50", "ms", "lower"},
	{"sparse.parse_mb_s", "MB/s", "higher"},
	{"sparse.parse_allocs", "count", "lower"},
	{"features.cheap_us_p50", "us", "lower"},
	{"features.full_us_p50", "us", "lower"},
	{"serve.predict_us_p50", "us", "lower"},
	{"registry.install_ms", "ms", "lower"},
	{"registry.promote_ms", "ms", "lower"},
	{"proxy.rollout_s", "s", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"trace_overhead.setup_s", "ratio", "lower"},
	{"trace_overhead.wall_s", "ratio", "lower"},
	{"trace_overhead.peak_heap_mb", "ratio", "lower"},
	{"trace_overhead.p50_ms", "ratio", "lower"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*runEnv) (*outcome, error){
	"paper":        runPaper,
	"serve_unique": runServeUnique,
	"serve_repeat": runServeRepeat,
}

//go:embed config.json
var configJSON []byte

// runEnv is what a workload runner gets: its arguments, its calibration
// and a private scratch directory inside the checkout.
type runEnv struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
	cfg      *config
	work     string
	log      io.Writer
}

// traceFlag is the --trace value of the run.
func (e *runEnv) traceFlag() int {
	if e.trace {
		return 1
	}
	return 0
}

// outcome is what a workload runner reports.
type outcome struct {
	// Mismatches lists answers that differed from the reference; any
	// entry fails the run.
	Mismatches []string `json:"mismatches,omitempty"`
	Attempted  int64    `json:"attempted"`
	Failed     int64    `json:"failed"`
	// EndToEnd holds the end-to-end metrics measured with the
	// benchmark's tracing off; Traced holds the same metrics from the
	// traced pass of a --trace 1 run.
	EndToEnd map[string]float64 `json:"end_to_end"`
	Traced   map[string]float64 `json:"traced,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// Spans are the traced pass's span trees.
	Spans   []*obs.SpanData `json:"-"`
	Details any             `json:"details,omitempty"`
}

// mismatch records a wrong answer, keeping the first few for the report.
func (o *outcome) mismatch(format string, args ...any) {
	if len(o.Mismatches) < 20 {
		o.Mismatches = append(o.Mismatches, fmt.Sprintf(format, args...))
	} else if len(o.Mismatches) == 20 {
		o.Mismatches = append(o.Mismatches, "...")
	}
}

// hostInfo is the fingerprint every result carries.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GOMEMLIMIT string `json:"gomemlimit"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
}

func fingerprint(workload string, seed int64) hostInfo {
	env := func(k, def string) string {
		if v := os.Getenv(k); v != "" {
			return v
		}
		return def
	}
	return hostInfo{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       env("GOGC", "100 (default)"),
		GOMEMLIMIT: env("GOMEMLIMIT", "off (default)"),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Workload:   workload,
		Seed:       seed,
	}
}

// commit names the code under test: the VCS revision stamped into the
// binary when it was built in a git checkout, otherwise a digest of the
// program's Go sources under the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	h := sha256.New()
	n := 0
	for _, root := range []string{"go.mod", "internal", "cmd"} {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !(strings.HasSuffix(path, ".go") || path == "go.mod") {
				return nil
			}
			data, rerr := os.ReadFile(path)
			if rerr != nil {
				return nil
			}
			fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
			h.Write(data)
			n++
			return nil
		})
	}
	if n == 0 {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func (h hostInfo) String() string {
	return fmt.Sprintf("cpus=%d GOMAXPROCS=%d GOGC=%s GOMEMLIMIT=%s go=%s commit=%s workload=%s seed=%d",
		h.CPUs, h.GOMAXPROCS, h.GOGC, h.GOMEMLIMIT, h.GoVersion, h.Commit, h.Workload, h.Seed)
}

// metricOut is one printed metric.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of standard output.
type verdict struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// newVerdict selects the printed metrics: every end-to-end metric, or
// with trace every per-layer metric (0 for a layer the workload does
// not exercise).
func newVerdict(o *outcome, trace bool) verdict {
	defs, vals := endToEnd, o.EndToEnd
	if trace {
		defs, vals = perLayer, o.PerLayer
	}
	v := verdict{
		Correct:   len(o.Mismatches) == 0,
		Attempted: o.Attempted,
		Failed:    o.Failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v.Metrics[d.Name] = metricOut{Value: vals[d.Name], Unit: d.Unit}
	}
	return v
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and output streams; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload: paper, serve_unique or serve_repeat")
	seed := fl.Int64("seed", 0, "workload seed; drives every generated input")
	seconds := fl.Int("seconds", 30, "measurement budget in seconds")
	trace := fl.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	out := fl.String("out", filepath.Join(".bench_build", "results"), "directory for result files and trace reports")
	record := fl.String("record-digests", "", "comma-separated paper corpus seeds: print their answer digests for config.json and exit")
	child := fl.Int64("paper-iteration", -1, "run one paper pipeline iteration on this corpus seed and print it as JSON (the paper workload runs each iteration this way)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *child >= 0:
		err = paperIterationJSON(stdout, *child, *trace == 1)
	case *record != "":
		err = recordDigests(stdout, *record)
	case workloads[*workload] == nil || *seconds < 1 || (*trace != 0 && *trace != 1):
		fmt.Fprintf(stderr, "perfbench: want --workload paper, serve_unique or serve_repeat, --seconds >= 1 and --trace 0 or 1\n")
		return 2
	default:
		var correct bool
		correct, err = bench(stdout, stderr, *workload, *seed, *seconds, *trace == 1, *out)
		if err == nil && !correct {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// bench runs one workload, writes its result file (and trace report),
// prints its metrics and verdict, and reports whether every answer was
// right.
func bench(stdout, stderr io.Writer, workload string, seed int64, seconds int, trace bool, out string) (bool, error) {
	cfg, err := loadConfig(configJSON)
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return false, err
	}
	// The registry spools pushed artifacts through os.CreateTemp; point
	// it, and everything else the run writes, at a directory of its own.
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(work)
	os.Setenv("TMPDIR", work)

	host := fingerprint(workload, seed)
	env := &runEnv{
		workload: workload, seed: seed, budget: time.Duration(seconds) * time.Second,
		trace: trace, cfg: cfg, work: work, log: stderr,
	}
	fmt.Fprintf(stdout, "perfbench %s trace=%d seconds=%d %s\n", workload, env.traceFlag(), seconds, host)
	o, err := workloads[workload](env)
	if err != nil {
		return false, fmt.Errorf("%s: %w", workload, err)
	}
	if trace {
		o.PerLayer = withOverhead(o.PerLayer, o.EndToEnd, o.Traced)
	}
	v := newVerdict(o, trace)
	base := filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%d", workload, seed, env.traceFlag()))
	if err := writeResult(base+".json", host, o, v); err != nil {
		return false, err
	}
	if trace {
		if err := writeTraceReport(base+".report.json", host, o); err != nil {
			return false, err
		}
		fmt.Fprintf(stdout, "trace report: %s.report.json\n", base)
	}
	printMetrics(stdout, v)
	for _, m := range o.Mismatches {
		fmt.Fprintf(stderr, "perfbench: wrong answer: %s\n", m)
	}
	line, err := json.Marshal(v)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return v.Correct, nil
}

// withOverhead adds trace_overhead.<metric> = traced/untraced - 1 for
// every end-to-end metric.
func withOverhead(layers, plain, traced map[string]float64) map[string]float64 {
	if layers == nil {
		layers = map[string]float64{}
	}
	for _, d := range endToEnd {
		if p := plain[d.Name]; p != 0 {
			layers["trace_overhead."+d.Name] = traced[d.Name]/p - 1
		}
	}
	return layers
}

func printMetrics(w io.Writer, v verdict) {
	names := make([]string, 0, len(v.Metrics))
	for n := range v.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := v.Metrics[n]
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// writeResult records one run: fingerprint, verdict and details.
func writeResult(path string, host hostInfo, o *outcome, v verdict) error {
	data, err := json.MarshalIndent(struct {
		Host    hostInfo `json:"host"`
		Verdict verdict  `json:"verdict"`
		Outcome *outcome `json:"outcome"`
	}{host, v, o}, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeTraceReport writes the traced pass's spans as an obs.RunReport,
// with the fingerprint as its arguments so `report -text` shows it.
func writeTraceReport(path string, host hostInfo, o *outcome) error {
	if len(o.Spans) == 0 {
		return errors.New("traced run recorded no spans")
	}
	r := &obs.RunReport{
		Command: "perfbench",
		Args: []string{
			"workload=" + host.Workload, fmt.Sprintf("seed=%d", host.Seed), "commit=" + host.Commit,
			fmt.Sprintf("gomaxprocs=%d", host.GOMAXPROCS), "gogc=" + host.GOGC, "gomemlimit=" + host.GOMEMLIMIT,
		},
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Spans:     o.Spans,
		Metrics:   obs.Default.Snapshot(),
	}
	var end time.Time
	for _, sd := range o.Spans {
		if r.Start.IsZero() || sd.Start.Before(r.Start) {
			r.Start = sd.Start
		}
		if e := sd.Start.Add(sd.Duration); e.After(end) {
			end = e
		}
	}
	r.Duration = end.Sub(r.Start)
	return obs.WriteReport(path, r)
}
