package main

// `spmvselect bench <suite>` runs one of the repository's committed
// measurements and writes its record. Every suite checks its answers
// before it reports a time, measures its compared sides in interleaved
// rounds, and ends by evaluating its perf gates, which are declared as
// data beside the suite. The serving suites share one trained model,
// one request mix and loopback HTTP servers, so per-request overhead
// (connection handling, routing, body copies) is part of every
// measured latency.

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/features"
	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// benchSuite is one measurement: run returns its record, which is
// written to out (or merged into out as the top-level key section),
// and gates are then read from the record.
type benchSuite struct {
	out     string
	section string
	gates   []benchGate
	run     func() (any, error)
}

var benchSuites = map[string]benchSuite{
	"parallel": {out: "BENCH_parallel.json", gates: parallelGates, run: benchParallel},
	"parse":    {out: "BENCH_parse.json", gates: parseGates, run: benchParse},
	"serve":    {out: "BENCH_serve.json", gates: serveGates, run: benchServe},
	"replay":   {out: "BENCH_replay.json", gates: replayGates, run: benchReplay},
	"fleet":    {out: "BENCH_fleet.json", gates: fleetGates, run: benchFleet},
	"tracing":  {out: "BENCH_obs.json", section: "serve_tracing", gates: tracingGates, run: benchTracing},
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("out", "", "record path (default: the suite's BENCH file)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	name := fs.Arg(0)
	suite, ok := benchSuites[name]
	if fs.NArg() != 1 || !ok {
		names := make([]string, 0, len(benchSuites))
		for n := range benchSuites {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("bench: want one suite of %s", strings.Join(names, ", "))
	}
	if *out == "" {
		*out = suite.out
	}
	rec, err := suite.run()
	if err != nil {
		return fmt.Errorf("bench %s: %w", name, err)
	}
	if err := writeBenchRecord(*out, suite.section, rec); err != nil {
		return fmt.Errorf("bench %s: %w", name, err)
	}
	fmt.Printf("bench %s: record written to %s\n", name, *out)
	if err := checkGates(rec, runtime.NumCPU(), suite.gates); err != nil {
		return fmt.Errorf("bench %s: %w", name, err)
	}
	return nil
}

// benchHost identifies the host a record was measured on; the gates'
// CPU conditions read the same count. GOGC and GOMEMLIMIT are read as
// perfbench reads them, naming the runtime's default when unset.
type benchHost struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GOMEMLIMIT string `json:"gomemlimit"`
	GoVersion  string `json:"go_version"`
}

func thisHost() benchHost {
	return benchHost{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       cmp.Or(os.Getenv("GOGC"), "100 (default)"),
		GOMEMLIMIT: cmp.Or(os.Getenv("GOMEMLIMIT"), "off (default)"),
		GoVersion:  runtime.Version(),
	}
}

// writeBenchRecord writes rec to path as indented JSON. With section
// set, path holds a JSON object (a run report) and rec replaces only
// that top-level key: every other key is kept, and a missing file
// starts an object holding the section alone.
func writeBenchRecord(path, section string, rec any) error {
	doc := rec
	if section != "" {
		var obj map[string]json.RawMessage
		data, err := os.ReadFile(path)
		switch {
		case err == nil:
			if err := json.Unmarshal(data, &obj); err != nil {
				return fmt.Errorf("merging into %s: %w", path, err)
			}
			if obj == nil {
				return fmt.Errorf("merging into %s: not a JSON object", path)
			}
		case errors.Is(err, os.ErrNotExist):
			obj = map[string]json.RawMessage{}
		default:
			return err
		}
		raw, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		obj[section] = raw
		doc = obj
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchGate is one perf gate on the record field it names: the value
// must reach the threshold, or with atMost stay at or under it. The
// threshold is strict on a host with at least minCPUs CPUs and floor
// on a smaller one, where the compared sides share too few cores for
// the strict win to be possible and the floor only rejects a
// pathological slowdown. minCPUs 0 makes a gate host-independent.
type benchGate struct {
	field   string
	atMost  bool
	strict  float64
	minCPUs int
	floor   float64
}

func (g benchGate) threshold(cpus int) float64 {
	if cpus >= g.minCPUs {
		return g.strict
	}
	return g.floor
}

// checkGates evaluates gates against rec's JSON fields on a host with
// cpus CPUs, prints each verdict, and returns every failure.
func checkGates(rec any, cpus int, gates []benchGate) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	var fields map[string]any
	if err := json.Unmarshal(data, &fields); err != nil {
		return err
	}
	var errs []error
	for _, g := range gates {
		v, ok := fields[g.field].(float64)
		if !ok {
			errs = append(errs, fmt.Errorf("gate %s: the record holds no such number", g.field))
			continue
		}
		limit, cmp, pass := g.threshold(cpus), ">=", false
		if g.atMost {
			cmp, pass = "<=", v <= limit
		} else {
			pass = v >= limit
		}
		verdict := "ok"
		if !pass {
			verdict = "FAILED"
			errs = append(errs, fmt.Errorf("gate %s: %.4g misses %s %.4g on %d CPUs", g.field, v, cmp, limit, cpus))
		}
		fmt.Printf("gate %s: %.4g %s %.4g on %d CPUs: %s\n", g.field, v, cmp, limit, cpus, verdict)
	}
	return errors.Join(errs...)
}

// latencyQuantiles summarises a set of request latencies.
type latencyQuantiles struct {
	Requests int     `json:"requests"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`
}

// quantiles summarises durs by nearest rank: the q-quantile is the
// sample at rank ⌈q·n⌉, so with 24 samples p99 is the maximum.
func quantiles(durs []time.Duration) latencyQuantiles {
	n := len(durs)
	if n == 0 {
		return latencyQuantiles{}
	}
	sorted := slices.Clone(durs)
	slices.Sort(sorted)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	at := func(q float64) float64 {
		// The epsilon keeps an exact q·n (0.99·100) from rounding up a rank.
		return ms(sorted[max(int(math.Ceil(q*float64(n)-1e-9)), 1)-1])
	}
	return latencyQuantiles{Requests: n, P50Ms: at(0.50), P95Ms: at(0.95), P99Ms: at(0.99), MaxMs: ms(sorted[n-1])}
}

// benchSide is one side of a timed comparison: n items, and do, which
// serves item i once and returns its answer.
type benchSide struct {
	n  int
	do func(i int) ([]byte, error)
}

// sideTimes is what timeSides keeps of one side's timed passes.
type sideTimes struct {
	best    time.Duration   // the fastest full pass
	passes  []time.Duration // every full pass, in round order
	all     []time.Duration // every item of every pass
	min     []time.Duration // each item's fastest pass
	answers [][]byte        // each item's answer in the last pass
}

// timeSides warms every side with one untimed pass, then times rounds
// passes of each, interleaved (side 0, side 1, ... in every round) so
// slow drift of the host (frequency scaling, background GC, cache
// state) lands on every side instead of on whichever ran last.
// Scheduler noise only ever adds time, so a side is represented by its
// fastest pass and an item by its fastest round. conc workers share
// each pass.
func timeSides(rounds, conc int, sides ...benchSide) ([]sideTimes, error) {
	times := make([]sideTimes, len(sides))
	for s, side := range sides {
		times[s].min = make([]time.Duration, side.n)
		if _, _, _, err := runPass(side, conc); err != nil {
			return nil, fmt.Errorf("warmup of side %d: %w", s, err)
		}
	}
	for r := 0; r < rounds; r++ {
		for s, side := range sides {
			d, lat, answers, err := runPass(side, conc)
			if err != nil {
				return nil, fmt.Errorf("side %d: %w", s, err)
			}
			t := &times[s]
			if t.best == 0 || d < t.best {
				t.best = d
			}
			t.passes = append(t.passes, d)
			t.all = append(t.all, lat...)
			for i, l := range lat {
				if t.min[i] == 0 || l < t.min[i] {
					t.min[i] = l
				}
			}
			t.answers = answers
		}
	}
	return times, nil
}

// medianRatio is the median over rounds of a's pass time over b's.
// timeSides runs the sides back to back in every round, so each ratio
// compares two passes that saw the same state of the host, and the
// median discards the rounds a burst of host noise hit on one side.
func medianRatio(a, b sideTimes) float64 {
	r := make([]float64, len(a.passes))
	for i := range r {
		r[i] = a.passes[i].Seconds() / b.passes[i].Seconds()
	}
	slices.Sort(r)
	n := len(r)
	if n%2 == 0 {
		return (r[n/2-1] + r[n/2]) / 2
	}
	return r[n/2]
}

// runPass serves every item of side once over conc workers and returns
// the pass's wall time with each item's latency and answer.
func runPass(side benchSide, conc int) (time.Duration, []time.Duration, [][]byte, error) {
	lat := make([]time.Duration, side.n)
	answers := make([][]byte, side.n)
	errs := make([]error, conc)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < side.n; i += conc {
				t0 := time.Now()
				ans, err := side.do(i)
				if err != nil {
					errs[w] = fmt.Errorf("item %d: %w", i, err)
					return
				}
				lat[i], answers[i] = time.Since(t0), ans
			}
		}()
	}
	wg.Wait()
	return time.Since(start), lat, answers, errors.Join(errs...)
}

// benchClusters, benchMixSeed and benchMixMatrices fix the model every
// serving suite serves and the request mix it answers; the mix seed
// differs from the training corpus's, so the served matrices are not
// the ones the model was fitted on.
const (
	benchClusters    = 16
	benchMixSeed     = 99
	benchMixMatrices = 24
	benchAdminToken  = "bench-admin"
)

// benchModel trains the served model: semisup over the quick Turing
// corpus, returned with the training matrices and the architecture.
func benchModel() (*serve.Artifact, []*sparse.CSR, gpusim.Arch, error) {
	ms, best, arch, err := labelledTrainingSet("Turing", true)
	if err != nil {
		return nil, nil, arch, err
	}
	fmt.Fprintf(os.Stderr, "bench: training semisup on %d matrices (%s)...\n", len(ms), arch.Name)
	sel, err := core.TrainSelector(ms, best, core.Options{NumClusters: benchClusters, Seed: 1})
	if err != nil {
		return nil, nil, arch, err
	}
	return serve.NewSemisupArtifact(sel.Model(), arch.Name), ms, arch, nil
}

// matrixBodies generates baseCount matrices at seed and serialises each
// as a MatrixMarket body.
func matrixBodies(seed int64, baseCount int) ([]dataset.Item, [][]byte, error) {
	items, err := dataset.Generate(dataset.Config{
		Seed: seed, BaseCount: baseCount, Scale: 0.5, DropELLFailures: true,
	})
	if err != nil {
		return nil, nil, err
	}
	bodies := make([][]byte, len(items))
	for i, it := range items {
		var buf bytes.Buffer
		if err := sparse.WriteMatrixMarket(&buf, it.Matrix); err != nil {
			return nil, nil, err
		}
		bodies[i] = buf.Bytes()
	}
	return items, bodies, nil
}

// serveLoopback serves h on a free loopback port until stop is called
// and returns the bound host:port.
func serveLoopback(h http.Handler) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	server := &http.Server{Handler: h}
	go server.Serve(ln)
	return ln.Addr().String(), func() { server.Close() }, nil
}

// serveArtifact starts a serve.Server for art on a loopback port.
func serveArtifact(art *serve.Artifact, cfg serve.Config) (*serve.Server, string, func(), error) {
	srv, err := serve.NewServer(art, cfg)
	if err != nil {
		return nil, "", nil, err
	}
	addr, stop, err := serveLoopback(srv.Handler())
	return srv, addr, stop, err
}

// postBody posts body to url, tagged with requestID when one is
// given, and returns the answer; any status but 200 is an error.
func postBody(client *http.Client, url, contentType, requestID string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if requestID != "" {
		req.Header.Set("X-Request-ID", requestID)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	ans, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(ans))
	}
	return ans, nil
}

// predictSide is a timed side that posts each body to addr's
// /v1/predict/matrix.
func predictSide(client *http.Client, addr string, bodies [][]byte) benchSide {
	return benchSide{n: len(bodies), do: func(i int) ([]byte, error) {
		return postBody(client, "http://"+addr+"/v1/predict/matrix", "text/plain", "", bodies[i])
	}}
}

// parallelWorkers is the worker count the parallel suite compares
// against one worker.
const parallelWorkers = 8

// parallelBench is BENCH_parallel.json: tables 3-8 at quick scale
// rendered with one worker and with parallelWorkers, byte-compared.
type parallelBench struct {
	benchHost
	Workers           int     `json:"workers"`
	Quick             bool    `json:"quick"`
	SequentialSeconds float64 `json:"sequential_seconds"`
	ParallelSeconds   float64 `json:"parallel_seconds"`
	Speedup           float64 `json:"speedup"`
	IdenticalOutput   bool    `json:"identical_output"`
}

// With fewer CPUs than workers the goroutines share cores and fight
// over cache, so parallelism cannot pay for itself.
var parallelGates = []benchGate{{field: "speedup", strict: 3.0, minCPUs: parallelWorkers, floor: 0.80}}

func benchParallel() (any, error) {
	opt := options(true)
	ctx := context.Background()
	fmt.Fprintln(os.Stderr, "bench: building the quick corpus...")
	env, err := eval.NewEnv(ctx, opt)
	if err != nil {
		return nil, err
	}
	render := func(workers int) (string, time.Duration, error) {
		prev := obs.SetMaxWorkers(workers)
		defer obs.SetMaxWorkers(prev)
		var buf bytes.Buffer
		start := time.Now()
		for k := 3; k <= 8; k++ {
			if err := renderTable(ctx, &buf, env, opt, k); err != nil {
				return "", 0, err
			}
		}
		return buf.String(), time.Since(start), nil
	}
	seqOut, seqDur, err := render(1)
	if err != nil {
		return nil, fmt.Errorf("sequential pass: %w", err)
	}
	parOut, parDur, err := render(parallelWorkers)
	if err != nil {
		return nil, fmt.Errorf("parallel pass: %w", err)
	}
	if seqOut != parOut {
		return nil, errors.New("parallel output differs from sequential output")
	}
	return parallelBench{
		benchHost:         thisHost(),
		Workers:           parallelWorkers,
		Quick:             true,
		SequentialSeconds: seqDur.Seconds(),
		ParallelSeconds:   parDur.Seconds(),
		Speedup:           seqDur.Seconds() / parDur.Seconds(),
		IdenticalOutput:   true,
	}, nil
}

// The parse suite's bodies come from a seed off the training corpus.
const (
	parseSeed     = 42
	parseMatrices = 24
	parseRounds   = 21
)

// parseBench is BENCH_parse.json: the streaming MatrixMarket reader
// (ReadMatrixMarket over an io.Reader) against the byte-slice fast path
// (ReadMatrixMarketBytesScratch with one pooled scratch) on the same
// bodies.
type parseBench struct {
	benchHost
	Matrices   int   `json:"matrices"`
	Rounds     int   `json:"rounds"`
	TotalBytes int64 `json:"total_bytes"`
	// Fastest wall time for one full pass over the body set.
	StreamSeconds float64 `json:"stream_seconds"`
	BytesSeconds  float64 `json:"bytes_seconds"`
	// Per-matrix averages and aggregate throughput for each reader.
	StreamNsPerMatrix float64 `json:"stream_ns_per_matrix"`
	BytesNsPerMatrix  float64 `json:"bytes_ns_per_matrix"`
	StreamMBPerSec    float64 `json:"stream_mb_per_sec"`
	BytesMBPerSec     float64 `json:"bytes_mb_per_sec"`
	// Speedup is the median over rounds of stream pass time / fast-path
	// pass time over identical bodies.
	Speedup float64 `json:"speedup"`
	// Heap allocations per matrix (runtime Mallocs delta over one pass)
	// and their ratio fast/stream.
	StreamAllocsPerMatrix float64 `json:"stream_allocs_per_matrix"`
	BytesAllocsPerMatrix  float64 `json:"bytes_allocs_per_matrix"`
	AllocFrac             float64 `json:"alloc_frac"`
	// Identical records that every body produced a bitwise-equal CSR
	// through both readers (the run fails before writing otherwise).
	Identical bool `json:"identical_output"`
}

var parseGates = []benchGate{
	{field: "speedup", strict: 3.0},
	{field: "alloc_frac", atMost: true, strict: 0.10},
}

// csrBitIdentical compares two parses of the same body the way the
// differential tests do: dimensions, index arrays, and value bits
// (math.Float64bits, so -0 vs 0 or differing NaN payloads count as a
// difference a float compare would hide).
func csrBitIdentical(a, b *sparse.CSR) bool {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc || !slices.Equal(a.RowPtr(), b.RowPtr()) || !slices.Equal(a.ColIdx(), b.ColIdx()) {
		return false
	}
	return slices.EqualFunc(a.Values(), b.Values(), func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// parseParity reads body through both MatrixMarket readers and fails
// unless both accept it and give bitwise-identical CSRs. The fast
// path's whole contract is that output; a parse that is fast because
// it is wrong must never produce a bench record.
func parseParity(body []byte, ps *sparse.ParseScratch) error {
	sm, serr := sparse.ReadMatrixMarket(bytes.NewReader(body))
	fm, ferr := sparse.ReadMatrixMarketBytesScratch(body, ps)
	switch {
	case (serr == nil) != (ferr == nil):
		return fmt.Errorf("reader verdicts disagree: stream err=%v, fast err=%v", serr, ferr)
	case serr != nil:
		return fmt.Errorf("unreadable body: %w", serr)
	case !csrBitIdentical(sm, fm):
		return errors.New("fast path produced a different CSR than the streaming reader")
	}
	return nil
}

// allocsPerItem runs one pass of side under a quiesced heap and returns
// the Mallocs delta per item. GC runs first so the collector does not
// retire spans mid-measurement.
func allocsPerItem(side benchSide) (float64, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < side.n; i++ {
		if _, err := side.do(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(side.n), nil
}

func benchParse() (any, error) {
	items, bodies, err := matrixBodies(parseSeed, parseMatrices)
	if err != nil {
		return nil, err
	}
	ps := sparse.GetParseScratch()
	defer sparse.PutParseScratch(ps)
	var totalBytes int64
	for i, body := range bodies {
		if err := parseParity(body, ps); err != nil {
			return nil, fmt.Errorf("%s: %w", items[i].Name, err)
		}
		totalBytes += int64(len(body))
	}
	fmt.Fprintf(os.Stderr, "bench: %d bodies (%.1f MB) parse bit-identically through both readers; timing...\n",
		len(bodies), float64(totalBytes)/1e6)

	stream := benchSide{n: len(bodies), do: func(i int) ([]byte, error) {
		_, err := sparse.ReadMatrixMarket(bytes.NewReader(bodies[i]))
		return nil, err
	}}
	fast := benchSide{n: len(bodies), do: func(i int) ([]byte, error) {
		_, err := sparse.ReadMatrixMarketBytesScratch(bodies[i], ps)
		return nil, err
	}}
	t, err := timeSides(parseRounds, 1, stream, fast)
	if err != nil {
		return nil, err
	}
	streamAllocs, err := allocsPerItem(stream)
	if err != nil {
		return nil, err
	}
	fastAllocs, err := allocsPerItem(fast)
	if err != nil {
		return nil, err
	}
	n, mb := float64(len(bodies)), float64(totalBytes)/1e6
	rec := parseBench{
		benchHost:             thisHost(),
		Matrices:              len(bodies),
		Rounds:                parseRounds,
		TotalBytes:            totalBytes,
		StreamSeconds:         t[0].best.Seconds(),
		BytesSeconds:          t[1].best.Seconds(),
		StreamNsPerMatrix:     float64(t[0].best.Nanoseconds()) / n,
		BytesNsPerMatrix:      float64(t[1].best.Nanoseconds()) / n,
		StreamMBPerSec:        mb / t[0].best.Seconds(),
		BytesMBPerSec:         mb / t[1].best.Seconds(),
		Speedup:               medianRatio(t[0], t[1]),
		StreamAllocsPerMatrix: streamAllocs,
		BytesAllocsPerMatrix:  fastAllocs,
		Identical:             true,
	}
	if streamAllocs > 0 {
		rec.AllocFrac = fastAllocs / streamAllocs
	}
	return rec, nil
}

const (
	serveBatchSize     = 8
	serveRounds        = 3
	serveCascadeTarget = 0.90 // the agreement target the cascade threshold is calibrated to
)

// serveBench is BENCH_serve.json: the request mix served one request
// at a time versus in /v1/predict/batch requests, then the same single
// requests against the same model with the cheap-first cascade and
// with the feature memo.
type serveBench struct {
	benchHost
	Matrices      int     `json:"matrices"`
	BatchSize     int     `json:"batch_size"`
	Rounds        int     `json:"rounds"`
	SingleSeconds float64 `json:"single_seconds"`
	BatchSeconds  float64 `json:"batch_seconds"`
	// SingleRPS / BatchRPS are predictions per second through each path.
	SingleRPS float64 `json:"single_rps"`
	BatchRPS  float64 `json:"batch_rps"`
	// Speedup = BatchRPS / SingleRPS for the same total predictions.
	Speedup float64 `json:"speedup"`
	// Per-request HTTP latency quantiles over every timed round; one
	// batch request carries BatchSize matrices, so its latencies are
	// not per-prediction.
	SingleLatency latencyQuantiles `json:"single_latency"`
	BatchLatency  latencyQuantiles `json:"batch_latency"`
	// Cascade-on single predictions (per-body best-of-rounds latencies).
	CascadeSeconds float64          `json:"cascade_seconds"`
	CascadeRPS     float64          `json:"cascade_rps"`
	CascadeLatency latencyQuantiles `json:"cascade_latency"`
	// CascadeHitRate is the cheap-stage answer fraction on the mix;
	// CascadeMixAgreement the cascade-on/off format agreement on the
	// full mix; the Heldout/Target pair is the train-time calibration
	// the agreement check enforces.
	CascadeHitRate          float64 `json:"cascade_hit_rate"`
	CascadeMixAgreement     float64 `json:"cascade_mix_agreement"`
	CascadeHeldoutAgreement float64 `json:"cascade_heldout_agreement"`
	CascadeTargetAgreement  float64 `json:"cascade_target_agreement"`
	CascadeThreshold        float64 `json:"cascade_threshold"`
	// P50s over the above-threshold subset (requests the cheap stage
	// answered), the traffic the cascade is supposed to accelerate.
	CascadeP50OffMs      float64 `json:"cascade_p50_off_ms"`
	CascadeP50OnMs       float64 `json:"cascade_p50_on_ms"`
	CascadeSpeedupAboveT float64 `json:"cascade_speedup_above_threshold"`
	// Feature memo on vs off: every timed memo-on request is a repeat
	// body; the off column is the plain single-request server.
	MemoP50OffMs float64 `json:"memo_p50_off_ms"`
	MemoP50OnMs  float64 `json:"memo_p50_on_ms"`
	MemoSpeedup  float64 `json:"memo_speedup"`
	// MemoHitRate is hits/(hits+misses) over the memo server; the
	// warmup misses once per body, every timed round hits.
	MemoHitRate float64 `json:"memo_hit_rate"`
}

// With at least 4 CPUs, batch fan-out across the worker pool should
// beat request-at-a-time serving, skipping full extraction should halve
// p50 on confident traffic, and a memo hit (no parse, no extraction)
// should drop the repeat-body p50. On a smaller host HTTP and parse
// overhead dominate every path.
var serveGates = []benchGate{
	{field: "speedup", strict: 2.0, minCPUs: 4, floor: 0.80},
	{field: "cascade_speedup_above_threshold", strict: 2.0, minCPUs: 4, floor: 0.80},
	{field: "memo_speedup", strict: 1.2, minCPUs: 4, floor: 0.80},
}

// predictAnswer is the part of a predict or batch answer the serve
// suite checks.
type predictAnswer struct {
	Format string `json:"format"`
	Stage  string `json:"stage"`
	Errors int    `json:"errors"`
}

func benchServe() (any, error) {
	art, ms, _, err := benchModel()
	if err != nil {
		return nil, err
	}
	_, bodies, err := matrixBodies(benchMixSeed, benchMixMatrices)
	if err != nil {
		return nil, err
	}
	// A batch body is the concatenated MatrixMarket files.
	var batches [][]byte
	for lo := 0; lo < len(bodies); lo += serveBatchSize {
		batches = append(batches, bytes.Join(bodies[lo:min(lo+serveBatchSize, len(bodies))], nil))
	}
	casc, err := serve.TrainCascade(art, features.Matrix(features.ExtractAll(ms)),
		serve.CascadeOptions{TargetAgreement: serveCascadeTarget, Seed: 1})
	if err != nil {
		return nil, err
	}
	if casc.Threshold > 1 {
		return nil, fmt.Errorf("cascade calibration could not reach target agreement %.2f", serveCascadeTarget)
	}
	// The calibrated threshold must deliver its target on held-out data.
	if casc.HeldoutAgreement < casc.TargetAgreement {
		return nil, fmt.Errorf("cascade held-out agreement %.3f below target %.2f", casc.HeldoutAgreement, casc.TargetAgreement)
	}
	cart := *art
	cart.Cascade = casc

	// The plain and cascade servers run with the feature memo off, so
	// every timed round recomputes (parse, extract, infer) instead of
	// skipping the parse for a repeat body.
	plainCfg := serve.Config{FeatMemoSize: -1, MaxBatchItems: len(bodies)}
	_, plain, stop, err := serveArtifact(art, plainCfg)
	if err != nil {
		return nil, err
	}
	defer stop()
	_, cascade, stop, err := serveArtifact(&cart, plainCfg)
	if err != nil {
		return nil, err
	}
	defer stop()
	memoSrv, memo, stop, err := serveArtifact(art, serve.Config{MaxBatchItems: len(bodies)})
	if err != nil {
		return nil, err
	}
	defer stop()

	client := &http.Client{Timeout: time.Minute}
	batch := benchSide{n: len(batches), do: func(i int) ([]byte, error) {
		raw, err := postBody(client, "http://"+plain+"/v1/predict/batch", "text/plain", "", batches[i])
		if err != nil {
			return nil, err
		}
		var ans predictAnswer
		if err := json.Unmarshal(raw, &ans); err != nil {
			return nil, err
		}
		if ans.Errors != 0 {
			return nil, fmt.Errorf("batch %d: %d item errors", i, ans.Errors)
		}
		return raw, nil
	}}
	hits0, misses0 := memoSrv.FeatMemoStats()
	fmt.Fprintf(os.Stderr, "bench: %d matrices x %d rounds: single, batch, cascade and memo...\n", len(bodies), serveRounds)
	t, err := timeSides(serveRounds, 1,
		predictSide(client, plain, bodies), batch, predictSide(client, cascade, bodies), predictSide(client, memo, bodies))
	if err != nil {
		return nil, err
	}
	hits, misses := memoSrv.FeatMemoStats()
	hits, misses = hits-hits0, misses-misses0
	single, batched, cascaded, memoed := t[0], t[1], t[2], t[3]
	ans := make([][]predictAnswer, 3)
	for s, side := range []sideTimes{single, cascaded, memoed} {
		ans[s] = make([]predictAnswer, len(bodies))
		for i, raw := range side.answers {
			if err := json.Unmarshal(raw, &ans[s][i]); err != nil {
				return nil, fmt.Errorf("answer %d: %w", i, err)
			}
		}
	}
	off, on, memoAns := ans[0], ans[1], ans[2]

	var aboveOn, aboveOff []time.Duration
	agree, cascadeSecs := 0, 0.0
	for i := range bodies {
		cascadeSecs += cascaded.min[i].Seconds()
		// Memoized features must be invisible in the answers.
		if memoAns[i].Format != off[i].Format {
			return nil, fmt.Errorf("body %d: memo-on server answered %q, memo-off %q: memoized features changed a prediction",
				i, memoAns[i].Format, off[i].Format)
		}
		if on[i].Format == off[i].Format {
			agree++
		}
		if on[i].Stage == serve.StageCheap {
			aboveOn = append(aboveOn, cascaded.min[i])
			aboveOff = append(aboveOff, single.min[i])
		}
	}
	if len(aboveOn) == 0 {
		return nil, errors.New("cascade cheap stage never fired on the bench mix")
	}
	if hits == 0 {
		return nil, fmt.Errorf("feature memo never hit across %d repeat requests", serveRounds*len(bodies))
	}

	total := float64(len(bodies))
	rec := serveBench{
		benchHost:     thisHost(),
		Matrices:      len(bodies),
		BatchSize:     serveBatchSize,
		Rounds:        serveRounds,
		SingleSeconds: single.best.Seconds(),
		BatchSeconds:  batched.best.Seconds(),
		SingleRPS:     total / single.best.Seconds(),
		BatchRPS:      total / batched.best.Seconds(),
		Speedup:       single.best.Seconds() / batched.best.Seconds(),
		SingleLatency: quantiles(single.all),
		BatchLatency:  quantiles(batched.all),

		CascadeSeconds:          cascadeSecs,
		CascadeRPS:              total / cascadeSecs,
		CascadeLatency:          quantiles(cascaded.min),
		CascadeHitRate:          float64(len(aboveOn)) / total,
		CascadeMixAgreement:     float64(agree) / total,
		CascadeHeldoutAgreement: casc.HeldoutAgreement,
		CascadeTargetAgreement:  casc.TargetAgreement,
		CascadeThreshold:        casc.Threshold,
		CascadeP50OffMs:         quantiles(aboveOff).P50Ms,
		CascadeP50OnMs:          quantiles(aboveOn).P50Ms,

		MemoP50OffMs: quantiles(single.min).P50Ms,
		MemoP50OnMs:  quantiles(memoed.min).P50Ms,
		MemoHitRate:  float64(hits) / float64(hits+misses),
	}
	if rec.CascadeP50OnMs > 0 {
		rec.CascadeSpeedupAboveT = rec.CascadeP50OffMs / rec.CascadeP50OnMs
	}
	if rec.MemoP50OnMs > 0 {
		rec.MemoSpeedup = rec.MemoP50OffMs / rec.MemoP50OnMs
	}
	return rec, nil
}

// The replay suite records replaySingles single requests and
// replayBatches batches of replayBatchSize, then replays them once
// sequentially and once over replayConcurrency workers.
const (
	replaySingles     = 16
	replayBatches     = 2
	replayBatchSize   = 4
	replayConcurrency = 4
)

// replayBench is BENCH_replay.json: the record → feedback → replay
// cycle against one live registry-backed server.
type replayBench struct {
	benchHost
	// Records captured and replayed; Predictions counts individual
	// predictions inside them (batch items included).
	Records         int `json:"records"`
	Predictions     int `json:"predictions"`
	FeedbackReports int `json:"feedback_reports"`
	Concurrency     int `json:"concurrency"`
	// Mismatches must be zero: a replayed capture against the same
	// model must reproduce every recorded prediction.
	Mismatches        int     `json:"mismatches"`
	SequentialSeconds float64 `json:"sequential_seconds"`
	ConcurrentSeconds float64 `json:"concurrent_seconds"`
	// Speedup = sequential/concurrent wall time for the same records.
	Speedup           float64          `json:"speedup"`
	SequentialLatency latencyQuantiles `json:"sequential_latency"`
	ConcurrentLatency latencyQuantiles `json:"concurrent_latency"`
	// Quality summarises /v1/admin/quality after the feedback reports:
	// the measured top-1 accuracy and regret median of the served model
	// on this run's traffic.
	QualitySamples   int64   `json:"quality_samples"`
	QualityAccuracy  float64 `json:"quality_accuracy"`
	QualityRegretP50 float64 `json:"quality_regret_p50"`
}

// With at least 4 CPUs concurrent replay against a parallel server
// should beat one request at a time; on fewer it cannot pay.
var replayGates = []benchGate{{field: "speedup", strict: 1.5, minCPUs: 4, floor: 0.60}}

func benchReplay() (any, error) {
	art, _, arch, err := benchModel()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "bench-replay")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	artPath := filepath.Join(tmp, "model.gob")
	if err := serve.SaveFile(artPath, art); err != nil {
		return nil, err
	}
	// The registry backs the quality windows; the capture writer records
	// every answered request. Replayed requests run the live model
	// again; the feature memo only spares them the parse.
	capture, err := obs.NewCaptureWriter(filepath.Join(tmp, "capture"), obs.DefaultCaptureFileBytes)
	if err != nil {
		return nil, err
	}
	defer capture.Close() // for error paths; Close is idempotent and checked below
	reg := registry.New()
	if err := reg.Configure(arch.Name, artPath); err != nil {
		return nil, err
	}
	srv, err := serve.NewBackendServer(reg, serve.Config{
		MaxBatchItems: replayBatchSize, AdminToken: benchAdminToken, Capture: capture,
	})
	if err != nil {
		return nil, err
	}
	if err := reg.LoadAll(); err != nil {
		return nil, err
	}
	addr, stop, err := serveLoopback(srv.Handler())
	if err != nil {
		return nil, err
	}
	defer stop()
	base := "http://" + addr
	client := &http.Client{Timeout: time.Minute}

	// Keep only matrices every format can hold, so the simulator sweep
	// yields full feedback (finite times for all four formats).
	need := replaySingles + replayBatches*replayBatchSize
	items, bodies, err := matrixBodies(benchMixSeed, need+8)
	if err != nil {
		return nil, err
	}
	var mix [][]byte
	var times []map[string]float64 // per-format measured ms
	formats := serve.KernelFormatNames()
	for i, it := range items {
		if len(mix) == need {
			break
		}
		meas := arch.Measure(it.Name, gpusim.NewProfile(it.Matrix))
		if !meas.Feasible() {
			continue
		}
		t := make(map[string]float64, len(formats))
		for k, f := range formats {
			t[f] = meas.Times[k] * 1e3
		}
		mix, times = append(mix, bodies[i]), append(times, t)
	}
	if len(mix) < need {
		return nil, fmt.Errorf("only %d of %d needed matrices are feasible on every format", len(mix), need)
	}

	// Record the mix, each request followed by its feedback report.
	fmt.Fprintf(os.Stderr, "bench: recording %d singles + %d batches with feedback...\n", replaySingles, replayBatches)
	feedback := func(report map[string]any) error {
		data, err := json.Marshal(report)
		if err == nil {
			_, err = postBody(client, base+"/v1/feedback", "application/json", "", data)
		}
		return err
	}
	for i := 0; i < replaySingles; i++ {
		id := fmt.Sprintf("bench-replay-%03d", i)
		if _, err := postBody(client, base+"/v1/predict/matrix", "text/plain", id, mix[i]); err != nil {
			return nil, err
		}
		if err := feedback(map[string]any{"request_id": id, "times_ms": times[i]}); err != nil {
			return nil, err
		}
	}
	for b := 0; b < replayBatches; b++ {
		lo := replaySingles + b*replayBatchSize
		id := fmt.Sprintf("bench-replay-batch-%02d", b)
		if _, err := postBody(client, base+"/v1/predict/batch", "text/plain", id, bytes.Join(mix[lo:lo+replayBatchSize], nil)); err != nil {
			return nil, err
		}
		for j := 0; j < replayBatchSize; j++ {
			if err := feedback(map[string]any{"request_id": id, "item": j, "times_ms": times[lo+j]}); err != nil {
				return nil, err
			}
		}
	}
	if err := capture.Close(); err != nil {
		return nil, err
	}

	// Replay against the same live server: sequentially (the
	// determinism check) and concurrently (the throughput gate).
	recs, err := loadCapture(capture.Dir())
	if err != nil {
		return nil, fmt.Errorf("reading back the capture: %w", err)
	}
	predictions := 0
	for _, r := range recs {
		predictions += len(r.rec.Predictions)
	}
	seq, seqDetails := replayPass(base, recs, 1, time.Minute)
	conc, concDetails := replayPass(base, recs, replayConcurrency, time.Minute)
	for _, d := range append(seqDetails, concDetails...) {
		fmt.Fprintf(os.Stderr, "bench: %s\n", d)
	}
	if failures := seq.Failures + conc.Failures; failures > 0 {
		return nil, fmt.Errorf("%d replayed requests failed", failures)
	}
	if mismatches := seq.Mismatches + conc.Mismatches; mismatches > 0 {
		return nil, fmt.Errorf("%d replayed predictions differ from the recording", mismatches)
	}

	// The quality report must show the feedback landed.
	body, err := fetchAdminJSON(addr, "/v1/admin/quality", benchAdminToken, time.Minute)
	if err != nil {
		return nil, err
	}
	var quality registry.QualityReportData
	if err := json.Unmarshal(body, &quality); err != nil {
		return nil, fmt.Errorf("decoding /v1/admin/quality: %w", err)
	}
	rec := replayBench{
		benchHost:         thisHost(),
		Records:           len(recs),
		Predictions:       predictions,
		FeedbackReports:   need,
		Concurrency:       replayConcurrency,
		SequentialSeconds: seq.Seconds,
		ConcurrentSeconds: conc.Seconds,
		SequentialLatency: seq.Latency,
		ConcurrentLatency: conc.Latency,
	}
	if conc.Seconds > 0 {
		rec.Speedup = seq.Seconds / conc.Seconds
	}
	for _, ar := range quality.Arches {
		rec.QualitySamples += ar.Samples
		if ar.Samples > 0 {
			rec.QualityAccuracy, rec.QualityRegretP50 = ar.Accuracy, ar.RegretP50
		}
	}
	if rec.QualitySamples == 0 {
		return nil, errors.New("/v1/admin/quality shows no full feedback outcomes")
	}
	if math.Abs(rec.QualityAccuracy) > 1 {
		return nil, fmt.Errorf("quality accuracy %v outside [0,1]", rec.QualityAccuracy)
	}
	return rec, nil
}

const (
	fleetReplicas = 3
	fleetRounds   = 3
)

// fleetBench is BENCH_fleet.json: the request mix through the proxy
// fronting one replica versus fleetReplicas, every replica serial
// (MaxConcurrent 1) with the feature memo off, so added throughput can
// only come from the ring spreading load.
type fleetBench struct {
	benchHost
	Replicas int `json:"replicas"`
	Matrices int `json:"matrices"`
	Rounds   int `json:"rounds"`
	// Concurrency is the client worker count, identical for both fleet
	// sizes so queueing pressure is the same.
	Concurrency int `json:"concurrency"`
	// EqualityChecked counts proxy answers byte-compared against
	// direct-replica answers; the run aborts on the first mismatch.
	EqualityChecked int     `json:"equality_checked"`
	OneSeconds      float64 `json:"one_replica_seconds"`
	FleetSeconds    float64 `json:"fleet_seconds"`
	OneRPS          float64 `json:"one_replica_rps"`
	FleetRPS        float64 `json:"fleet_rps"`
	// Speedup = FleetRPS / OneRPS for the same total predictions.
	Speedup    float64          `json:"speedup"`
	Gate       float64          `json:"gate"`
	OneLatency latencyQuantiles `json:"one_replica_latency"`
	FleetLat   latencyQuantiles `json:"fleet_latency"`
}

// With more CPUs than replicas the serial replicas genuinely run in
// parallel, so scaling must be at least half-linear; otherwise they
// time-share the same cores and the fleet cannot scale.
var fleetGates = []benchGate{{field: "speedup", strict: 0.5 * fleetReplicas, minCPUs: fleetReplicas + 1, floor: 0.80}}

func benchFleet() (any, error) {
	art, _, _, err := benchModel()
	if err != nil {
		return nil, err
	}
	_, bodies, err := matrixBodies(benchMixSeed, benchMixMatrices)
	if err != nil {
		return nil, err
	}
	replicas := make([]string, fleetReplicas)
	for i := range replicas {
		_, addr, stop, err := serveArtifact(art, serve.Config{FeatMemoSize: -1, MaxConcurrent: 1})
		if err != nil {
			return nil, fmt.Errorf("starting replica %d: %w", i, err)
		}
		defer stop()
		replicas[i] = addr
	}
	// Hedging is off (HedgeAfter an hour): with every replica serial,
	// queueing is expected, and a hedge would double the load.
	startProxy := func(fleet []string) (string, func(), error) {
		p, err := proxy.New(proxy.Config{Replicas: fleet, HedgeAfter: time.Hour, Timeout: 5 * time.Minute})
		if err != nil {
			return "", nil, err
		}
		p.CheckAll(context.Background())
		return serveLoopback(p.Handler())
	}
	fleet, stop, err := startProxy(replicas)
	if err != nil {
		return nil, err
	}
	defer stop()
	one, stop, err := startProxy(replicas[:1])
	if err != nil {
		return nil, err
	}
	defer stop()
	client := &http.Client{Timeout: 5 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 4 * fleetReplicas}}

	// Correctness first: routing must never change an answer, so every
	// proxied answer must equal the direct replica answer byte for byte.
	proxied := predictSide(client, fleet, bodies)
	_, _, want, err := runPass(predictSide(client, replicas[0], bodies), 1)
	if err != nil {
		return nil, fmt.Errorf("direct predict: %w", err)
	}
	_, _, got, err := runPass(proxied, 1)
	if err != nil {
		return nil, fmt.Errorf("proxied predict: %w", err)
	}
	for i := range bodies {
		if !bytes.Equal(got[i], want[i]) {
			return nil, fmt.Errorf("body %d: proxied answer differs from direct replica answer\nproxy:  %s\ndirect: %s", i, got[i], want[i])
		}
	}

	conc := 2 * fleetReplicas
	fmt.Fprintf(os.Stderr, "bench: %d matrices x %d rounds, %d client workers, 1 vs %d replicas...\n",
		len(bodies), fleetRounds, conc, fleetReplicas)
	t, err := timeSides(fleetRounds, conc, predictSide(client, one, bodies), proxied)
	if err != nil {
		return nil, err
	}
	total := float64(len(bodies))
	return fleetBench{
		benchHost:       thisHost(),
		Replicas:        fleetReplicas,
		Matrices:        len(bodies),
		Rounds:          fleetRounds,
		Concurrency:     conc,
		EqualityChecked: len(bodies),
		OneSeconds:      t[0].best.Seconds(),
		FleetSeconds:    t[1].best.Seconds(),
		OneRPS:          total / t[0].best.Seconds(),
		FleetRPS:        total / t[1].best.Seconds(),
		Speedup:         t[0].best.Seconds() / t[1].best.Seconds(),
		Gate:            fleetGates[0].threshold(runtime.NumCPU()),
		OneLatency:      quantiles(t[0].all),
		FleetLat:        quantiles(t[1].all),
	}, nil
}

const tracingRounds = 5

// traceBench is the serve_tracing section of BENCH_obs.json: the
// request mix served with the span pipeline and tail-sampled trace
// store on (the default) and off, compared at p50 of the per-body
// fastest rounds. obs.ReadReport ignores keys it does not know, so the
// run report stays readable.
type traceBench struct {
	benchHost
	Matrices   int              `json:"matrices"`
	Rounds     int              `json:"rounds"`
	OffLatency latencyQuantiles `json:"tracing_off_latency"`
	OnLatency  latencyQuantiles `json:"tracing_on_latency"`
	// P50OverheadFrac = on/off - 1 at p50; MaxOverheadFrac is its gate.
	P50OverheadFrac float64 `json:"p50_overhead_frac"`
	MaxOverheadFrac float64 `json:"max_overhead_frac"`
	// RetainedTraces is the traced server's trace-store population after
	// the run: tail sampling at work while the overhead stayed in budget.
	RetainedTraces int `json:"retained_traces"`
}

// Always-on tracing may cost at most 5% of the untraced p50, the budget
// DESIGN.md commits to.
var tracingGates = []benchGate{{field: "p50_overhead_frac", atMost: true, strict: 0.05}}

func benchTracing() (any, error) {
	art, _, _, err := benchModel()
	if err != nil {
		return nil, err
	}
	_, bodies, err := matrixBodies(benchMixSeed, benchMixMatrices)
	if err != nil {
		return nil, err
	}
	// Both servers recompute every request (feature memo off), so the
	// span pipeline wraps real parse/extract/predict work; they differ
	// only in tracing.
	_, off, stop, err := serveArtifact(art, serve.Config{FeatMemoSize: -1, TraceCapacity: -1})
	if err != nil {
		return nil, err
	}
	defer stop()
	_, on, stop, err := serveArtifact(art, serve.Config{FeatMemoSize: -1, AdminToken: benchAdminToken})
	if err != nil {
		return nil, err
	}
	defer stop()
	client := &http.Client{Timeout: time.Minute}
	fmt.Fprintf(os.Stderr, "bench: %d matrices x %d interleaved rounds, tracing off and on...\n", len(bodies), tracingRounds)
	t, err := timeSides(tracingRounds, 1, predictSide(client, off, bodies), predictSide(client, on, bodies))
	if err != nil {
		return nil, err
	}
	// Tracing is observation: any answer difference means the span
	// pipeline leaked into the prediction path.
	for i := range bodies {
		if !bytes.Equal(t[1].answers[i], t[0].answers[i]) {
			return nil, fmt.Errorf("body %d: traced server answered %s, untraced %s: tracing changed an answer",
				i, t[1].answers[i], t[0].answers[i])
		}
	}
	rec := traceBench{
		benchHost:       thisHost(),
		Matrices:        len(bodies),
		Rounds:          tracingRounds,
		OffLatency:      quantiles(t[0].min),
		OnLatency:       quantiles(t[1].min),
		MaxOverheadFrac: tracingGates[0].strict,
	}
	if rec.OffLatency.P50Ms > 0 {
		rec.P50OverheadFrac = rec.OnLatency.P50Ms/rec.OffLatency.P50Ms - 1
	}
	// The traced server's store population, through the admin API
	// operators use.
	if body, err := fetchAdminJSON(on, "/v1/admin/trace", benchAdminToken, time.Minute); err == nil {
		var list obs.TraceList
		if json.Unmarshal(body, &list) == nil {
			rec.RetainedTraces = list.Count
		}
	}
	return rec, nil
}
