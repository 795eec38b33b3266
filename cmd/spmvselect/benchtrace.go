package main

// benchtrace measures what always-on request tracing costs: the same
// un-cached single-predict mix served by one server with the span
// pipeline plus tail-sampled trace store enabled (the default) and one
// with -trace -1, per-body best-of-rounds latencies compared at p50.
// The measurement is merged into BENCH_obs.json as a "serve_tracing"
// section (obs.ReadReport ignores keys it does not know, so the run
// report stays readable) and gated: tracing must cost at most
// -max-overhead of the untraced p50, the budget DESIGN.md commits to.

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// traceBench is the committed record of one benchtrace run, the
// "serve_tracing" section of BENCH_obs.json.
type traceBench struct {
	CPUs       int `json:"cpus"`
	GOMAXPROCS int `json:"gomaxprocs"`
	Matrices   int `json:"matrices"`
	Rounds     int `json:"rounds"`
	// Per-request latency quantiles of the same mix with tracing off
	// (-trace -1) and on (the default: span trees + trace-store offers
	// on every predict request).
	OffLatency latencyQuantiles `json:"tracing_off_latency"`
	OnLatency  latencyQuantiles `json:"tracing_on_latency"`
	// P50OverheadFrac = on/off - 1 at p50; the gate this run enforced.
	P50OverheadFrac float64 `json:"p50_overhead_frac"`
	MaxOverheadFrac float64 `json:"max_overhead_frac"`
	// RetainedTraces is the traced server's trace-store population after
	// the run — tail sampling at work while the overhead stayed in budget.
	RetainedTraces int `json:"retained_traces"`
}

func cmdBenchTrace(args []string) error {
	fs := flag.NewFlagSet("benchtrace", flag.ExitOnError)
	count := fs.Int("matrices", 24, "number of distinct matrices in the request mix")
	rounds := fs.Int("rounds", 5, "passes over the matrix set per server (per-body minimum wins)")
	clusters := fs.Int("clusters", 16, "K-Means clusters for the served model")
	out := fs.String("out", "BENCH_obs.json", "report file to merge the serve_tracing section into")
	maxOverhead := fs.Float64("max-overhead", 0.05,
		"fail when tracing-on p50 exceeds tracing-off p50 by more than this fraction")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ms, best, arch, err := labelledTrainingSet("Turing", true)
	if err != nil {
		return fmt.Errorf("benchtrace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "benchtrace: training semisup on %d matrices (%s)...\n", len(ms), arch.Name)
	sel, err := core.TrainSelector(ms, best, core.Options{NumClusters: *clusters, Seed: 1})
	if err != nil {
		return fmt.Errorf("benchtrace: %w", err)
	}
	art := serve.NewSemisupArtifact(sel.Model(), arch.Name)

	items, err := dataset.Generate(dataset.Config{
		Seed: 99, BaseCount: *count, Scale: 0.5, DropELLFailures: true,
	})
	if err != nil {
		return fmt.Errorf("benchtrace: %w", err)
	}
	if len(items) < *count {
		*count = len(items)
	}
	bodies := make([][]byte, *count)
	for i := 0; i < *count; i++ {
		var buf bytes.Buffer
		if err := sparse.WriteMatrixMarket(&buf, items[i].Matrix); err != nil {
			return fmt.Errorf("benchtrace: %w", err)
		}
		bodies[i] = buf.Bytes()
	}

	// Both servers recompute every request — feature memo off — so the
	// span pipeline wraps real parse/extract/predict work, not a memo
	// hit. The only difference between the two is TraceCapacity.
	startServer := func(cfg serve.Config) (string, func(), error) {
		cfg.FeatMemoSize = -1
		srv, err := serve.NewServer(art, cfg)
		if err != nil {
			return "", nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", nil, err
		}
		server := &http.Server{Handler: srv.Handler()}
		go server.Serve(ln)
		return "http://" + ln.Addr().String(), func() { server.Close() }, nil
	}
	offBase, offClose, err := startServer(serve.Config{TraceCapacity: -1, SlowRequest: -1, TraceSample: -1})
	if err != nil {
		return fmt.Errorf("benchtrace: %w", err)
	}
	defer offClose()
	onBase, onClose, err := startServer(serve.Config{AdminToken: "benchtrace"})
	if err != nil {
		return fmt.Errorf("benchtrace: %w", err)
	}
	defer onClose()
	client := &http.Client{Timeout: time.Minute}

	// one posts body i to base, folding the duration into the per-body
	// minimum (scheduler noise only ever adds time) and keeping the
	// answered format.
	one := func(base string, i int, lat []time.Duration, formats []string) error {
		start := time.Now()
		resp, err := client.Post(base+"/v1/predict/matrix", "text/plain", bytes.NewReader(bodies[i]))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var ans struct {
			Format string `json:"format"`
			Msg    string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
			return err
		}
		d := time.Since(start)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s %s", resp.Status, ans.Msg)
		}
		if lat != nil {
			if lat[i] == 0 || d < lat[i] {
				lat[i] = d
			}
			formats[i] = ans.Format
		}
		return nil
	}
	pass := func(base string, lat []time.Duration, formats []string) error {
		for i := range bodies {
			if err := one(base, i, lat, formats); err != nil {
				return err
			}
		}
		return nil
	}

	// Interleaved rounds: each round serves the full mix on the untraced
	// then the traced server, so slow drift of the host (frequency
	// scaling, background GC, cache state) lands on both columns instead
	// of biasing whichever ran second.
	if err := pass(offBase, nil, nil); err != nil { // warmup
		return fmt.Errorf("benchtrace: warmup: %w", err)
	}
	if err := pass(onBase, nil, nil); err != nil {
		return fmt.Errorf("benchtrace: warmup: %w", err)
	}
	fmt.Fprintf(os.Stderr, "benchtrace: %d matrices x %d interleaved rounds...\n", *count, *rounds)
	offLat := make([]time.Duration, len(bodies))
	onLat := make([]time.Duration, len(bodies))
	offFmt := make([]string, len(bodies))
	onFmt := make([]string, len(bodies))
	for r := 0; r < *rounds; r++ {
		if err := pass(offBase, offLat, offFmt); err != nil {
			return fmt.Errorf("benchtrace: tracing-off pass: %w", err)
		}
		if err := pass(onBase, onLat, onFmt); err != nil {
			return fmt.Errorf("benchtrace: tracing-on pass: %w", err)
		}
	}
	// Tracing is observation: any answer difference means the span
	// pipeline leaked into the prediction path.
	for i := range bodies {
		if onFmt[i] != offFmt[i] {
			return fmt.Errorf("benchtrace: body %d: traced server answered %q, untraced %q — tracing changed a prediction",
				i, onFmt[i], offFmt[i])
		}
	}

	// The traced server's store population, through the same admin API
	// operators use.
	retained := 0
	if body, err := fetchAdminJSON(onBase[len("http://"):], "/v1/admin/trace", "benchtrace", time.Minute); err == nil {
		var list struct {
			Count int `json:"count"`
		}
		if json.Unmarshal(body, &list) == nil {
			retained = list.Count
		}
	}

	res := traceBench{
		CPUs:            runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Matrices:        *count,
		Rounds:          *rounds,
		OffLatency:      quantiles(offLat),
		OnLatency:       quantiles(onLat),
		MaxOverheadFrac: *maxOverhead,
		RetainedTraces:  retained,
	}
	if res.OffLatency.P50Ms > 0 {
		res.P50OverheadFrac = res.OnLatency.P50Ms/res.OffLatency.P50Ms - 1
	}
	if err := mergeReportSection(*out, "serve_tracing", res); err != nil {
		return fmt.Errorf("benchtrace: %w", err)
	}
	fmt.Printf("benchtrace: %d cpus: p50 %.2fms untraced vs %.2fms traced (%+.1f%%), %d traces retained -> %s\n",
		res.CPUs, res.OffLatency.P50Ms, res.OnLatency.P50Ms, 100*res.P50OverheadFrac, retained, *out)

	if res.P50OverheadFrac > *maxOverhead {
		return fmt.Errorf("benchtrace: tracing p50 overhead %.1f%% above the %.0f%% budget",
			100*res.P50OverheadFrac, 100**maxOverhead)
	}
	return nil
}

// mergeReportSection sets one top-level key of a JSON file, preserving
// every other key byte-for-byte modulo re-indentation. A missing file
// starts an object holding only the new section.
func mergeReportSection(path, key string, section any) error {
	doc := map[string]json.RawMessage{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("merging into %s: %w", path, err)
		}
	case errors.Is(err, os.ErrNotExist):
	default:
		return err
	}
	raw, err := json.Marshal(section)
	if err != nil {
		return err
	}
	doc[key] = raw
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
