package main

// benchserve measures the serving path: the same set of matrices
// predicted one HTTP request at a time versus grouped into
// /v1/predict/batch requests, against a real loopback listener so
// per-request overhead (connection handling, routing, body copies) is
// part of what batching has to amortise — plus a cascade-on vs
// cascade-off single-predict comparison of the same model with and
// without the cheap-first stage, and a feature-memo on/off comparison
// on repeat bodies. The result is committed as BENCH_serve.json and
// gated so CI catches the batch path regressing below plain sequential
// serving, the cascade threshold missing its calibrated agreement
// target, the cheap path losing its latency advantage on
// above-threshold traffic, or the memo losing its repeat-body win.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// latencyQuantiles summarises the per-request latencies of one endpoint
// across every timed round.
type latencyQuantiles struct {
	Requests int     `json:"requests"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`
}

// quantiles computes the summary by nearest-rank over the recorded
// request durations.
func quantiles(durs []time.Duration) latencyQuantiles {
	if len(durs) == 0 {
		return latencyQuantiles{}
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return float64(sorted[i]) / float64(time.Millisecond)
	}
	return latencyQuantiles{
		Requests: len(sorted),
		P50Ms:    at(0.50),
		P95Ms:    at(0.95),
		P99Ms:    at(0.99),
		MaxMs:    float64(sorted[len(sorted)-1]) / float64(time.Millisecond),
	}
}

// serveBench is the committed record of one benchserve run.
type serveBench struct {
	CPUs          int     `json:"cpus"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
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
	// batch request carries -batch matrices, so its latencies are not
	// per-prediction.
	SingleLatency latencyQuantiles `json:"single_latency"`
	BatchLatency  latencyQuantiles `json:"batch_latency"`
	// Cascade-on vs cascade-off single-predict comparison: the same
	// request mix served by the same model with and without the
	// cheap-first stage (per-body best-of-rounds latencies).
	CascadeSeconds float64          `json:"cascade_seconds"`
	CascadeRPS     float64          `json:"cascade_rps"`
	CascadeLatency latencyQuantiles `json:"cascade_latency"`
	// CascadeHitRate is the cheap-stage answer fraction on the bench
	// mix; CascadeMixAgreement the cascade-on/off format agreement on
	// the full mix; the Heldout/Target pair is the train-time
	// calibration the agreement gate enforces.
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
	// Feature-memo on vs off: the same model and mix with the
	// body-hash→features memo enabled, every timed request a repeat
	// body (the off column is the memo-disabled baseline above).
	MemoP50OffMs float64 `json:"memo_p50_off_ms"`
	MemoP50OnMs  float64 `json:"memo_p50_on_ms"`
	MemoSpeedup  float64 `json:"memo_speedup"`
	// MemoHitRate is hits/(hits+misses) over the memo pass; warmup
	// misses once per body, every timed round hits.
	MemoHitRate float64 `json:"memo_hit_rate"`
}

func cmdBenchServe(args []string) error {
	fs := flag.NewFlagSet("benchserve", flag.ExitOnError)
	count := fs.Int("matrices", 24, "number of distinct matrices in the request mix")
	batchSize := fs.Int("batch", 8, "matrices per /v1/predict/batch request")
	rounds := fs.Int("rounds", 3, "passes over the matrix set per path")
	clusters := fs.Int("clusters", 16, "K-Means clusters for the served model")
	out := fs.String("out", "BENCH_serve.json", "output JSON path")
	minSpeedup := fs.Float64("min-speedup", 0,
		"fail below this batch/single throughput ratio; 0 picks 2.0 when the host has >= 4 CPUs and 0.80 otherwise")
	cascadeTarget := fs.Float64("cascade-target-agreement", 0.90,
		"agreement target the cascade threshold is calibrated to")
	cascadeMinSpeedup := fs.Float64("cascade-min-speedup", 0,
		"fail below this cascade-on/off p50 ratio on above-threshold traffic; 0 picks 2.0 when the host has >= 4 CPUs and 0.80 otherwise")
	memoMinSpeedup := fs.Float64("memo-min-speedup", 0,
		"fail below this memo-on/off p50 ratio on repeat bodies; 0 picks 1.2 when the host has >= 4 CPUs and 0.80 otherwise")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *batchSize < 2 {
		return fmt.Errorf("benchserve: -batch %d: need >= 2 to amortise anything", *batchSize)
	}

	ms, best, arch, err := labelledTrainingSet("Turing", true)
	if err != nil {
		return fmt.Errorf("benchserve: %w", err)
	}
	fmt.Fprintf(os.Stderr, "benchserve: training semisup on %d matrices (%s)...\n", len(ms), arch.Name)
	sel, err := core.TrainSelector(ms, best, core.Options{NumClusters: *clusters, Seed: 1})
	if err != nil {
		return fmt.Errorf("benchserve: %w", err)
	}
	art := serve.NewSemisupArtifact(sel.Model(), arch.Name)

	// The request mix reuses the corpus generator at a different seed so
	// the served matrices are not the training set.
	items, err := dataset.Generate(dataset.Config{
		Seed: 99, BaseCount: *count, Scale: 0.5, DropELLFailures: true,
	})
	if err != nil {
		return fmt.Errorf("benchserve: %w", err)
	}
	if len(items) < *count {
		*count = len(items)
	}
	bodies := make([][]byte, *count)
	for i := 0; i < *count; i++ {
		var buf bytes.Buffer
		if err := sparse.WriteMatrixMarket(&buf, items[i].Matrix); err != nil {
			return fmt.Errorf("benchserve: %w", err)
		}
		bodies[i] = buf.Bytes()
	}
	// Batches use the text form — concatenated MatrixMarket files — so
	// the server splits on banner lines instead of JSON-decoding
	// megabytes of escaped matrix text.
	var batchBodies [][]byte
	for lo := 0; lo < *count; lo += *batchSize {
		hi := min(lo+*batchSize, *count)
		batchBodies = append(batchBodies, bytes.Join(bodies[lo:hi], nil))
	}

	// Feature memo disabled: round two onward must recompute — parse,
	// extract, infer — not skip parsing for a repeat body.
	srv, err := serve.NewServer(art, serve.Config{FeatMemoSize: -1, MaxBatchItems: *count})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	server := &http.Server{Handler: srv.Handler()}
	go server.Serve(ln)
	defer server.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: time.Minute}

	// post times each request; lat != nil collects the duration (timed
	// rounds record, warmup passes nil and stays out of the quantiles).
	post := func(path string, body []byte, contentType string, lat *[]time.Duration) error {
		start := time.Now()
		resp, err := client.Post(base+path, contentType, bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var ans struct {
			Errors  int    `json:"errors"`
			Format  string `json:"format"`
			Message string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
			return fmt.Errorf("POST %s: %w", path, err)
		}
		if lat != nil {
			*lat = append(*lat, time.Since(start))
		}
		if resp.StatusCode != http.StatusOK || ans.Errors != 0 {
			return fmt.Errorf("POST %s: %s (%d item errors) %s", path, resp.Status, ans.Errors, ans.Message)
		}
		return nil
	}
	var singleLat, batchLat []time.Duration
	singlePass := func(record bool) error {
		lat := &singleLat
		if !record {
			lat = nil
		}
		for _, b := range bodies {
			if err := post("/v1/predict/matrix", b, "text/plain", lat); err != nil {
				return err
			}
		}
		return nil
	}
	batchPass := func(record bool) error {
		lat := &batchLat
		if !record {
			lat = nil
		}
		for _, b := range batchBodies {
			if err := post("/v1/predict/batch", b, "text/plain", lat); err != nil {
				return err
			}
		}
		return nil
	}

	// One untimed pass of each warms the connection pool and the scratch
	// buffers before measurement.
	if err := singlePass(false); err != nil {
		return fmt.Errorf("benchserve: warmup: %w", err)
	}
	if err := batchPass(false); err != nil {
		return fmt.Errorf("benchserve: warmup: %w", err)
	}

	fmt.Fprintf(os.Stderr, "benchserve: %d matrices x %d rounds, batch size %d...\n",
		*count, *rounds, *batchSize)
	// Best-of-rounds: each round serves the full matrix set, and the
	// fastest round represents the path (scheduler noise only ever adds
	// time).
	timePasses := func(pass func(record bool) error) (time.Duration, error) {
		var best time.Duration
		for r := 0; r < *rounds; r++ {
			start := time.Now()
			if err := pass(true); err != nil {
				return 0, err
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}
	singleDur, err := timePasses(singlePass)
	if err != nil {
		return fmt.Errorf("benchserve: single pass: %w", err)
	}
	batchDur, err := timePasses(batchPass)
	if err != nil {
		return fmt.Errorf("benchserve: batch pass: %w", err)
	}

	// Cascade comparison: the same semisup model with a distilled
	// cheap-first stage, on its own listener, against the same mix.
	casc, err := serve.TrainCascade(art, features.Matrix(features.ExtractAll(ms)),
		serve.CascadeOptions{TargetAgreement: *cascadeTarget, Seed: 1})
	if err != nil {
		return fmt.Errorf("benchserve: %w", err)
	}
	if casc.Threshold > 1 {
		return fmt.Errorf("benchserve: cascade calibration could not reach target agreement %.2f", *cascadeTarget)
	}
	cart := *art
	cart.Cascade = casc
	csrv, err := serve.NewServer(&cart, serve.Config{FeatMemoSize: -1, MaxBatchItems: *count})
	if err != nil {
		return err
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	cserver := &http.Server{Handler: csrv.Handler()}
	go cserver.Serve(cln)
	defer cserver.Close()
	cbase := "http://" + cln.Addr().String()

	// measure serves every body -rounds times against one base URL and
	// keeps the per-body minimum latency (scheduler noise only ever adds
	// time), plus the answered format and cascade stage.
	measure := func(base string) (lat []time.Duration, formats, stages []string, err error) {
		lat = make([]time.Duration, len(bodies))
		formats = make([]string, len(bodies))
		stages = make([]string, len(bodies))
		one := func(i int, record bool) error {
			start := time.Now()
			resp, err := client.Post(base+"/v1/predict/matrix", "text/plain", bytes.NewReader(bodies[i]))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			var ans struct {
				Format string `json:"format"`
				Stage  string `json:"stage"`
				Msg    string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
				return err
			}
			d := time.Since(start)
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("%s %s", resp.Status, ans.Msg)
			}
			if record {
				if lat[i] == 0 || d < lat[i] {
					lat[i] = d
				}
				formats[i], stages[i] = ans.Format, ans.Stage
			}
			return nil
		}
		for i := range bodies { // warmup
			if err := one(i, false); err != nil {
				return nil, nil, nil, err
			}
		}
		for r := 0; r < *rounds; r++ {
			for i := range bodies {
				if err := one(i, true); err != nil {
					return nil, nil, nil, err
				}
			}
		}
		return lat, formats, stages, nil
	}
	fmt.Fprintf(os.Stderr, "benchserve: cascade threshold %.3f (held-out agreement %.3f), comparing on/off...\n",
		casc.Threshold, casc.HeldoutAgreement)
	offLat, offFmt, _, err := measure(base)
	if err != nil {
		return fmt.Errorf("benchserve: cascade-off pass: %w", err)
	}
	onLat, onFmt, onStage, err := measure(cbase)
	if err != nil {
		return fmt.Errorf("benchserve: cascade-on pass: %w", err)
	}

	// Feature-memo comparison: the same artifact with the body-hash
	// memo enabled, on its own listener. measure's warmup pass populates
	// the memo (one miss per body), so every timed request afterwards is
	// a repeat — exactly the traffic the memo fronts.
	msrv, err := serve.NewServer(art, serve.Config{MaxBatchItems: *count})
	if err != nil {
		return err
	}
	mln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	mserver := &http.Server{Handler: msrv.Handler()}
	go mserver.Serve(mln)
	defer mserver.Close()
	mhits0, mmisses0 := msrv.FeatMemoStats()
	fmt.Fprintln(os.Stderr, "benchserve: memo-on pass...")
	memoLat, memoFmt, _, err := measure("http://" + mln.Addr().String())
	if err != nil {
		return fmt.Errorf("benchserve: memo-on pass: %w", err)
	}
	mhits, mmisses := msrv.FeatMemoStats()
	mhits, mmisses = mhits-mhits0, mmisses-mmisses0
	// Memoized features must be invisible in the answers: any format
	// differing from the computed baseline means the memo served wrong
	// or stale features, and no measurement excuses that.
	for i := range bodies {
		if memoFmt[i] != offFmt[i] {
			return fmt.Errorf("benchserve: body %d: memo-on server answered %q, memo-off %q — memoized features changed a prediction",
				i, memoFmt[i], offFmt[i])
		}
	}
	var aboveOn, aboveOff []time.Duration
	var cascadeSum time.Duration
	agree, hits := 0, 0
	for i := range bodies {
		cascadeSum += onLat[i]
		if onFmt[i] == offFmt[i] {
			agree++
		}
		if onStage[i] == serve.StageCheap {
			hits++
			aboveOn = append(aboveOn, onLat[i])
			aboveOff = append(aboveOff, offLat[i])
		}
	}

	total := float64(*count)
	res := serveBench{
		CPUs:          runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Matrices:      *count,
		BatchSize:     *batchSize,
		Rounds:        *rounds,
		SingleSeconds: singleDur.Seconds(),
		BatchSeconds:  batchDur.Seconds(),
		SingleRPS:     total / singleDur.Seconds(),
		BatchRPS:      total / batchDur.Seconds(),
		Speedup:       singleDur.Seconds() / batchDur.Seconds(),
		SingleLatency: quantiles(singleLat),
		BatchLatency:  quantiles(batchLat),

		CascadeSeconds:          cascadeSum.Seconds(),
		CascadeRPS:              total / cascadeSum.Seconds(),
		CascadeLatency:          quantiles(onLat),
		CascadeHitRate:          float64(hits) / total,
		CascadeMixAgreement:     float64(agree) / total,
		CascadeHeldoutAgreement: casc.HeldoutAgreement,
		CascadeTargetAgreement:  casc.TargetAgreement,
		CascadeThreshold:        casc.Threshold,
	}
	if hits > 0 {
		res.CascadeP50OffMs = quantiles(aboveOff).P50Ms
		res.CascadeP50OnMs = quantiles(aboveOn).P50Ms
		if res.CascadeP50OnMs > 0 {
			res.CascadeSpeedupAboveT = res.CascadeP50OffMs / res.CascadeP50OnMs
		}
	}
	res.MemoP50OffMs = quantiles(offLat).P50Ms
	res.MemoP50OnMs = quantiles(memoLat).P50Ms
	if res.MemoP50OnMs > 0 {
		res.MemoSpeedup = res.MemoP50OffMs / res.MemoP50OnMs
	}
	if mhits+mmisses > 0 {
		res.MemoHitRate = float64(mhits) / float64(mhits+mmisses)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchserve: %d cpus: %.0f predictions in %.2fs single (%.0f/s) vs %.2fs batched (%.0f/s), %.2fx -> %s\n",
		res.CPUs, total, res.SingleSeconds, res.SingleRPS, res.BatchSeconds, res.BatchRPS, res.Speedup, *out)
	fmt.Printf("benchserve: single latency p50 %.2fms p95 %.2fms p99 %.2fms; batch p50 %.2fms p95 %.2fms p99 %.2fms\n",
		res.SingleLatency.P50Ms, res.SingleLatency.P95Ms, res.SingleLatency.P99Ms,
		res.BatchLatency.P50Ms, res.BatchLatency.P95Ms, res.BatchLatency.P99Ms)

	gate := *minSpeedup
	if gate == 0 {
		if res.CPUs >= 4 {
			// Batch fan-out across the obs worker pool should beat
			// request-at-a-time serving comfortably on a multicore host.
			gate = 2.0
		} else {
			// Too few cores for parallel extraction to pay; only guard
			// against the batch path being pathologically slower than
			// sequential requests.
			gate = 0.80
		}
	}
	if res.Speedup < gate {
		return fmt.Errorf("benchserve: batch speedup %.2fx below the %.2fx gate", res.Speedup, gate)
	}

	fmt.Printf("benchserve: cascade hit rate %.2f, mix agreement %.2f, p50 %.2fms off vs %.2fms on above threshold (%.2fx)\n",
		res.CascadeHitRate, res.CascadeMixAgreement, res.CascadeP50OffMs, res.CascadeP50OnMs, res.CascadeSpeedupAboveT)
	// The agreement gate is machine-independent: the calibrated
	// threshold must actually deliver the target on held-out data.
	if res.CascadeHeldoutAgreement < res.CascadeTargetAgreement {
		return fmt.Errorf("benchserve: cascade held-out agreement %.3f below target %.2f",
			res.CascadeHeldoutAgreement, res.CascadeTargetAgreement)
	}
	if hits == 0 {
		return fmt.Errorf("benchserve: cascade cheap stage never fired on the bench mix")
	}
	cgate := *cascadeMinSpeedup
	if cgate == 0 {
		if res.CPUs >= 4 {
			// Skipping full extraction + PCA + cluster lookup should at
			// least halve p50 on confident traffic when the host isn't
			// starved for cores.
			cgate = 2.0
		} else {
			// On a small box HTTP + parse overhead dominates both paths;
			// only guard against the cascade being pathologically slower.
			cgate = 0.80
		}
	}
	if res.CascadeSpeedupAboveT < cgate {
		return fmt.Errorf("benchserve: cascade p50 speedup %.2fx below the %.2fx gate on above-threshold traffic",
			res.CascadeSpeedupAboveT, cgate)
	}

	fmt.Printf("benchserve: feature memo hit rate %.2f, p50 %.2fms off vs %.2fms on repeat bodies (%.2fx)\n",
		res.MemoHitRate, res.MemoP50OffMs, res.MemoP50OnMs, res.MemoSpeedup)
	if mhits == 0 {
		return fmt.Errorf("benchserve: feature memo never hit across %d repeat requests", *rounds**count)
	}
	mgate := *memoMinSpeedup
	if mgate == 0 {
		if res.CPUs >= 4 {
			// A memo hit skips MatrixMarket parsing and feature
			// extraction; even with HTTP overhead in both columns the
			// repeat-body p50 should drop noticeably.
			mgate = 1.2
		} else {
			// On a starved host per-request overhead dominates; only
			// guard against the memo path being pathologically slower.
			mgate = 0.80
		}
	}
	if res.MemoSpeedup < mgate {
		return fmt.Errorf("benchserve: memo p50 speedup %.2fx below the %.2fx gate on repeat bodies",
			res.MemoSpeedup, mgate)
	}
	return nil
}
