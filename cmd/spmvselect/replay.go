package main

// The traffic replay harness: `serve -record DIR` captures every
// prediction request (body plus routing metadata plus the answer) to
// rotating capture files; `replay` plays a capture directory back
// against a live server under controlled concurrency and rate, diffs
// the replayed predictions against the recorded ones, and reports
// latency quantiles — regression testing with production traffic
// instead of synthetic corpora. `benchreplay` is the self-contained CI
// form: it records a known request mix (including /v1/feedback
// outcome reports driven by simulator-measured kernel times), replays
// it sequentially and concurrently, and gates on byte-identical
// predictions plus a machine-aware throughput ratio (BENCH_replay.json).

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// replayRecord is one decoded capture entry ready to send.
type replayRecord struct {
	rec  serve.CaptureRecord
	body []byte
}

// loadCapture reads and decodes every record in a capture directory.
func loadCapture(dir string) ([]replayRecord, error) {
	var out []replayRecord
	err := obs.ReadCaptureDir(dir, func(raw []byte) error {
		rec, body, err := serve.DecodeCaptureRecord(raw)
		if err != nil {
			return err
		}
		out = append(out, replayRecord{rec: rec, body: body})
		return nil
	})
	return out, err
}

// skewEntry is one arch=weight pair from -arch-skew.
type skewEntry struct {
	arch   string
	weight float64
}

// parseSkew splits "turing=3,pascal=1" into weighted entries.
func parseSkew(spec string) ([]skewEntry, error) {
	var out []skewEntry
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		arch, w, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-arch-skew: %q is not an arch=weight pair", part)
		}
		weight, err := strconv.ParseFloat(strings.TrimSpace(w), 64)
		if err != nil || weight <= 0 {
			return nil, fmt.Errorf("-arch-skew: weight %q is not a positive number", w)
		}
		out = append(out, skewEntry{serve.NormalizeArch(arch), weight})
	}
	return out, nil
}

// pickSkew deterministically assigns record i an arch by weighted
// choice, so two replays of the same capture route identically without
// any shared random state across workers.
func pickSkew(skew []skewEntry, i int) string {
	var total float64
	for _, s := range skew {
		total += s.weight
	}
	// Knuth multiplicative hash of the index onto [0, total).
	v := float64((uint32(i)*2654435761)%10000) / 10000 * total
	for _, s := range skew {
		if v < s.weight {
			return s.arch
		}
		v -= s.weight
	}
	return skew[len(skew)-1].arch
}

// replayStats summarises one replay pass.
type replayStats struct {
	Records    int              `json:"records"`
	Failures   int              `json:"failures"`
	Mismatches int              `json:"mismatches"`
	Seconds    float64          `json:"seconds"`
	RPS        float64          `json:"rps"`
	Latency    latencyQuantiles `json:"latency"`
}

// replayPass sends every record against base with the requested
// concurrency and rate, diffing predictions unless skew rerouting made
// the comparison meaningless. Mismatch details are capped at ten — the
// count is the signal, the samples are for debugging.
func replayPass(base string, recs []replayRecord, concurrency int, rate float64, skew []skewEntry, timeout time.Duration) (replayStats, []string) {
	if concurrency < 1 {
		concurrency = 1
	}
	client := &http.Client{Timeout: timeout}
	diff := len(skew) == 0

	var ticks <-chan time.Time
	if rate > 0 {
		ticker := time.NewTicker(time.Duration(float64(time.Second) / rate))
		defer ticker.Stop()
		ticks = ticker.C
	}

	var failures, mismatches atomic.Int64
	var mu sync.Mutex
	var durs []time.Duration
	var details []string

	idx := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ticks != nil {
					<-ticks
				}
				r := recs[i]
				arch := r.rec.Arch
				if len(skew) > 0 {
					arch = pickSkew(skew, i)
				}
				target := base + r.rec.Endpoint
				if arch != "" {
					target += "?arch=" + url.QueryEscape(arch)
				}
				t0 := time.Now()
				got, err := sendReplay(client, target, r.rec.ContentType, r.body)
				d := time.Since(t0)
				mu.Lock()
				durs = append(durs, d)
				mu.Unlock()
				if err != nil {
					failures.Add(1)
					mu.Lock()
					if len(details) < 10 {
						details = append(details, fmt.Sprintf("record %d (%s): %v", i, r.rec.Endpoint, err))
					}
					mu.Unlock()
					continue
				}
				if want := strings.Join(r.rec.Predictions, ","); diff && got != want {
					mismatches.Add(1)
					mu.Lock()
					if len(details) < 10 {
						details = append(details, fmt.Sprintf("record %d (%s): predicted %q, recorded %q",
							i, r.rec.Endpoint, got, want))
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := range recs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	elapsed := time.Since(start)

	stats := replayStats{
		Records:    len(recs),
		Failures:   int(failures.Load()),
		Mismatches: int(mismatches.Load()),
		Seconds:    elapsed.Seconds(),
		Latency:    quantiles(durs),
	}
	if stats.Seconds > 0 {
		stats.RPS = float64(stats.Records) / stats.Seconds
	}
	return stats, details
}

// sendReplay posts one recorded body and extracts the predicted
// format(s) from the answer — the single format for the matrix and
// features endpoints, the comma-joined per-item formats for batch.
func sendReplay(client *http.Client, target, contentType string, body []byte) (string, error) {
	if contentType == "" {
		contentType = "text/plain"
	}
	resp, err := client.Post(target, contentType, bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var ans struct {
		Format  string `json:"format"`
		Results []struct {
			Format string `json:"format"`
		} `json:"results"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
		return "", fmt.Errorf("decoding answer: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("server answered %s: %s", resp.Status, ans.Error)
	}
	if len(ans.Results) > 0 {
		formats := make([]string, len(ans.Results))
		for i, r := range ans.Results {
			formats[i] = r.Format
		}
		return strings.Join(formats, ","), nil
	}
	return ans.Format, nil
}

// cmdReplay plays a capture directory back against a running server.
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	dir := fs.String("dir", "", "capture directory written by serve -record (required)")
	addr := fs.String("addr", "", "server address host:port (required)")
	concurrency := fs.Int("concurrency", 1, "parallel replay workers")
	rate := fs.Float64("rate", 0, "request rate limit in req/s across all workers (0 = as fast as possible)")
	archSkew := fs.String("arch-skew", "", `reroute requests across arches by weight, e.g. "turing=3,pascal=1" (disables prediction diffing)`)
	out := fs.String("out", "", "also write the replay stats as JSON here")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *addr == "" {
		return fmt.Errorf("replay: -dir and -addr are required")
	}
	skew, err := parseSkew(*archSkew)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	recs, err := loadCapture(*dir)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	fmt.Fprintf(os.Stderr, "replay: %d records from %s against %s (concurrency %d)...\n",
		len(recs), *dir, *addr, *concurrency)

	stats, details := replayPass("http://"+*addr, recs, *concurrency, *rate, skew, *timeout)
	for _, d := range details {
		fmt.Fprintf(os.Stderr, "replay: %s\n", d)
	}
	fmt.Printf("replay: %d records in %.2fs (%.0f/s), %d failures, %d mismatches; latency p50 %.2fms p95 %.2fms p99 %.2fms\n",
		stats.Records, stats.Seconds, stats.RPS, stats.Failures, stats.Mismatches,
		stats.Latency.P50Ms, stats.Latency.P95Ms, stats.Latency.P99Ms)
	if *out != "" {
		data, err := json.MarshalIndent(stats, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if stats.Failures > 0 {
		return fmt.Errorf("replay: %d of %d requests failed", stats.Failures, stats.Records)
	}
	if len(skew) == 0 && stats.Mismatches > 0 {
		return fmt.Errorf("replay: %d of %d predictions differ from the recording", stats.Mismatches, stats.Records)
	}
	return nil
}

// replayBench is the committed record of one benchreplay run.
type replayBench struct {
	CPUs       int `json:"cpus"`
	GOMAXPROCS int `json:"gomaxprocs"`
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

// cmdBenchReplay is the self-contained record→feedback→replay cycle CI
// commits as BENCH_replay.json.
func cmdBenchReplay(args []string) error {
	fs := flag.NewFlagSet("benchreplay", flag.ExitOnError)
	singles := fs.Int("singles", 16, "single-matrix requests to record")
	batches := fs.Int("batches", 2, "batch requests to record")
	batchSize := fs.Int("batch-size", 4, "matrices per batch request")
	clusters := fs.Int("clusters", 16, "K-Means clusters for the served model")
	concurrency := fs.Int("concurrency", 4, "workers for the concurrent replay pass")
	out := fs.String("out", "BENCH_replay.json", "output JSON path")
	minSpeedup := fs.Float64("min-speedup", 0,
		"fail below this sequential/concurrent wall-time ratio; 0 picks 1.5 when the host has >= 4 CPUs and 0.60 otherwise")
	if err := fs.Parse(args); err != nil {
		return err
	}
	const adminToken = "benchreplay-admin"

	// Train and save the served artifact.
	ms, best, arch, err := labelledTrainingSet("Turing", true)
	if err != nil {
		return fmt.Errorf("benchreplay: %w", err)
	}
	fmt.Fprintf(os.Stderr, "benchreplay: training semisup on %d matrices (%s)...\n", len(ms), arch.Name)
	sel, err := core.TrainSelector(ms, best, core.Options{NumClusters: *clusters, Seed: 1})
	if err != nil {
		return fmt.Errorf("benchreplay: %w", err)
	}
	art := serve.NewSemisupArtifact(sel.Model(), arch.Name)
	tmp, err := os.MkdirTemp("", "benchreplay")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	artPath := filepath.Join(tmp, "model.gob")
	if err := serve.SaveFile(artPath, art); err != nil {
		return err
	}

	// Serve it from the registry (the quality windows need one) with a
	// capture writer attached. Replayed requests run the live model
	// again; the feature memo only spares them the parse.
	capture, err := obs.NewCaptureWriter(filepath.Join(tmp, "capture"), obs.DefaultCaptureFileBytes)
	if err != nil {
		return err
	}
	reg := registry.New()
	if err := reg.Configure(arch.Name, artPath); err != nil {
		return err
	}
	srv, err := serve.NewBackendServer(reg, serve.Config{
		MaxBatchItems: *batchSize,
		AdminToken:    adminToken,
		Capture:       capture,
	})
	if err != nil {
		return err
	}
	if err := reg.LoadAll(); err != nil {
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

	// The recorded mix reuses the corpus generator at a different seed,
	// keeping only matrices every format can hold so the simulator sweep
	// yields full feedback (finite times for all four formats).
	need := *singles + *batches**batchSize
	items, err := dataset.Generate(dataset.Config{
		Seed: 99, BaseCount: need + 8, Scale: 0.5, DropELLFailures: true,
	})
	if err != nil {
		return err
	}
	type reqMatrix struct {
		body  []byte
		times map[string]float64 // per-format measured ms, full sweeps only
	}
	var mix []reqMatrix
	formats := serve.KernelFormatNames()
	for _, it := range items {
		if len(mix) == need {
			break
		}
		meas := arch.Measure(it.Name, gpusim.NewProfile(it.Matrix))
		if !meas.Feasible() {
			continue
		}
		var buf bytes.Buffer
		if err := sparse.WriteMatrixMarket(&buf, it.Matrix); err != nil {
			return err
		}
		times := make(map[string]float64, len(formats))
		for k, f := range formats {
			times[f] = meas.Times[k] * 1e3 // seconds -> ms
		}
		mix = append(mix, reqMatrix{body: buf.Bytes(), times: times})
	}
	if len(mix) < need {
		return fmt.Errorf("benchreplay: only %d of %d needed matrices are feasible on every format", len(mix), need)
	}

	// postJSON drives the feedback reports.
	postJSON := func(path string, payload any) error {
		data, err := json.Marshal(payload)
		if err != nil {
			return err
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(data))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := json.Marshal(payload)
			return fmt.Errorf("POST %s answered %s (payload %s)", path, resp.Status, msg)
		}
		return nil
	}

	// Record the mix: singles with known request IDs, then batches, each
	// followed by its feedback report built from the measured times.
	fmt.Fprintf(os.Stderr, "benchreplay: recording %d singles + %d batches and reporting feedback...\n",
		*singles, *batches)
	feedbackReports := 0
	for i := 0; i < *singles; i++ {
		id := fmt.Sprintf("benchreplay-%03d", i)
		req, err := http.NewRequest(http.MethodPost, base+"/v1/predict/matrix", bytes.NewReader(mix[i].body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "text/plain")
		req.Header.Set("X-Request-ID", id)
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("benchreplay: predict %d answered %s", i, resp.Status)
		}
		if err := postJSON("/v1/feedback", map[string]any{
			"request_id": id, "times_ms": mix[i].times,
		}); err != nil {
			return fmt.Errorf("benchreplay: feedback %d: %w", i, err)
		}
		feedbackReports++
	}
	for b := 0; b < *batches; b++ {
		lo := *singles + b**batchSize
		var buf bytes.Buffer
		for j := 0; j < *batchSize; j++ {
			buf.Write(mix[lo+j].body)
		}
		id := fmt.Sprintf("benchreplay-batch-%02d", b)
		req, err := http.NewRequest(http.MethodPost, base+"/v1/predict/batch", &buf)
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "text/plain")
		req.Header.Set("X-Request-ID", id)
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("benchreplay: batch %d answered %s", b, resp.Status)
		}
		for j := 0; j < *batchSize; j++ {
			if err := postJSON("/v1/feedback", map[string]any{
				"request_id": id, "item": j, "times_ms": mix[lo+j].times,
			}); err != nil {
				return fmt.Errorf("benchreplay: batch %d item %d feedback: %w", b, j, err)
			}
			feedbackReports++
		}
	}
	if err := capture.Close(); err != nil {
		return err
	}

	// Replay the capture against the same live server: sequentially
	// (the determinism gate) and concurrently (the throughput gate).
	recs, err := loadCapture(capture.Dir())
	if err != nil {
		return fmt.Errorf("benchreplay: reading back the capture: %w", err)
	}
	predictions := 0
	for _, r := range recs {
		predictions += len(r.rec.Predictions)
	}
	fmt.Fprintf(os.Stderr, "benchreplay: replaying %d records (%d predictions) x2...\n", len(recs), predictions)
	seqStats, seqDetails := replayPass(base, recs, 1, 0, nil, time.Minute)
	concStats, concDetails := replayPass(base, recs, *concurrency, 0, nil, time.Minute)
	for _, d := range append(seqDetails, concDetails...) {
		fmt.Fprintf(os.Stderr, "benchreplay: %s\n", d)
	}

	// The quality report must show the feedback landed.
	var quality registry.QualityReportData
	qreq, err := http.NewRequest(http.MethodGet, base+"/v1/admin/quality", nil)
	if err != nil {
		return err
	}
	qreq.Header.Set("Authorization", "Bearer "+adminToken)
	qresp, err := client.Do(qreq)
	if err != nil {
		return err
	}
	err = json.NewDecoder(qresp.Body).Decode(&quality)
	qresp.Body.Close()
	if err != nil {
		return fmt.Errorf("benchreplay: decoding /v1/admin/quality: %w", err)
	}

	res := replayBench{
		CPUs:              runtime.NumCPU(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Records:           len(recs),
		Predictions:       predictions,
		FeedbackReports:   feedbackReports,
		Concurrency:       *concurrency,
		Mismatches:        seqStats.Mismatches + concStats.Mismatches,
		SequentialSeconds: seqStats.Seconds,
		ConcurrentSeconds: concStats.Seconds,
		SequentialLatency: seqStats.Latency,
		ConcurrentLatency: concStats.Latency,
	}
	if concStats.Seconds > 0 {
		res.Speedup = seqStats.Seconds / concStats.Seconds
	}
	for _, ar := range quality.Arches {
		res.QualitySamples += ar.Samples
		if ar.Samples > 0 {
			res.QualityAccuracy = ar.Accuracy
			res.QualityRegretP50 = ar.RegretP50
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchreplay: %d cpus: %d records replayed, %d mismatches, %.2fs sequential vs %.2fs at concurrency %d (%.2fx) -> %s\n",
		res.CPUs, res.Records, res.Mismatches, res.SequentialSeconds, res.ConcurrentSeconds, res.Concurrency, res.Speedup, *out)
	fmt.Printf("benchreplay: quality window: %d samples, accuracy %.2f, regret p50 %.3f\n",
		res.QualitySamples, res.QualityAccuracy, res.QualityRegretP50)

	if failures := seqStats.Failures + concStats.Failures; failures > 0 {
		return fmt.Errorf("benchreplay: %d replayed requests failed", failures)
	}
	if res.Mismatches > 0 {
		return fmt.Errorf("benchreplay: %d replayed predictions differ from the recording", res.Mismatches)
	}
	if res.QualitySamples == 0 {
		return fmt.Errorf("benchreplay: /v1/admin/quality shows no full feedback outcomes")
	}
	if math.Abs(res.QualityAccuracy) > 1 {
		return fmt.Errorf("benchreplay: quality accuracy %v outside [0,1]", res.QualityAccuracy)
	}
	gate := *minSpeedup
	if gate == 0 {
		if res.CPUs >= 4 {
			// Concurrent replay against a parallel server should beat
			// one-at-a-time comfortably on a multicore host.
			gate = 1.5
		} else {
			// Too few cores for concurrency to pay; only guard against
			// the concurrent path being pathologically slower.
			gate = 0.60
		}
	}
	if res.Speedup < gate {
		return fmt.Errorf("benchreplay: concurrent replay speedup %.2fx below the %.2fx gate", res.Speedup, gate)
	}
	return nil
}
