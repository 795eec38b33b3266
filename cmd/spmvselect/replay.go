package main

// The traffic replay harness: `serve -record DIR` captures every
// prediction request (body plus routing metadata plus the answer) to
// rotating capture files; `replay` plays a capture directory back
// against a live server under controlled concurrency and rate, diffs
// the replayed predictions against the recorded ones, and reports
// latency quantiles — regression testing with production traffic
// instead of synthetic corpora. `bench replay` is the self-contained
// form: it records a known request mix (including /v1/feedback
// outcome reports driven by simulator-measured kernel times), replays
// it sequentially and concurrently, and gates on reproduced
// predictions plus a machine-aware throughput ratio (BENCH_replay.json).

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
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
	raw, err := postBody(client, target, contentType, "", body)
	if err != nil {
		return "", err
	}
	var ans struct {
		Format  string `json:"format"`
		Results []struct {
			Format string `json:"format"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &ans); err != nil {
		return "", fmt.Errorf("decoding answer: %w", err)
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
