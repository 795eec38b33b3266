package main

// The traffic replay harness: `serve -record DIR` captures every
// prediction request (body plus routing metadata plus the answer) to
// rotating capture files; `replay` plays a capture directory back
// against a live server at a chosen concurrency, diffs the replayed
// predictions against the recorded ones, and reports latency
// quantiles — regression testing with production traffic instead of
// synthetic corpora. `bench replay` is the self-contained
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
// concurrency, each to the arch it was recorded for, and diffs the
// predictions. Mismatch details are capped at ten — the count is the
// signal, the samples are for debugging.
func replayPass(base string, recs []replayRecord, concurrency int, timeout time.Duration) (replayStats, []string) {
	if concurrency < 1 {
		concurrency = 1
	}
	client := &http.Client{Timeout: timeout}

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
				r := recs[i]
				target := base + r.rec.Endpoint
				if r.rec.Arch != "" {
					target += "?arch=" + url.QueryEscape(r.rec.Arch)
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
				if want := strings.Join(r.rec.Predictions, ","); got != want {
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
	out := fs.String("out", "", "also write the replay stats as JSON here")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *addr == "" {
		return fmt.Errorf("replay: -dir and -addr are required")
	}
	recs, err := loadCapture(*dir)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	fmt.Fprintf(os.Stderr, "replay: %d records from %s against %s (concurrency %d)...\n",
		len(recs), *dir, *addr, *concurrency)

	stats, details := replayPass("http://"+*addr, recs, *concurrency, *timeout)
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
	if stats.Mismatches > 0 {
		return fmt.Errorf("replay: %d of %d predictions differ from the recording", stats.Mismatches, stats.Records)
	}
	return nil
}
