package main

// The monitor subcommand: a terminal dashboard over a running serve
// instance's telemetry endpoints. It polls /readyz and /metrics (and,
// given the admin token, /v1/admin/slo and /v1/admin/drift), computes
// request rates by differencing counters between polls, and renders one
// status table per tick. With -once it takes a single sample and exits
// non-zero when anything it needs is missing — the form ci.sh runs as a
// telemetry smoke test.
//
// Pointed at a proxy instead of a single replica (detected by probing
// /v1/fleet), the dashboard switches to the aggregated fleet view:
// replica count, healthy/ejected split, ring size, hedge rate, and one
// row per replica. -once then checks the proxy's own metric families.

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/registry"
)

// monitorSample is one poll of the server's telemetry surface.
type monitorSample struct {
	when    time.Time
	ready   bool
	metrics *obs.PromMetrics
	slo     *obs.SLOReport
	drift   *registry.DriftReportData
	// fleet is non-nil when the target is a proxy (it answered
	// /v1/fleet); the dashboard then renders the fleet view.
	fleet *proxy.FleetStatus
}

func cmdMonitor(args []string) error {
	fs := flag.NewFlagSet("monitor", flag.ExitOnError)
	addr := fs.String("addr", "", "server address host:port (required)")
	token := fs.String("token", "", "admin bearer token; unlocks the SLO and drift panels")
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	once := fs.Bool("once", false, "take one sample, print it, and exit (non-zero when telemetry is missing)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-poll request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("monitor: -addr is required")
	}
	client := &http.Client{Timeout: *timeout}

	var prev *monitorSample
	for {
		cur, err := pollServer(client, *addr, *token)
		if err != nil {
			if *once {
				return fmt.Errorf("monitor: %w", err)
			}
			fmt.Fprintf(os.Stderr, "monitor: %v\n", err)
		} else {
			renderMonitor(os.Stdout, *addr, prev, cur)
			prev = cur
		}
		if *once {
			// One-shot smoke mode: the server must be ready (a reachable
			// but 503 /readyz is a failure, not a dashboard state) and,
			// beyond fetching and parsing, the core request-telemetry
			// families must actually be exposed. Against a proxy the
			// required families are the proxy's own.
			if !cur.ready {
				return fmt.Errorf("monitor: %s is not ready (/readyz answered non-200)", *addr)
			}
			need := []string{"spmvselect_serve_http_seconds", "spmvselect_serve_http_requests_total", "spmvselect_slo_availability"}
			if cur.fleet != nil {
				need = []string{"spmvselect_proxy_requests_total", "spmvselect_proxy_request_seconds", "spmvselect_proxy_replica_healthy"}
			}
			for _, fam := range need {
				if _, ok := cur.metrics.Types[fam]; !ok {
					return fmt.Errorf("monitor: /metrics is missing the %s family", fam)
				}
			}
			return nil
		}
		time.Sleep(*interval)
	}
}

// pollServer samples every telemetry endpoint once. /metrics failing to
// fetch or parse is an error (the dashboard is useless without it);
// admin endpoints are skipped silently when no token was given.
func pollServer(client *http.Client, addr, token string) (*monitorSample, error) {
	s := &monitorSample{when: time.Now()}

	// A proxy answers /v1/fleet with its aggregate status; a serve
	// replica 404s it. An unreachable target is an error either way.
	resp, err := client.Get("http://" + addr + "/v1/fleet")
	if err != nil {
		return nil, fmt.Errorf("polling /v1/fleet: %w", err)
	}
	if resp.StatusCode == http.StatusOK {
		var fl proxy.FleetStatus
		err := json.NewDecoder(resp.Body).Decode(&fl)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decoding /v1/fleet: %w", err)
		}
		s.fleet = &fl
	} else {
		resp.Body.Close()
	}

	resp, err = client.Get("http://" + addr + "/readyz")
	if err != nil {
		return nil, fmt.Errorf("polling /readyz: %w", err)
	}
	resp.Body.Close()
	s.ready = resp.StatusCode == http.StatusOK

	resp, err = client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("polling /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("polling /metrics: server answered %d", resp.StatusCode)
	}
	s.metrics, err = obs.ParsePrometheus(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}

	// The proxy's admin endpoints fan out and return per-replica
	// envelopes, not the single-server report shapes; the fleet panel
	// already carries the aggregate, so skip them in proxy mode.
	if token != "" && s.fleet == nil {
		body, err := fetchAdminJSON(addr, "/v1/admin/slo", token, client.Timeout)
		if err != nil {
			return nil, err
		}
		s.slo = &obs.SLOReport{}
		if err := json.Unmarshal(body, s.slo); err != nil {
			return nil, fmt.Errorf("decoding /v1/admin/slo: %w", err)
		}
		body, err = fetchAdminJSON(addr, "/v1/admin/drift", token, client.Timeout)
		var ae *adminError
		switch {
		case errors.As(err, &ae) && ae.code == http.StatusNotImplemented:
			// Static backend: no drift monitor, not an error.
		case err != nil:
			return nil, err
		default:
			s.drift = &registry.DriftReportData{}
			if err := json.Unmarshal(body, s.drift); err != nil {
				return nil, fmt.Errorf("decoding /v1/admin/drift: %w", err)
			}
		}
	}
	return s, nil
}

// latencyExemplars collects the per-bucket exemplars of the request
// latency histograms: one row per exposed _exemplar sample, slowest
// first, carrying the trace ID that `spmvselect trace -id` can fetch.
type exemplarRow struct {
	series  string
	le      string
	seconds float64
	traceID string
}

func latencyExemplars(m *obs.PromMetrics) []exemplarRow {
	var out []exemplarRow
	for _, smp := range m.Samples {
		if !strings.HasSuffix(smp.Name, "_exemplar") || smp.Labels["trace_id"] == "" {
			continue
		}
		series := strings.TrimSuffix(strings.TrimPrefix(smp.Name, "spmvselect_"), "_exemplar")
		if ep := smp.Labels["endpoint"]; ep != "" {
			series = ep
		}
		out = append(out, exemplarRow{
			series:  series,
			le:      smp.Labels["le"],
			seconds: smp.Value,
			traceID: smp.Labels["trace_id"],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seconds > out[j].seconds })
	return out
}

// predictionsByArch sums the served-prediction counter per arch.
func predictionsByArch(m *obs.PromMetrics) map[string]float64 {
	out := map[string]float64{}
	for _, smp := range m.Samples {
		if smp.Name == "spmvselect_serve_predictions_total" {
			out[smp.Labels["arch"]] += smp.Value
		}
	}
	return out
}

func renderMonitor(w *os.File, addr string, prev, cur *monitorSample) {
	status := "NOT READY"
	if cur.ready {
		status = "ready"
	}
	mode := ""
	if cur.fleet != nil {
		mode = "  proxy"
	}
	fmt.Fprintf(w, "\n%s  %s%s  [%s]\n", cur.when.Format("15:04:05"), addr, mode, status)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)

	if cur.fleet != nil {
		renderFleet(tw, prev, cur)
		return
	}

	// Predictions per arch, with a rate when a previous sample exists.
	curBy := predictionsByArch(cur.metrics)
	var arches []string
	for a := range curBy {
		arches = append(arches, a)
	}
	sort.Strings(arches)
	var prevBy map[string]float64
	var dt float64
	if prev != nil {
		prevBy = predictionsByArch(prev.metrics)
		dt = cur.when.Sub(prev.when).Seconds()
	}
	fmt.Fprintln(tw, "ARCH\tPREDICTIONS\tRATE")
	for _, a := range arches {
		rate := "-"
		if dt > 0 {
			rate = fmt.Sprintf("%.1f/s", (curBy[a]-prevBy[a])/dt)
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%s\n", a, curBy[a], rate)
	}
	if len(arches) == 0 {
		fmt.Fprintln(tw, "-\t0\t-")
	}
	tw.Flush()

	if cur.slo != nil {
		fmt.Fprintln(tw, "\nWINDOW\tREQS\tERRS\tAVAIL\tBURN\tP50\tP95\tP99")
		for _, win := range cur.slo.Windows {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.4f\t%.1f\t%s\t%s\t%s\n",
				win.Window, win.Requests, win.Errors, win.Availability, win.BurnRate,
				fmtLatency(win.P50), fmtLatency(win.P95), fmtLatency(win.P99))
		}
		tw.Flush()
	}

	// Latency exemplars: the slowest recently-exemplified buckets, each
	// naming a trace fetchable with `spmvselect trace -id`.
	if ex := latencyExemplars(cur.metrics); len(ex) > 0 {
		const maxRows = 5
		if len(ex) > maxRows {
			ex = ex[:maxRows]
		}
		fmt.Fprintln(tw, "\nEXEMPLAR\tBUCKET\tLATENCY\tTRACE")
		for _, row := range ex {
			fmt.Fprintf(tw, "%s\tle=%s\t%s\t%s\n",
				row.series, row.le, fmtLatency(row.seconds), row.traceID)
		}
		tw.Flush()
	}

	if cur.drift != nil {
		fmt.Fprintln(tw, "\nARCH\tSIGNAL\tSAMPLES\tPSI\tSTATE")
		for _, ar := range cur.drift.Arches {
			for _, sg := range ar.Signals {
				state := "ok"
				if sg.Alert {
					state = "ALERT"
				}
				fmt.Fprintf(tw, "%s\t%s\t%d\t%.3f\t%s\n", ar.Arch, sg.Signal, sg.Samples, sg.PSI, state)
			}
		}
		if len(cur.drift.Arches) == 0 {
			fmt.Fprintln(tw, "-\t(no baselines installed)\t-\t-\t-")
		}
		tw.Flush()
	}
}

// renderFleet draws the aggregated fleet view of a proxy target: the
// headline counters with a request rate differenced between polls,
// then one row per replica.
func renderFleet(tw *tabwriter.Writer, prev, cur *monitorSample) {
	fl := cur.fleet
	rate := "-"
	if prev != nil && prev.fleet != nil {
		if dt := cur.when.Sub(prev.when).Seconds(); dt > 0 {
			rate = fmt.Sprintf("%.1f/s", float64(fl.Requests-prev.fleet.Requests)/dt)
		}
	}
	fmt.Fprintln(tw, "REPLICAS\tHEALTHY\tEJECTED\tRING\tREQS\tRATE\tERRS\tHEDGE RATE\tRETRIES")
	fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%s\t%d\t%.3f\t%d\n",
		fl.ReplicaCount, fl.HealthyCount, fl.ReplicaCount-fl.HealthyCount, fl.RingSize,
		fl.Requests, rate, fl.Errors, fl.HedgeRate, fl.Retries)
	tw.Flush()

	fmt.Fprintln(tw, "\nREPLICA\tSTATE\tEJECTIONS\tLAST ERROR")
	for _, r := range fl.Replicas {
		state := "healthy"
		if !r.Healthy {
			state = "EJECTED"
		}
		lastErr := r.LastError
		if lastErr == "" {
			lastErr = "-"
		} else if len(lastErr) > 60 {
			lastErr = lastErr[:57] + "..."
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\n", r.Addr, state, r.Ejections, lastErr)
	}
	tw.Flush()
}

func fmtLatency(seconds float64) string {
	if seconds <= 0 {
		return "-"
	}
	return time.Duration(seconds * float64(time.Second)).Round(10 * time.Microsecond).String()
}
