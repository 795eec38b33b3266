package main

// The fleet subcommands: proxy is the consistent-hash front door over
// N serve replicas (hedged retries, health ejection, fleet-wide
// telemetry aggregation), rollout pushes a candidate artifact to every
// replica's shadow slot and promotes only when the whole fleet's
// agreement clears the threshold.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/proxy"
)

// parseFleet splits a comma-separated replica list into addresses.
func parseFleet(spec string) ([]string, error) {
	if spec == "" {
		return nil, fmt.Errorf("-fleet is required (comma-separated host:port replicas)")
	}
	var out []string
	for _, a := range strings.Split(spec, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-fleet named no replicas")
	}
	return out, nil
}

// cmdProxy runs the fleet front door until SIGINT/SIGTERM.
func cmdProxy(args []string) error {
	fs := flag.NewFlagSet("proxy", flag.ExitOnError)
	fleet := fs.String("fleet", "", "comma-separated serve replicas, e.g. \"127.0.0.1:9001,127.0.0.1:9002\" (required)")
	addr := fs.String("addr", ":8080", "listen address (:0 picks a free port)")
	portFile := fs.String("portfile", "", "write the bound address to this file once listening")
	timeout := fs.Duration("timeout", 30*time.Second, "end-to-end budget per client request, hedges and retries included")
	hedgeAfter := fs.Duration("hedge-after", 250*time.Millisecond, "race a second replica when the ring owner is slower than this")
	healthInterval := fs.Duration("health-interval", time.Second, "spacing of the /readyz probes")
	adminToken := fs.String("admin-token", "", "bearer token required by the proxy's own /v1/admin/trace endpoints (unset disables them)")
	traceSample := fs.Int("trace-sample", 0, "keep 1-in-N otherwise-uninteresting traces (0 = 100, negative disables sampling)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	replicas, err := parseFleet(*fleet)
	if err != nil {
		return fmt.Errorf("proxy: %w", err)
	}

	p, err := proxy.New(proxy.Config{
		Replicas:       replicas,
		Timeout:        *timeout,
		HedgeAfter:     *hedgeAfter,
		HealthInterval: *healthInterval,
		AdminToken:     *adminToken,
		TraceSample:    *traceSample,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return p.Run(ctx, *addr, func(bound string) {
		fmt.Fprintf(os.Stderr, "proxy: fronting %d replicas %v on http://%s\n",
			len(replicas), replicas, bound)
		if *portFile != "" {
			if err := os.WriteFile(*portFile, []byte(bound), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "proxy: writing portfile: %v; shutting down\n", err)
				stop()
			}
		}
	})
}

// cmdRollout drives one fleet-wide artifact rollout and prints the
// promotion evidence as JSON.
func cmdRollout(args []string) error {
	fs := flag.NewFlagSet("rollout", flag.ExitOnError)
	fleet := fs.String("fleet", "", "comma-separated serve replicas to roll out to (required)")
	artifact := fs.String("artifact", "", "candidate artifact file to push (required)")
	arch := fs.String("arch", "", "arch whose model is being replaced (default: each replica's default arch)")
	token := fs.String("token", "", "admin bearer token (must match the replicas' -admin-token)")
	threshold := fs.Float64("threshold", 0.99, "minimum per-replica shadow agreement rate required to promote")
	minScored := fs.Int64("min-scored", 10, "minimum shadow-scored requests each replica must accumulate")
	drive := fs.String("drive", "", "directory of .mtx files to post to every replica, generating shadow evidence on a quiet fleet")
	timeout := fs.Duration("timeout", 2*time.Minute, "bound on the whole rollout")
	poll := fs.Duration("poll", 500*time.Millisecond, "spacing of the observe-phase shadow checks")
	quiet := fs.Bool("q", false, "suppress progress lines (final JSON only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	replicas, err := parseFleet(*fleet)
	if err != nil {
		return fmt.Errorf("rollout: %w", err)
	}
	if *artifact == "" {
		return fmt.Errorf("rollout: -artifact is required")
	}

	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	if *quiet {
		logf = nil
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := proxy.Rollout(ctx, proxy.RolloutConfig{
		Replicas:     replicas,
		Arch:         *arch,
		ArtifactPath: *artifact,
		Token:        *token,
		Threshold:    *threshold,
		MinScored:    *minScored,
		DriveDir:     *drive,
		Timeout:      *timeout,
		Poll:         *poll,
		Log:          logf,
	})
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
