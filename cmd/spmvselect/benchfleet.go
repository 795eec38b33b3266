package main

// benchfleet measures the fleet tier: the same request mix served
// through the proxy fronting one replica versus N replicas, with every
// replica pinned to serial execution (-max-concurrent 1) and the
// feature memo off, so added throughput can only come from the ring actually
// spreading load. Correctness gates before speed: every prediction
// fetched through the proxy must be byte-identical to the same body
// asked of a replica directly — consistent hashing, hedging and
// failover are routing concerns and must never change an answer. The
// result is committed as BENCH_fleet.json with a machine-aware
// scaling gate (near-linear on hosts with enough cores to actually
// run N replicas in parallel, a not-pathologically-slower floor on
// starved boxes).

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/proxy"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// fleetBench is the committed record of one benchfleet run.
type fleetBench struct {
	CPUs       int `json:"cpus"`
	GOMAXPROCS int `json:"gomaxprocs"`
	Replicas   int `json:"replicas"`
	Matrices   int `json:"matrices"`
	Rounds     int `json:"rounds"`
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

func cmdBenchFleet(args []string) error {
	fs := flag.NewFlagSet("benchfleet", flag.ExitOnError)
	nReplicas := fs.Int("replicas", 3, "fleet size for the scaled measurement")
	count := fs.Int("matrices", 24, "number of distinct matrices in the request mix")
	rounds := fs.Int("rounds", 3, "timed passes over the matrix set per fleet size")
	clusters := fs.Int("clusters", 16, "K-Means clusters for the served model")
	out := fs.String("out", "BENCH_fleet.json", "output JSON path")
	minSpeedup := fs.Float64("min-speedup", 0,
		"fail below this fleet/single throughput ratio; 0 picks 0.5*replicas when the host has > replicas CPUs and 0.80 otherwise")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nReplicas < 2 {
		return fmt.Errorf("benchfleet: -replicas %d: need >= 2 to scale anything", *nReplicas)
	}

	ms, best, arch, err := labelledTrainingSet("Turing", true)
	if err != nil {
		return fmt.Errorf("benchfleet: %w", err)
	}
	fmt.Fprintf(os.Stderr, "benchfleet: training semisup on %d matrices (%s)...\n", len(ms), arch.Name)
	sel, err := core.TrainSelector(ms, best, core.Options{NumClusters: *clusters, Seed: 1})
	if err != nil {
		return fmt.Errorf("benchfleet: %w", err)
	}
	art := serve.NewSemisupArtifact(sel.Model(), arch.Name)

	items, err := dataset.Generate(dataset.Config{
		Seed: 99, BaseCount: *count, Scale: 0.5, DropELLFailures: true,
	})
	if err != nil {
		return fmt.Errorf("benchfleet: %w", err)
	}
	if len(items) < *count {
		*count = len(items)
	}
	bodies := make([][]byte, *count)
	for i := 0; i < *count; i++ {
		var buf bytes.Buffer
		if err := sparse.WriteMatrixMarket(&buf, items[i].Matrix); err != nil {
			return fmt.Errorf("benchfleet: %w", err)
		}
		bodies[i] = buf.Bytes()
	}

	// Each replica: serial execution, feature memo off. A fleet of one is
	// then an honest sequential baseline, and any fleet speedup has to
	// come from the ring spreading bodies across replicas.
	startReplica := func() (string, func(), error) {
		srv, err := serve.NewServer(art, serve.Config{FeatMemoSize: -1, MaxConcurrent: 1})
		if err != nil {
			return "", nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", nil, err
		}
		server := &http.Server{Handler: srv.Handler()}
		go server.Serve(ln)
		return ln.Addr().String(), func() { server.Close() }, nil
	}
	replicaAddrs := make([]string, *nReplicas)
	for i := range replicaAddrs {
		addr, stop, err := startReplica()
		if err != nil {
			return fmt.Errorf("benchfleet: starting replica %d: %w", i, err)
		}
		defer stop()
		replicaAddrs[i] = addr
	}

	// Hedging is disabled (huge HedgeAfter): with every replica pinned
	// serial, queueing is expected, and a hedge would double the load
	// and poison the scaling measurement.
	startProxy := func(fleet []string) (string, func(), error) {
		p, err := proxy.New(proxy.Config{
			Replicas:   fleet,
			HedgeAfter: time.Hour,
			Timeout:    5 * time.Minute,
		})
		if err != nil {
			return "", nil, err
		}
		p.CheckAll(context.Background())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", nil, err
		}
		server := &http.Server{Handler: p.Handler()}
		go server.Serve(ln)
		return ln.Addr().String(), func() { server.Close() }, nil
	}

	client := &http.Client{Timeout: 5 * time.Minute, Transport: &http.Transport{
		MaxIdleConnsPerHost: 4 * *nReplicas,
	}}
	fetch := func(base string, body []byte) ([]byte, error) {
		resp, err := client.Post("http://"+base+"/v1/predict/matrix", "text/plain", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s: %s", resp.Status, data)
		}
		return data, nil
	}

	// Correctness first: answers fetched directly from a replica are
	// the reference; the proxy must reproduce them byte for byte.
	direct := make([][]byte, *count)
	for i, b := range bodies {
		if direct[i], err = fetch(replicaAddrs[0], b); err != nil {
			return fmt.Errorf("benchfleet: direct predict %d: %w", i, err)
		}
	}
	fleetBase, stopFleet, err := startProxy(replicaAddrs)
	if err != nil {
		return fmt.Errorf("benchfleet: starting fleet proxy: %w", err)
	}
	defer stopFleet()
	checked := 0
	for i, b := range bodies {
		got, err := fetch(fleetBase, b)
		if err != nil {
			return fmt.Errorf("benchfleet: proxied predict %d: %w", i, err)
		}
		if !bytes.Equal(got, direct[i]) {
			return fmt.Errorf("benchfleet: body %d: proxied answer differs from direct replica answer\nproxy:  %s\ndirect: %s",
				i, got, direct[i])
		}
		checked++
	}
	fmt.Fprintf(os.Stderr, "benchfleet: %d proxied answers byte-identical to direct replica answers\n", checked)

	// Throughput: the same concurrent client load against a fleet of
	// one and the full fleet, best-of-rounds.
	conc := 2 * *nReplicas
	load := func(base string, lat *[]time.Duration) (time.Duration, error) {
		var bestDur time.Duration
		for r := 0; r < *rounds; r++ {
			var wg sync.WaitGroup
			errc := make(chan error, conc)
			var mu sync.Mutex
			start := time.Now()
			for w := 0; w < conc; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(bodies); i += conc {
						t0 := time.Now()
						if _, err := fetch(base, bodies[i]); err != nil {
							errc <- fmt.Errorf("worker %d body %d: %w", w, i, err)
							return
						}
						if lat != nil {
							mu.Lock()
							*lat = append(*lat, time.Since(t0))
							mu.Unlock()
						}
					}
				}(w)
			}
			wg.Wait()
			close(errc)
			if err := <-errc; err != nil {
				return 0, err
			}
			if d := time.Since(start); bestDur == 0 || d < bestDur {
				bestDur = d
			}
		}
		return bestDur, nil
	}

	oneBase, stopOne, err := startProxy(replicaAddrs[:1])
	if err != nil {
		return fmt.Errorf("benchfleet: starting single-replica proxy: %w", err)
	}
	defer stopOne()
	fmt.Fprintf(os.Stderr, "benchfleet: %d matrices x %d rounds, %d client workers, 1 vs %d replicas...\n",
		*count, *rounds, conc, *nReplicas)
	var oneLat, fleetLat []time.Duration
	oneDur, err := load(oneBase, &oneLat)
	if err != nil {
		return fmt.Errorf("benchfleet: single-replica load: %w", err)
	}
	fleetDur, err := load(fleetBase, &fleetLat)
	if err != nil {
		return fmt.Errorf("benchfleet: fleet load: %w", err)
	}

	total := float64(*count)
	res := fleetBench{
		CPUs:            runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Replicas:        *nReplicas,
		Matrices:        *count,
		Rounds:          *rounds,
		Concurrency:     conc,
		EqualityChecked: checked,
		OneSeconds:      oneDur.Seconds(),
		FleetSeconds:    fleetDur.Seconds(),
		OneRPS:          total / oneDur.Seconds(),
		FleetRPS:        total / fleetDur.Seconds(),
		Speedup:         oneDur.Seconds() / fleetDur.Seconds(),
		OneLatency:      quantiles(oneLat),
		FleetLat:        quantiles(fleetLat),
	}
	gate := *minSpeedup
	if gate == 0 {
		if res.CPUs > *nReplicas {
			// Enough cores that N serial replicas genuinely run in
			// parallel: demand at least half-linear scaling.
			gate = 0.5 * float64(*nReplicas)
		} else {
			// The replicas time-share the same cores; the fleet cannot
			// scale here. Only guard against the proxy hop making the
			// fleet pathologically slower than one replica.
			gate = 0.80
		}
	}
	res.Gate = gate

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchfleet: %d cpus: %.0f predictions in %.2fs via 1 replica (%.0f/s) vs %.2fs via %d (%.0f/s), %.2fx -> %s\n",
		res.CPUs, total, res.OneSeconds, res.OneRPS, res.FleetSeconds, *nReplicas, res.FleetRPS, res.Speedup, *out)
	fmt.Printf("benchfleet: latency p50 %.2fms/%.2fms p95 %.2fms/%.2fms (1 vs %d replicas), %d answers equality-checked\n",
		res.OneLatency.P50Ms, res.FleetLat.P50Ms, res.OneLatency.P95Ms, res.FleetLat.P95Ms, *nReplicas, checked)
	if res.Speedup < gate {
		return fmt.Errorf("benchfleet: fleet speedup %.2fx below the %.2fx gate", res.Speedup, gate)
	}
	return nil
}
