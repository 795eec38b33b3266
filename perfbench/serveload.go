package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// runServeUnique sends POST /v1/predict/matrix through the proxy with
// every body made byte-unique by a comment line, so both body-hash
// caches miss and every request pays parse → cheap features → cascade
// or full extraction.
func runServeUnique(env *runEnv) (*outcome, error) { return runServe(env, env.cfg.ServeUnique, true) }

// runServeRepeat sends the same fleet Zipf-repeated bodies across two
// arches, a share of them to /v1/predict/features, while rollouts swap
// the Turing artifact once per round: the caches, the memo and the
// proxy hop do most of the work, and the swaps flush the LRU and force
// the shadow bypass beside the reads.
func runServeRepeat(env *runEnv) (*outcome, error) { return runServe(env, env.cfg.ServeRepeat, false) }

// counterNames are the obs.Default counters read as deltas.
var counterNames = []string{
	"serve/cache/hits", "serve/cache/misses",
	"serve/featmemo/hits", "serve/featmemo/misses",
	"serve/cascade/hits", "serve/cascade/fallthroughs",
	"serve/rejected", "proxy/requests", "proxy/hedges",
}

// serveState is one set-up: trained artifacts, the running fleet, the
// request pool with its references, and the client.
type serveState struct {
	arts  *artifacts
	fleet *fleet
	pool  []*poolItem
	gen   *loadgen
	roll  *rollouts
}

func (st *serveState) stop() {
	st.fleet.stop()
	st.gen.client.CloseIdleConnections()
}

// servePass is one measurement: closed-loop rounds over the fleet, and
// what the layers did meanwhile.
type servePass struct {
	// RoundS are the rounds' durations; PassS is their median and P50Ms
	// the median latency over every request of every round.
	RoundS []float64
	PassS  float64
	P50Ms  float64
	// RoundPeakMB are the rounds' peak heaps; PeakMB is their median.
	RoundPeakMB []float64
	PeakMB      float64

	GCFrac    float64
	AllocMB   float64
	Counters  map[string]float64
	Rollouts  int
	RollFails int
	phases    []*phase
	rollouts  []rolloutRec
	hops      []hop
}

func runServe(env *runEnv, sc serveConfig, unique bool) (*outcome, error) {
	o := &outcome{}
	var hops *hopLog
	repeats := setupRepeats
	if env.trace {
		// One untraced set-up for the overhead, then the traced one
		// whose fleet serves both passes.
		hops, repeats = &hopLog{}, 2
	}
	var st *serveState
	var setups []float64
	var setupTree *obs.SpanData
	for i := 0; i < repeats; i++ {
		if st != nil {
			st.stop()
		}
		tr := tracer{on: env.trace && i == repeats-1}
		t0 := time.Now()
		var err error
		st, setupTree, err = setupServe(env, sc, unique, tr, hops, o)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		fmt.Fprintf(env.log, "%s: set-up %d took %.3fs\n", env.workload, i+1, setups[i])
	}
	defer st.stop()

	plain := measure(st, env, sc, unique, 0, hops)
	o.Details = map[string]any{"setups_s": setups, "plain": plain}
	if !env.trace {
		o.EndToEnd = plain.endToEnd(median(setups))
		return o, nil
	}
	hops.on.Store(true)
	traced := measure(st, env, sc, unique, 1, hops)
	hops.on.Store(false)
	nominal := openLoop(st, env, sc, unique)
	rungs, best := ladder(st, env, sc, unique)
	probeVals, probeSpan, err := probes(st)
	if err != nil {
		return nil, err
	}
	o.EndToEnd = plain.endToEnd(setups[0])
	o.Traced = traced.endToEnd(setups[1])
	root, layers := serveReport(env.workload, traced, setupTree, probeSpan)
	for k, v := range probeVals {
		layers[k] = v
	}
	layers["loadgen.late_ms_max"] = nominal.LateMaxMs
	layers["loadgen.p50_ms"] = nominal.P50Ms
	layers["loadgen.p99_ms"] = nominal.P99Ms
	layers["loadgen.max_rps"] = best.Achieved
	o.PerLayer, o.Spans = layers, []*obs.SpanData{root}
	o.Details = map[string]any{"setups_s": setups, "plain": plain, "traced": traced, "nominal": nominal, "ladder": rungs}
	return o, nil
}

// setupServe trains the artifacts, starts the fleet, builds the request
// pool and its references, and warms the fleet up with every pool item.
func setupServe(env *runEnv, sc serveConfig, unique bool, tr tracer, hops *hopLog, o *outcome) (*serveState, *obs.SpanData, error) {
	ctx, root := tr.start(context.Background(), "setup")
	dir, err := os.MkdirTemp(env.work, "setup-")
	if err != nil {
		return nil, nil, err
	}
	arts, err := trainArtifacts(ctx, tr, dir)
	if err != nil {
		return nil, nil, err
	}
	_, sp := tr.start(ctx, "fleet")
	f, err := startFleet(arts, hops)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	pool, err := buildPool(ctx, tr, env.seed, sc)
	if err != nil {
		f.stop()
		return nil, nil, err
	}
	_, sp = tr.start(ctx, "references")
	refs, err := references(pool, arts)
	sp.End()
	if err != nil {
		f.stop()
		return nil, nil, err
	}
	st := &serveState{arts: arts, fleet: f, pool: pool, gen: newLoadgen(f, pool, refs, unique, o, env.log)}
	if !unique {
		st.roll = &rollouts{
			every: int64(sc.RoundRequests),
			cfg:   proxy.RolloutConfig{Replicas: f.replicas, Arch: "turing", Token: adminToken},
			paths: [2]string{arts.PathB, arts.PathA},
			log:   env.log,
		}
	}
	_, sp = tr.start(ctx, "warmup")
	var warm []job
	for i := range pool {
		if unique {
			warm = append(warm, job{item: i, arch: "turing"}, job{item: i, arch: "turing"})
			continue
		}
		for _, a := range arches {
			warm = append(warm, job{item: i, arch: a}, job{item: i, arch: a, features: true})
		}
	}
	st.gen.run(&phase{Name: "warmup", jobs: warm})
	sp.End()
	return st, root.EndData(), nil
}

// serve_repeat draws body × arch pairs from a Zipf distribution with
// exponent zipfS, the most popular first, and sends featureShare of its
// requests as feature vectors. README.md ("serve_repeat traffic") gives
// the source of the exponent; the share is illustrative.
const (
	zipfS        = 0.7
	featureShare = 0.25
)

// jobs draws n requests of the workload's mix: serve_unique picks pool
// items uniformly, serve_repeat as above.
func (st *serveState) jobs(rng *rand.Rand, n int, unique bool) []job {
	out := make([]job, n)
	if unique {
		for i := range out {
			out[i] = job{item: rng.Intn(len(st.pool)), arch: "turing"}
		}
		return out
	}
	z := newZipf(zipfS, len(arches)*len(st.pool))
	for i := range out {
		k := z.draw(rng)
		out[i] = job{item: k / len(arches), arch: arches[k%len(arches)], features: rng.Float64() < featureShare}
	}
	return out
}

// zipf draws ranks 0..n-1 with P(k) proportional to (k+1)^-s. Unlike
// rand.Zipf it takes s <= 1, the range measured for web requests.
type zipf struct{ cdf []float64 }

func newZipf(s float64, n int) zipf {
	cdf := make([]float64, n)
	total := 0.0
	for k := range cdf {
		total += math.Pow(float64(k+1), -s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return zipf{cdf}
}

func (z zipf) draw(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, rng.Float64()), len(z.cdf)-1)
}

// runPhase draws n requests of the workload's mix from rng and sends
// them at rate (0: closed loop), starting rollouts at their cadence.
func (st *serveState) runPhase(rng *rand.Rand, unique bool, name string, rate float64, n int) *phase {
	p := &phase{Name: name, Rate: rate, jobs: st.jobs(rng, n, unique)}
	if st.roll != nil {
		st.gen.onSend = st.roll.tick
		defer func() { st.gen.onSend = nil }()
	}
	st.gen.run(p)
	return p
}

// settle waits for the rollouts in flight to finish and returns the
// rollouts completed and failed since the last call. A rollout's
// observe phase needs shadow-scored live traffic, so a trickle of
// Turing requests keeps flowing meanwhile.
func (st *serveState) settle() ([]rolloutRec, int) {
	if st.roll == nil {
		return nil, 0
	}
	for i := 0; st.roll.busy(); i++ {
		st.gen.run(&phase{Name: "drain", jobs: []job{{item: i % len(st.pool), arch: "turing"}}})
	}
	done, failed := st.roll.take()
	// A rollout is an attempted operation; one that does not promote
	// failed, since the two Turing artifacts always agree.
	st.gen.mu.Lock()
	st.gen.out.Attempted += int64(len(done) + failed)
	st.gen.out.Failed += int64(failed)
	st.gen.mu.Unlock()
	return done, failed
}

// measure runs closed-loop rounds of the workload's mix over the
// generator's two connections for its share of the budget (at least
// minRounds rounds). wall_s is the median round and p50_ms the median
// latency over every request of every round: on a host whose
// hypervisor steals CPU time, latency at a fixed open-loop rate moved
// by up to 0.3 (quartile distance over median) between runs, while a
// saturated closed loop slows only in proportion. peak_heap_mb is the
// median of the rounds' peak heaps: the peak over the whole pass is
// the largest of dozens of GC cycles, and it moved by 0.12 between
// runs.
func measure(st *serveState, env *runEnv, sc serveConfig, unique bool, pass int64, hops *hopLog) *servePass {
	rng := rand.New(rand.NewSource(env.seed*1_000_003 + pass))
	sp := &servePass{}
	runtime.GC()
	before := obs.Default.Snapshot()
	rt0 := readRuntime()
	heap := watchHeap()
	var lat []float64
	deadline := time.Now().Add(time.Duration(roundsShare * float64(env.budget)))
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		p := st.runPhase(rng, unique, fmt.Sprintf("round-%d", i), 0, sc.RoundRequests)
		sp.phases = append(sp.phases, p)
		var last time.Duration
		for _, s := range p.samples {
			last = max(last, s.Done)
			lat = append(lat, ms(s.latency()))
		}
		sp.RoundS = append(sp.RoundS, last.Seconds())
		sp.RoundPeakMB = append(sp.RoundPeakMB, heap.Lap())
	}
	heap.Stop()
	sp.PassS = median(sp.RoundS)
	sp.P50Ms = median(lat)
	sp.PeakMB = median(sp.RoundPeakMB)
	sp.GCFrac, sp.AllocMB = readRuntime().sub(rt0)
	after := obs.Default.Snapshot()
	sp.Counters = map[string]float64{}
	for _, n := range counterNames {
		sp.Counters[n] = counterDelta(before, after, n)
	}
	sp.rollouts, sp.RollFails = st.settle()
	sp.Rollouts = len(sp.rollouts)
	if hops != nil {
		sp.hops = hops.take()
	}
	fmt.Fprintf(env.log, "%s: pass %d: %d rounds of %d: median %.3fs, p50 %.3fms; %d rollouts\n",
		env.workload, pass, len(sp.RoundS), sc.RoundRequests, sp.PassS, sp.P50Ms, sp.Rollouts)
	return sp
}

const (
	// setupRepeats is how many times an untraced run sets up; setup_s
	// is the median.
	setupRepeats = 3
	// A pass runs closed-loop rounds for roundsShare of the measurement
	// budget, and at least minRounds rounds.
	roundsShare = 0.6
	minRounds   = 5
	// A traced run sends open loop at the nominal rate for
	// nominalSeconds and runs each ladder rung for rungSeconds.
	nominalSeconds = 10
	rungSeconds    = 2
)

// openLoop sends the workload's mix at its nominal rate for
// nominalSeconds, each request timed from its scheduled send.
func openLoop(st *serveState, env *runEnv, sc serveConfig, unique bool) phaseStats {
	rng := rand.New(rand.NewSource(env.seed*1_000_003 + 2))
	p := st.runPhase(rng, unique, "nominal", sc.NominalRPS, int(sc.NominalRPS*nominalSeconds))
	st.settle()
	nom := summarize(p.Rate, p.samples, sc.P99LimitMs)
	fmt.Fprintf(env.log, "%s: open loop at %.0f rps: p50 %.3fms p99 %.3fms (%d beyond) late max %.1fms\n",
		env.workload, nom.Rate, nom.P50Ms, nom.P99Ms, nom.Beyond99, nom.LateMaxMs)
	return nom
}

// ladder searches the workload's rate ladder for max_rps.
func ladder(st *serveState, env *runEnv, sc serveConfig, unique bool) ([]phaseStats, phaseStats) {
	rng := rand.New(rand.NewSource(env.seed*1_000_003 + 3))
	rungs, best := searchLadder(sc.LadderRPS, sc.P99LimitMs, func(rate float64) phaseStats {
		p := st.runPhase(rng, unique, fmt.Sprintf("rung-%g", rate), rate, int(rate*rungSeconds))
		return summarize(rate, p.samples, sc.P99LimitMs)
	})
	st.settle()
	fmt.Fprintf(env.log, "%s: ladder %s-> max_rps %.1f\n", env.workload, ladderString(rungs), best.Achieved)
	return rungs, best
}

func ladderString(rungs []phaseStats) string {
	var b strings.Builder
	for _, r := range rungs {
		fmt.Fprintf(&b, "[%g: p99 %.1fms failed %d backlog %v] ", r.Rate, r.P99Ms, r.Failed, r.Backlog)
	}
	return b.String()
}

func (sp *servePass) endToEnd(setup float64) map[string]float64 {
	return map[string]float64{
		"setup_s":      setup,
		"wall_s":       sp.PassS,
		"peak_heap_mb": sp.PeakMB,
		"p50_ms":       sp.P50Ms,
	}
}

// reportRequests bounds the request trees the trace report keeps per
// phase; the per-layer metrics use every request.
const reportRequests = 100

// serveReport assembles the traced pass into span trees and reads the
// per-layer metrics off them. Each request becomes the client's span
// with the proxy's wrapper span under it and, under that, the wrapper
// span of every replica attempt, matched by X-Request-ID.
func serveReport(workload string, sp *servePass, setup, probeSpan *obs.SpanData) (*obs.SpanData, map[string]float64) {
	byID := map[string][]hop{}
	var admin []hop
	for _, h := range sp.hops {
		if h.ID == "" {
			admin = append(admin, h)
			continue
		}
		byID[h.ID] = append(byID[h.ID], h)
	}
	var proxySelf, handler []float64
	var phases []*obs.SpanData
	for _, p := range sp.phases {
		ps := &obs.SpanData{Name: "phase " + p.Name, Start: p.start,
			Metrics: map[string]float64{"rate": p.Rate, "requests": float64(len(p.ids))}}
		for i, id := range p.ids {
			s := p.samples[i]
			req := &obs.SpanData{Name: "request", TraceID: id, Start: p.start.Add(s.Sent), Duration: s.Done - s.Sent,
				Metrics: map[string]float64{"late_ms": ms(s.late())}}
			var px *obs.SpanData
			var attempts []*obs.SpanData
			for _, h := range byID[id] {
				sd := &obs.SpanData{Name: h.Where, TraceID: id, Start: h.Start, Duration: h.End.Sub(h.Start)}
				if h.Where == "proxy" {
					px = sd
				} else {
					attempts = append(attempts, sd)
					handler = append(handler, ms(sd.Duration))
				}
			}
			if px != nil {
				px.Children = attempts
				proxySelf = append(proxySelf, ms(selfTime(px)))
				req.Children = []*obs.SpanData{px}
			} else {
				req.Children = attempts
			}
			if i < reportRequests {
				ps.Children = append(ps.Children, req)
			}
			ps.Duration = max(ps.Duration, s.Done)
		}
		phases = append(phases, ps)
	}
	var install, promote []float64
	var rollSecs []float64
	for _, r := range sp.rollouts {
		rs := &obs.SpanData{Name: "proxy.Rollout", Start: r.Start, Duration: r.End.Sub(r.Start)}
		rollSecs = append(rollSecs, rs.Duration.Seconds())
		for _, h := range admin {
			if strings.HasPrefix(h.Path, "/v1/") && !h.Start.Before(r.Start) && !h.End.After(r.End) {
				rs.Children = append(rs.Children, &obs.SpanData{Name: h.Where + " " + h.Path, Start: h.Start, Duration: h.End.Sub(h.Start)})
			}
		}
		phases = append(phases, rs)
	}
	for _, h := range admin {
		switch h.Path {
		case "/v1/admin/shadow/install":
			install = append(install, ms(h.End.Sub(h.Start)))
		case "/v1/admin/promote":
			promote = append(promote, ms(h.End.Sub(h.Start)))
		}
	}
	sort.Slice(phases, func(i, j int) bool { return phases[i].Start.Before(phases[j].Start) })
	timed := &obs.SpanData{Name: "timed", Children: phases}
	if len(phases) > 0 {
		timed.Start = phases[0].Start
		for _, ph := range phases {
			timed.Duration = max(timed.Duration, ph.Start.Add(ph.Duration).Sub(timed.Start))
		}
	}
	root := &obs.SpanData{Name: "perfbench/" + workload, Root: true, Start: setup.Start,
		Children: []*obs.SpanData{setup, timed, probeSpan}}
	root.Duration = probeSpan.Start.Add(probeSpan.Duration).Sub(root.Start)
	setPaths(root, "")

	handler = sorted(handler)
	c := sp.Counters
	layers := map[string]float64{
		"dataset.generate_s":        spanSeconds([]*obs.SpanData{setup}, "dataset.Generate"),
		"dataset.generate_alloc_mb": spanAllocMB([]*obs.SpanData{setup}, "dataset.Generate"),
		"features.extract_s":        spanSeconds([]*obs.SpanData{setup}, "features.ExtractAll"),
		"gpusim.label_s":            spanSeconds([]*obs.SpanData{setup}, "gpusim.label"),
		"classify.fit_s":            spanSeconds([]*obs.SpanData{setup}, "serve.TrainCascade"),
		"semisup.fit_s":             spanSeconds([]*obs.SpanData{setup}, "core.TrainSelector"),
		"proxy.self_ms_p50":         median(proxySelf),
		"proxy.hedge_ratio":         ratio(c["proxy/hedges"], c["proxy/requests"]),
		"serve.handler_ms_p50":      quantile(handler, 0.5),
		"serve.handler_ms_p99":      quantile(handler, 0.99),
		"serve.lru_hit_ratio":       ratio(c["serve/cache/hits"], c["serve/cache/hits"]+c["serve/cache/misses"]),
		"serve.memo_hit_ratio":      ratio(c["serve/featmemo/hits"], c["serve/featmemo/hits"]+c["serve/featmemo/misses"]),
		"serve.cascade_hit_ratio":   ratio(c["serve/cascade/hits"], c["serve/cascade/hits"]+c["serve/cascade/fallthroughs"]),
		"serve.rejected":            c["serve/rejected"],
		"registry.install_ms":       median(install),
		"registry.promote_ms":       median(promote),
		"proxy.rollout_s":           median(rollSecs),
		"runtime.gc_cpu_frac":       sp.GCFrac,
		"runtime.alloc_mb":          sp.AllocMB,
	}
	return root, layers
}

// setPaths fills the slash-joined ancestor paths of a hand-built tree.
func setPaths(sd *obs.SpanData, parent string) {
	sd.Path = sd.Name
	if parent != "" {
		sd.Path = parent + "/" + sd.Name
	}
	for _, ch := range sd.Children {
		setPaths(ch, sd.Path)
	}
}

// probes times direct calls into the request path's layers over the
// workload's pool: sparse.ReadMatrixMarketBytesScratch, then
// (*features.Scratch).ExtractCheap and Extract on the parsed matrix,
// then (*serve.Artifact).Predict with the live Turing artifact on the
// full vector.
func probes(st *serveState) (map[string]float64, *obs.SpanData, error) {
	_, sp := obs.StartAlways(context.Background(), "probes")
	var art *serve.Artifact
	for hash, a := range st.arts.byArch["turing"] {
		if hash == st.arts.HashA {
			art = a
		}
	}
	ps := sparse.GetParseScratch()
	defer sparse.PutParseScratch(ps)
	var s features.Scratch
	var parse, cheap, full, pred []float64
	var parsed int
	var parseTime time.Duration
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for round := 0; round < 3; round++ {
		for _, it := range st.pool {
			t0 := time.Now()
			m, err := sparse.ReadMatrixMarketBytesScratch(it.body, ps)
			d := time.Since(t0)
			if err != nil {
				return nil, nil, fmt.Errorf("probe parse: %w", err)
			}
			parse, parsed, parseTime = append(parse, ms(d)), parsed+len(it.body), parseTime+d
			t0 = time.Now()
			s.ExtractCheap(m)
			cheap = append(cheap, us(time.Since(t0)))
			t0 = time.Now()
			v := s.Extract(m)
			full = append(full, us(time.Since(t0)))
			t0 = time.Now()
			_, err = art.Predict(v[:])
			pred = append(pred, us(time.Since(t0)))
			if err != nil {
				return nil, nil, fmt.Errorf("probe predict: %w", err)
			}
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, it := range st.pool {
		if _, err := sparse.ReadMatrixMarketBytesScratch(it.body, ps); err != nil {
			return nil, nil, fmt.Errorf("probe parse: %w", err)
		}
	}
	runtime.ReadMemStats(&m1)
	vals := map[string]float64{
		"sparse.parse_ms_p50":   median(parse),
		"sparse.parse_mb_s":     float64(parsed) / 1e6 / parseTime.Seconds(),
		"sparse.parse_allocs":   float64(m1.Mallocs-m0.Mallocs) / float64(len(st.pool)),
		"features.cheap_us_p50": median(cheap),
		"features.full_us_p50":  median(full),
		"serve.predict_us_p50":  median(pred),
	}
	for k, v := range vals {
		sp.SetMetric(k, v)
	}
	return vals, sp.EndData(), nil
}
