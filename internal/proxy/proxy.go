package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
)

// Config tunes the fleet front door. The zero value (plus Replicas)
// selects production defaults.
type Config struct {
	// Replicas are the serve instances behind the proxy (host:port).
	Replicas []string
	// Vnodes is the consistent-hash virtual-node count per replica
	// (default 64).
	Vnodes int
	// Timeout bounds one client request end to end, every hedge and
	// retry included (default 30s).
	Timeout time.Duration
	// HedgeAfter is how long the primary replica may sit on a
	// prediction before the proxy races a second attempt against the
	// next replica on the ring (default 250ms; <= 0 keeps the default —
	// hedging is the point of the tier). One hedge per request.
	HedgeAfter time.Duration
	// HealthInterval spaces the active /readyz probes (default 1s).
	HealthInterval time.Duration
	// MaxBackoff caps the readmit-probe backoff for ejected replicas
	// (default 15s).
	MaxBackoff time.Duration
	// MaxBodyBytes bounds the request body the proxy will buffer for
	// hedging (default 64 MiB, matching serve).
	MaxBodyBytes int64
	// AdminToken gates the proxy's own admin surface (/v1/admin/trace).
	// Empty disables it; the replica fan-out endpoints are unaffected —
	// they forward the client's Authorization to the replicas, which
	// hold their own tokens.
	AdminToken string
	// TraceCapacity bounds the proxy's tail-sampled trace store
	// (default 128; negative disables proxy-side tracing, and the trace
	// routes answer 501).
	TraceCapacity int
	// SlowRequest marks a proxied request slow for the trace store
	// (default 250ms via the store; negative disables the threshold).
	SlowRequest time.Duration
	// TraceSample keeps one in N otherwise-uninteresting traces
	// (default 100; negative disables sampling).
	TraceSample int
	// Client overrides the forwarding HTTP client (tests); nil builds
	// one with sane connection pooling.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Vnodes <= 0 {
		c.Vnodes = defaultVnodes
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = 250 * time.Millisecond
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 15 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	return c
}

// Proxy is the HTTP front door over a fleet of serve replicas:
//
//	GET  /healthz              the proxy's own liveness
//	GET  /readyz               fleet readiness: 200 while >= 1 replica
//	                           is healthy, body is the fleet status
//	GET  /v1/fleet             fleet status (replicas, ring, hedges)
//	GET  /metrics              the proxy's own Prometheus exposition
//	GET  /v1/model             forwarded to the arch's ring owner
//	POST /v1/predict/matrix    consistent-hashed on the body, hedged
//	POST /v1/predict/features  consistent-hashed on the body, hedged
//	POST /v1/predict/batch     consistent-hashed on the body, hedged
//	POST /v1/feedback          routed to the replica that served the
//	                           prediction (by X-Request-ID), never
//	                           hedged — outcomes are consume-once
//	GET  /v1/admin/slo         per-replica reports + fleet totals
//	GET  /v1/admin/quality     per-replica reports + fleet totals
//	GET  /v1/admin/shadow      per-replica reports + fleet agreement
//	GET  /v1/admin/trace       retained proxy traces (own -admin-token)
//	GET  /v1/admin/trace/{id}  one trace, replica spans stitched in
//
// Prediction requests hash on the request body's content (the same
// bytes serve's feature memo keys on), so a repeated matrix always
// lands on the replica whose memo already holds its features; requests
// with no body route by arch. The admin fan-outs forward the client's
// Authorization header verbatim — the proxy holds no tokens of its
// own.
//
// Metrics, in the shared obs registry:
//
//	proxy/requests            counter    client requests accepted
//	proxy/errors              counter    client requests answered >= 500
//	proxy/hedges              counter    hedge attempts launched
//	proxy/hedge_wins          counter    requests answered by the hedge
//	proxy/retries             counter    failover retries after a failed attempt
//	proxy/ejections           counter    healthy -> ejected transitions
//	proxy/readmits            counter    ejected -> healthy transitions
//	proxy/ring/size           gauge      replicas currently in the ring
//	proxy/request/seconds     histogram  end-to-end proxied latency
//	proxy/replica/requests{replica}  counter  attempts forwarded per replica
//	proxy/replica/errors{replica}    counter  failed attempts per replica
//	proxy/replica/healthy{replica}   gauge    1 while the replica is in the ring
//	proxy/replica/ejections{replica} counter  ejections per replica
//	proxy/trace/kept          counter    traces retained by the tail sampler
//	proxy/trace/dropped       counter    traces offered but not retained
//	proxy/trace/evicted       counter    retained traces evicted under pressure
type Proxy struct {
	cfg      Config
	ring     *Ring
	replicas map[string]*replica
	order    []string // fleet in configured order, for stable listings
	client   *http.Client
	routes   *routeTable
	traces   *obs.TraceStore // nil when TraceCapacity < 0
	started  time.Time

	requests  *obs.Counter
	errors    *obs.Counter
	hedges    *obs.Counter
	hedgeWins *obs.Counter
	retries   *obs.Counter
	ejections *obs.Counter
	readmits  *obs.Counter
	ringSize  *obs.Gauge
	latency   *obs.Histogram

	replicaReqs    *obs.CounterVec
	replicaErrs    *obs.CounterVec
	replicaHealthy *obs.GaugeVec
	replicaEject   *obs.CounterVec
}

// New builds the front door. Replicas start outside the ring and join
// on their first passing health probe, so a proxy started before its
// fleet converges on its own.
func New(cfg Config) (*Proxy, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("proxy: no replicas configured")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	p := &Proxy{
		cfg:      cfg,
		ring:     NewRing(cfg.Vnodes),
		replicas: map[string]*replica{},
		client:   client,
		routes:   newRouteTable(pendingRoutes),
		started:  time.Now(),

		requests:  obs.Default.Counter("proxy/requests"),
		errors:    obs.Default.Counter("proxy/errors"),
		hedges:    obs.Default.Counter("proxy/hedges"),
		hedgeWins: obs.Default.Counter("proxy/hedge_wins"),
		retries:   obs.Default.Counter("proxy/retries"),
		ejections: obs.Default.Counter("proxy/ejections"),
		readmits:  obs.Default.Counter("proxy/readmits"),
		ringSize:  obs.Default.Gauge("proxy/ring/size"),
		latency:   obs.Default.Histogram("proxy/request/seconds", obs.DurationBuckets),

		replicaReqs:    obs.Default.CounterVec("proxy/replica/requests", "replica"),
		replicaErrs:    obs.Default.CounterVec("proxy/replica/errors", "replica"),
		replicaHealthy: obs.Default.GaugeVec("proxy/replica/healthy", "replica"),
		replicaEject:   obs.Default.CounterVec("proxy/replica/ejections", "replica"),
	}
	p.traces = obs.NewTraceStore(obs.TraceConfig{
		Capacity:      cfg.TraceCapacity,
		SlowThreshold: cfg.SlowRequest,
		SampleEvery:   cfg.TraceSample,
		Metrics:       obs.Default,
		Prefix:        "proxy/trace",
	})
	for _, addr := range cfg.Replicas {
		if addr == "" {
			return nil, fmt.Errorf("proxy: empty replica address")
		}
		if _, dup := p.replicas[addr]; dup {
			return nil, fmt.Errorf("proxy: replica %s configured twice", addr)
		}
		p.replicas[addr] = &replica{addr: addr}
		p.order = append(p.order, addr)
		p.replicaHealthy.With(addr).Set(0)
	}
	return p, nil
}

// FleetStatus is the /v1/fleet (and /readyz) body.
type FleetStatus struct {
	// Ready is true while at least one replica is healthy.
	Ready         bool    `json:"ready"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	ReplicaCount  int     `json:"replica_count"`
	HealthyCount  int     `json:"healthy_count"`
	RingSize      int     `json:"ring_size"`
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	Hedges        int64   `json:"hedges"`
	HedgeWins     int64   `json:"hedge_wins"`
	Retries       int64   `json:"retries"`
	Ejections     int64   `json:"ejections"`
	Readmits      int64   `json:"readmits"`
	// HedgeRate is Hedges/Requests (0 on no traffic).
	HedgeRate float64         `json:"hedge_rate"`
	Replicas  []ReplicaStatus `json:"replicas"`
}

// Fleet snapshots the fleet view.
func (p *Proxy) Fleet() FleetStatus {
	st := FleetStatus{
		UptimeSeconds: time.Since(p.started).Seconds(),
		ReplicaCount:  len(p.order),
		RingSize:      p.ring.Size(),
		Requests:      p.requests.Value(),
		Errors:        p.errors.Value(),
		Hedges:        p.hedges.Value(),
		HedgeWins:     p.hedgeWins.Value(),
		Retries:       p.retries.Value(),
		Ejections:     p.ejections.Value(),
		Readmits:      p.readmits.Value(),
	}
	if st.Requests > 0 {
		st.HedgeRate = float64(st.Hedges) / float64(st.Requests)
	}
	for _, addr := range p.order {
		rs := p.replicaStatus(p.replicas[addr])
		if rs.Healthy {
			st.HealthyCount++
		}
		st.Replicas = append(st.Replicas, rs)
	}
	st.Ready = st.HealthyCount > 0
	return st
}

// Handler returns the proxy's HTTP handler.
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		st := p.Fleet()
		status := http.StatusOK
		if !st.Ready {
			status = http.StatusServiceUnavailable
		}
		obs.WriteJSON(w, status, st)
	})
	mux.HandleFunc("/v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, http.StatusOK, p.Fleet())
	})
	mux.Handle("/metrics", obs.PromHandler(obs.Default))
	mux.HandleFunc("/v1/model", p.handleByArch)
	mux.HandleFunc("/v1/predict/matrix", p.handlePredict)
	mux.HandleFunc("/v1/predict/features", p.handlePredict)
	mux.HandleFunc("/v1/predict/batch", p.handlePredict)
	mux.HandleFunc("/v1/feedback", p.handleFeedback)
	mux.HandleFunc("/v1/admin/slo", p.handleFanout)
	mux.HandleFunc("/v1/admin/quality", p.handleFanout)
	mux.HandleFunc("/v1/admin/shadow", p.handleFanout)
	// Traces are the proxy's own state, so the proxy holds their gate;
	// the fan-outs above forward the client's token to the replicas.
	traces := obs.ServeTraces(p.traces, p.stitch)
	admin := func(w http.ResponseWriter, r *http.Request) {
		if obs.AllowMethod(w, r, http.MethodGet) && obs.CheckBearer(w, r, p.cfg.AdminToken, "spmvselect proxy admin") {
			traces(w, r)
		}
	}
	mux.HandleFunc("/v1/admin/trace", admin)
	mux.HandleFunc("/v1/admin/trace/", admin)
	return mux
}

// Run serves the front door on addr until ctx is cancelled, starting
// the health loop and blocking until shutdown. ready, when non-nil,
// receives the bound address (how callers learn the port of ":0"). An
// initial synchronous CheckAll seeds the ring before the listener
// accepts, so the first request never races an empty ring against
// healthy replicas.
func (p *Proxy) Run(ctx context.Context, addr string, ready func(bound string)) error {
	p.CheckAll(ctx)
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	go p.healthLoop(hctx)

	srv := &http.Server{
		Handler:      p.Handler(),
		ReadTimeout:  p.cfg.Timeout,
		WriteTimeout: p.cfg.Timeout + p.cfg.HedgeAfter,
	}
	if err := obs.RunServer(ctx, addr, srv, ready); err != nil {
		return fmt.Errorf("proxy: %w", err)
	}
	return nil
}

// proxied is one fully buffered upstream response. Responses are small
// JSON documents (predictions, reports), so buffering them decouples
// hedge cancellation from the client copy.
type proxied struct {
	status int
	header http.Header
	body   []byte
	addr   string
	hedged bool
}

// attemptResult is one upstream attempt's outcome.
type attemptResult struct {
	proxied
	err error
}

// handlePredict routes one prediction request: consistent-hash on the
// body content (the same bytes the replica's feature memo keys on),
// forward to the ring owner, hedge onto the next distinct replica when
// the owner is slow, fail over when an attempt dies.
//
// The proxy is the trace root for fleet requests: it mints (or adopts)
// the X-Request-ID with obs.RequestID, so every hop — proxy spans,
// replica spans, logs — shares one key. It opens an always-on root
// span, and every upstream attempt — owner, hedge, failover — becomes a
// sibling child span, so a retained trace shows the full race,
// abandoned attempts included.
func (p *Proxy) handlePredict(w http.ResponseWriter, r *http.Request) {
	if !obs.AllowMethod(w, r, http.MethodPost) {
		return
	}
	p.requests.Inc()
	trace := obs.RequestID(r)
	// Write the (possibly minted) ID back onto the request so every
	// attempt forwards it and the replicas adopt it as their trace ID.
	r.Header.Set("X-Request-ID", trace)
	start := time.Now()
	defer func() { p.latency.ObserveExemplar(time.Since(start).Seconds(), trace) }()

	ctx, root := p.traces.StartRequest(obs.WithTraceID(r.Context(), trace), r, r.URL.Path)
	r = r.WithContext(ctx)

	body, status := p.readBody(w, r)
	if status != http.StatusOK {
		p.traces.FinishRequest(root, r, status)
		return // readBody already answered
	}
	key := routeKey(body, r.URL.Query().Get("arch"))
	res, info, ferr := p.forward(r, body, key, true)
	status = res.status
	if ferr != nil {
		p.errors.Inc()
		status = http.StatusBadGateway
		obs.WriteJSON(w, status, obs.ErrorBody{Error: "fleet: " + ferr.Error()})
	} else {
		if res.status >= 500 {
			p.errors.Inc()
		}
		// Remember which replica answered, so a later /v1/feedback
		// carrying this X-Request-ID lands on the replica holding the
		// pending entry.
		if id := res.header.Get("X-Request-ID"); id != "" && res.status == http.StatusOK {
			p.routes.put(id, res.addr)
		}
		p.copyResponse(w, res)
	}
	var forced []string
	if info.hedged {
		forced = append(forced, obs.KeepHedged)
	}
	if info.failover {
		forced = append(forced, obs.KeepFailover)
	}
	p.traces.FinishRequest(root, r, status, forced...)
}

// handleByArch routes body-less endpoints (/v1/model) by arch: the
// same replica that owns the arch's keyspace fallback answers, so
// repeated fleet-status scripts see a stable view.
func (p *Proxy) handleByArch(w http.ResponseWriter, r *http.Request) {
	p.requests.Inc()
	key := "arch:" + r.URL.Query().Get("arch")
	res, _, ferr := p.forward(r, nil, key, true)
	if ferr != nil {
		p.errors.Inc()
		obs.WriteJSON(w, http.StatusBadGateway, obs.ErrorBody{Error: "fleet: " + ferr.Error()})
		return
	}
	if res.status >= 500 {
		p.errors.Inc()
	}
	p.copyResponse(w, res)
}

// handleFeedback forwards one feedback report to the replica that
// served the prediction it references. Feedback is consume-once on the
// replica, so it is never hedged or retried — a duplicate delivery
// would burn the join key and 404.
func (p *Proxy) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if !obs.AllowMethod(w, r, http.MethodPost) {
		return
	}
	p.requests.Inc()
	body, status := p.readBody(w, r)
	if status != http.StatusOK {
		return
	}
	var ref struct {
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(body, &ref); err != nil || ref.RequestID == "" {
		obs.WriteJSON(w, http.StatusBadRequest, obs.ErrorBody{Error: "feedback needs a request_id"})
		return
	}
	addr, ok := p.routes.get(ref.RequestID)
	if !ok {
		obs.WriteJSON(w, http.StatusNotFound,
			obs.ErrorBody{Error: "unknown request_id (prediction not served through this proxy, or evicted)"})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), p.cfg.Timeout)
	defer cancel()
	res := p.attempt(ctx, r, addr, body, false)
	if res.err != nil {
		p.errors.Inc()
		obs.WriteJSON(w, http.StatusBadGateway, obs.ErrorBody{Error: res.err.Error()})
		return
	}
	if res.status >= 500 {
		p.errors.Inc()
	}
	p.copyResponse(w, res.proxied)
}

// forwardInfo reports how a forward was answered — whether a hedge
// was launched and whether any failover retry happened — the facts the
// trace store force-keeps traces for.
type forwardInfo struct {
	hedged   bool
	failover bool
}

// forward answers one request through the ring with hedging and
// failover: launch the owner, race a hedge after HedgeAfter, fail over
// to the next distinct replica on a dead attempt, first success wins.
// A non-nil error means no attempt produced an HTTP response at all —
// a returned proxied may still carry a 5xx every replica agreed on,
// which forwards to the client as-is.
//
// When r's context carries a root span, every attempt gets a child
// span named attempt/<addr>; attempts still in flight when a winner
// returns are marked abandoned and closed, so the trace records the
// whole race, not just the winning leg.
func (p *Proxy) forward(r *http.Request, body []byte, key string, allowHedge bool) (proxied, forwardInfo, error) {
	var info forwardInfo
	targets := p.ring.LookupN(key, 2)
	if len(targets) == 0 {
		return proxied{}, info, fmt.Errorf("no healthy replicas (fleet of %d, all ejected)", len(p.order))
	}
	ctx, cancel := context.WithTimeout(r.Context(), p.cfg.Timeout)
	defer cancel()

	open := map[string]*obs.Span{}
	defer func() {
		for _, sp := range open {
			sp.SetMetric("abandoned", 1)
			sp.End()
		}
	}()
	closeSpan := func(res attemptResult) {
		sp := open[res.addr]
		if sp == nil {
			return
		}
		delete(open, res.addr)
		if res.err != nil {
			sp.SetMetric("transport_error", 1)
		} else {
			sp.SetMetric("status", float64(res.status))
		}
		sp.End()
	}

	resc := make(chan attemptResult, len(targets))
	launched := 0
	launch := func(hedged bool) {
		addr := targets[launched]
		launched++
		_, sp := obs.StartChild(ctx, "attempt/"+addr)
		if hedged {
			sp.SetMetric("hedged", 1)
		}
		if sp != nil {
			open[addr] = sp
		}
		go func() {
			resc <- p.attempt(ctx, r, addr, body, hedged)
		}()
	}
	launch(false)

	var hedgeC <-chan time.Time
	if allowHedge && len(targets) > 1 {
		timer := time.NewTimer(p.cfg.HedgeAfter)
		defer timer.Stop()
		hedgeC = timer.C
	}

	outstanding := 1
	var lastBad *proxied
	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return proxied{}, info, fmt.Errorf("fleet timeout after %s: %w", p.cfg.Timeout, ctx.Err())
		case <-hedgeC:
			hedgeC = nil
			if launched < len(targets) {
				p.hedges.Inc()
				info.hedged = true
				launch(true)
				outstanding++
			}
		case res := <-resc:
			outstanding--
			closeSpan(res)
			switch {
			case res.err != nil:
				// Transport-level death: eject now so the ring stops
				// offering this replica before the next health tick.
				p.noteTransportFailure(res.addr, res.err)
				lastErr = res.err
			case retryable(res.status):
				lastBad = &res.proxied
			default:
				if res.hedged {
					p.hedgeWins.Inc()
				}
				return res.proxied, info, nil
			}
			// The attempt failed. Fail over to the next untried replica;
			// once every target has been tried and answered, surface the
			// least-bad outcome.
			if launched < len(targets) {
				p.retries.Inc()
				info.failover = true
				launch(false)
				outstanding++
			} else if outstanding == 0 {
				if lastBad != nil {
					return *lastBad, info, nil
				}
				return proxied{}, info, lastErr
			}
		}
	}
}

// retryable marks upstream statuses worth another replica: transient
// server-side failures. 501 (static backend, by design) and every 4xx
// (the request itself is wrong — another replica hosting the same
// artifacts answers identically) forward as-is.
func retryable(status int) bool {
	return status >= 500 && status != http.StatusNotImplemented
}

// attempt forwards the request to one replica and buffers the answer.
func (p *Proxy) attempt(ctx context.Context, r *http.Request, addr string, body []byte, hedged bool) attemptResult {
	p.replicaReqs.With(addr).Inc()
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, "http://"+addr+r.URL.RequestURI(), reader)
	if err != nil {
		p.replicaErrs.With(addr).Inc()
		return attemptResult{proxied: proxied{addr: addr, hedged: hedged}, err: err}
	}
	copyHeader(req.Header, r.Header, "Content-Type", "Authorization", "X-Request-ID", "Accept",
		obs.TraceKeepHeader)
	// Count this proxy as one hop, so replica root spans record their
	// depth behind the front door. Hedge attempts are force-kept on the
	// replica too: when the hedge loses the race its replica-side trace
	// is the only record of what the slow leg was doing.
	hop := 1
	if prev, err := strconv.Atoi(r.Header.Get(obs.TraceHopHeader)); err == nil && prev > 0 {
		hop = prev + 1
	}
	req.Header.Set(obs.TraceHopHeader, strconv.Itoa(hop))
	if hedged {
		req.Header.Set(obs.TraceKeepHeader, "hedged")
	}
	resp, err := p.client.Do(req)
	if err != nil {
		p.replicaErrs.With(addr).Inc()
		return attemptResult{proxied: proxied{addr: addr, hedged: hedged}, err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, p.cfg.MaxBodyBytes+1))
	if err != nil {
		p.replicaErrs.With(addr).Inc()
		return attemptResult{proxied: proxied{addr: addr, hedged: hedged}, err: err}
	}
	if resp.StatusCode >= 500 {
		p.replicaErrs.With(addr).Inc()
	}
	return attemptResult{proxied: proxied{
		status: resp.StatusCode,
		header: resp.Header.Clone(),
		body:   data,
		addr:   addr,
		hedged: hedged,
	}}
}

// copyResponse relays a buffered upstream answer to the client,
// stamping which replica won.
func (p *Proxy) copyResponse(w http.ResponseWriter, res proxied) {
	for _, k := range []string{"Content-Type", "X-Request-ID", "X-Model-Hash", "WWW-Authenticate", "Allow"} {
		if v := res.header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.Header().Set("X-Proxy-Replica", res.addr)
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// readBody buffers the (bounded) request body; hedging needs a
// replayable copy. Any status but 200 is the error answer readBody
// already wrote.
func (p *Proxy) readBody(w http.ResponseWriter, r *http.Request) ([]byte, int) {
	body, err := obs.ReadBody(r, p.cfg.MaxBodyBytes)
	if err != nil {
		obs.WriteJSON(w, http.StatusBadRequest, obs.ErrorBody{Error: "reading request body: " + err.Error()})
		return nil, http.StatusBadRequest
	}
	if int64(len(body)) > p.cfg.MaxBodyBytes {
		obs.WriteJSON(w, http.StatusRequestEntityTooLarge,
			obs.ErrorBody{Error: fmt.Sprintf("request body exceeds %d bytes", p.cfg.MaxBodyBytes)})
		return nil, http.StatusRequestEntityTooLarge
	}
	return body, http.StatusOK
}

// castagnoli is the CRC-32C table, which hash/crc32 computes with the
// CPU's CRC instructions where it has them.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// routeKey is the consistent-hash identity of one prediction request:
// the CRC-32C of the body — the same bytes serve keys its feature memo
// on — with the arch as the fallback for empty bodies. Routing needs
// spread, not collision resistance: a crafted collision only moves a
// body to another replica, which a client can already do by trying
// bodies.
func routeKey(body []byte, arch string) string {
	if len(body) == 0 {
		return "arch:" + arch
	}
	return strconv.FormatUint(uint64(crc32.Checksum(body, castagnoli)), 16)
}

// ---------------------------------------------------------------------
// Trace admin API: the proxy's own retained traces, with replica span
// trees stitched in on fetch.

// StitchedTrace is the proxy's answer for one retained trace: its own
// span tree for the request with each replica's retained tree grafted
// under the attempt span that reached it. It carries every field of
// obs.TraceEntry, so clients decode either shape.
type StitchedTrace struct {
	obs.TraceEntry
	// StitchedFrom lists the replicas whose span trees were grafted in;
	// an attempt absent here either kept no trace (sampled out on the
	// replica) or could not be reached.
	StitchedFrom []string `json:"stitched_from,omitempty"`
}

// stitch is the proxy's view of one retained trace: for every
// attempt/<addr> child span it asks that replica for its tree of the
// same trace ID, forwarding the client's Authorization (the replicas
// hold their own admin tokens), and grafts the returned root under the
// attempt span. Cross-hop stitching is best-effort — a replica that
// sampled the trace out or is down just leaves its attempt span
// childless. The stored tree is never mutated: only the nodes on the
// modified path are cloned.
func (p *Proxy) stitch(r *http.Request, e *obs.TraceEntry) any {
	root := *e.Root
	root.Children = append([]*obs.SpanData(nil), e.Root.Children...)
	st := StitchedTrace{TraceEntry: *e}
	st.Root = &root
	for i, c := range root.Children {
		addr, ok := strings.CutPrefix(c.Name, "attempt/")
		if !ok {
			continue
		}
		sub := p.fetchReplicaTrace(r, addr, e.TraceID)
		if sub == nil {
			continue
		}
		cc := *c
		cc.Children = append(append([]*obs.SpanData(nil), c.Children...), sub)
		root.Children[i] = &cc
		st.StitchedFrom = append(st.StitchedFrom, addr)
	}
	return st
}

// fetchReplicaTrace asks one replica for its retained span tree of
// trace id. Nil on any failure — stitching is best-effort.
func (p *Proxy) fetchReplicaTrace(r *http.Request, addr, id string) *obs.SpanData {
	ctx, cancel := context.WithTimeout(r.Context(), p.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+obs.TracePath(id), nil)
	if err != nil {
		return nil
	}
	copyHeader(req.Header, r.Header, "Authorization")
	resp, err := p.client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil
	}
	var e obs.TraceEntry
	if err := json.NewDecoder(io.LimitReader(resp.Body, p.cfg.MaxBodyBytes)).Decode(&e); err != nil {
		return nil
	}
	return e.Root
}

// ---------------------------------------------------------------------
// Admin fan-out.

// fanoutResponse is the aggregated admin answer: every replica's raw
// report side by side, transport failures called out, and a fleet
// summary where the path has a natural one.
type fanoutResponse struct {
	Path     string                     `json:"path"`
	Replicas map[string]json.RawMessage `json:"replicas"`
	Failed   map[string]string          `json:"failed,omitempty"`
	Fleet    any                        `json:"fleet,omitempty"`
}

// handleFanout GETs the same admin path from every configured replica
// in parallel (ejected ones included — telemetry about a sick replica
// is the interesting kind), forwarding the client's Authorization
// header verbatim, and aggregates the fleet view.
func (p *Proxy) handleFanout(w http.ResponseWriter, r *http.Request) {
	if !obs.AllowMethod(w, r, http.MethodGet) {
		return
	}
	p.requests.Inc()
	ctx, cancel := context.WithTimeout(r.Context(), p.cfg.Timeout)
	defer cancel()

	type part struct {
		addr   string
		status int
		body   []byte
		err    error
	}
	parts := make([]part, len(p.order))
	var wg sync.WaitGroup
	for i, addr := range p.order {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			res := p.attempt(ctx, r, addr, nil, false)
			parts[i] = part{addr: addr, status: res.status, body: res.body, err: res.err}
		}(i, addr)
	}
	wg.Wait()

	out := fanoutResponse{Path: r.URL.Path, Replicas: map[string]json.RawMessage{}}
	worst := http.StatusOK
	for _, pt := range parts {
		if pt.err != nil {
			if out.Failed == nil {
				out.Failed = map[string]string{}
			}
			out.Failed[pt.addr] = pt.err.Error()
			continue
		}
		if json.Valid(pt.body) {
			out.Replicas[pt.addr] = json.RawMessage(pt.body)
		} else {
			raw, _ := json.Marshal(string(pt.body))
			out.Replicas[pt.addr] = raw
		}
		// A replica refusing auth fails the whole aggregate: partial
		// admin views hide exactly the replica you are debugging.
		if pt.status > worst {
			worst = pt.status
		}
	}
	if len(out.Replicas) == 0 && len(out.Failed) > 0 {
		obs.WriteJSON(w, http.StatusBadGateway, out)
		return
	}
	if worst == http.StatusOK {
		out.Fleet = p.summarize(r.URL.Path, out.Replicas)
	}
	obs.WriteJSON(w, worst, out)
}

// fleetSLOWindow is one aggregated SLO window: request and error
// totals across the fleet with the combined availability.
type fleetSLOWindow struct {
	Window       string  `json:"window"`
	Requests     int64   `json:"requests"`
	Errors       int64   `json:"errors"`
	Availability float64 `json:"availability"`
}

// fleetShadowSummary aggregates the shadow reports: totals plus the
// minimum per-replica agreement — the number a fleet rollout gates on,
// because promotion is only safe when the weakest replica agrees.
type fleetShadowSummary struct {
	Scored       int64   `json:"scored"`
	Disagree     int64   `json:"disagree"`
	MinAgreement float64 `json:"min_agreement"`
	Replicas     int     `json:"replicas"`
}

// fleetQualitySummary aggregates the measured-quality reports.
type fleetQualitySummary struct {
	Accepted   int64 `json:"accepted"`
	Samples    int64 `json:"samples"`
	ServedOnly int64 `json:"served_only"`
}

// summarize computes the per-path fleet rollup from the raw replica
// reports. Unknown paths (or undecodable reports) summarize to nil —
// the raw per-replica view is still there.
func (p *Proxy) summarize(path string, replicas map[string]json.RawMessage) any {
	addrs := make([]string, 0, len(replicas))
	for a := range replicas {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	switch path {
	case "/v1/admin/slo":
		byWindow := map[string]*fleetSLOWindow{}
		var order []string
		for _, a := range addrs {
			var rep obs.SLOReport
			if json.Unmarshal(replicas[a], &rep) != nil {
				return nil
			}
			for _, win := range rep.Windows {
				fw := byWindow[win.Window]
				if fw == nil {
					fw = &fleetSLOWindow{Window: win.Window}
					byWindow[win.Window] = fw
					order = append(order, win.Window)
				}
				fw.Requests += win.Requests
				fw.Errors += win.Errors
			}
		}
		out := make([]fleetSLOWindow, 0, len(order))
		for _, wname := range order {
			fw := byWindow[wname]
			fw.Availability = 1
			if fw.Requests > 0 {
				fw.Availability = 1 - float64(fw.Errors)/float64(fw.Requests)
			}
			out = append(out, *fw)
		}
		return map[string]any{"windows": out}
	case "/v1/admin/shadow":
		sum := fleetShadowSummary{MinAgreement: 1, Replicas: len(addrs)}
		sawPair := false
		for _, a := range addrs {
			var rep registry.ShadowReportData
			if json.Unmarshal(replicas[a], &rep) != nil {
				return nil
			}
			sum.Scored += rep.Scored
			sum.Disagree += rep.Disagree
			for _, ar := range rep.Arches {
				sawPair = true
				if ar.AgreementRate < sum.MinAgreement {
					sum.MinAgreement = ar.AgreementRate
				}
			}
		}
		if !sawPair {
			sum.MinAgreement = 0
		}
		return sum
	case "/v1/admin/quality":
		var sum fleetQualitySummary
		for _, a := range addrs {
			var rep registry.QualityReportData
			if json.Unmarshal(replicas[a], &rep) != nil {
				return nil
			}
			for _, ar := range rep.Arches {
				sum.Accepted += ar.Accepted
				sum.Samples += ar.Samples
				sum.ServedOnly += ar.ServedOnly
			}
		}
		return sum
	}
	return nil
}

// ---------------------------------------------------------------------
// Feedback route table.

// pendingRoutes bounds the request-ID -> replica table that routes
// /v1/feedback to the replica that answered the prediction.
const pendingRoutes = 8192

// routeTable remembers which replica answered each request ID, bounded
// FIFO — old entries evict once capacity wraps, matching the replicas'
// own bounded pending-feedback tables.
type routeTable struct {
	mu    sync.Mutex
	cap   int
	m     map[string]string
	order []string
	next  int
}

func newRouteTable(capacity int) *routeTable {
	return &routeTable{cap: capacity, m: map[string]string{}, order: make([]string, capacity)}
}

func (t *routeTable) put(id, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, exists := t.m[id]; !exists {
		if old := t.order[t.next]; old != "" {
			delete(t.m, old)
		}
		t.order[t.next] = id
		t.next = (t.next + 1) % t.cap
	}
	t.m[id] = addr
}

func (t *routeTable) get(id string) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	addr, ok := t.m[id]
	return addr, ok
}

// copyHeader forwards the named headers from src to dst, dropping
// hop-by-hop noise the replicas should not see.
func copyHeader(dst, src http.Header, names ...string) {
	for _, k := range names {
		if v := src.Get(k); v != "" {
			dst.Set(k, v)
		}
	}
}
