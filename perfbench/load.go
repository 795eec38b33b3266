package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proxy"
)

// conns is the load generator's connection count: one process, at most
// two connections, one request in flight on each.
const conns = 2

// job is one request of a phase: a pool item sent to an arch as a
// MatrixMarket body, or as its feature vector.
type job struct {
	item     int
	arch     string
	features bool
}

// phase is one timed stretch of load: its jobs, their schedule (rate 0
// sends each job as soon as a connection is free: a closed loop) and
// what happened to each.
type phase struct {
	Name    string
	Rate    float64
	jobs    []job
	start   time.Time
	samples []sample
	ids     []string
}

// loadgen is the benchmark's client: it sends phases through the proxy
// and checks every answer against the plain-path references.
type loadgen struct {
	client *http.Client
	base   string
	pool   []*poolItem
	refs   map[string]map[string][]string
	// unique makes every matrix body byte-unique with a comment line.
	unique bool
	// bufs are the workers' reusable body buffers for unique bodies.
	bufs [conns][]byte
	seq  atomic.Int64
	// onSend, when set, is called with each timed request's sequence
	// number once it is answered.
	onSend func(n int64)
	log    io.Writer

	mu  sync.Mutex
	out *outcome
}

func newLoadgen(f *fleet, pool []*poolItem, refs map[string]map[string][]string, unique bool, out *outcome, log io.Writer) *loadgen {
	return &loadgen{
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
		base:   "http://" + f.proxyAddr,
		pool:   pool,
		refs:   refs,
		unique: unique,
		out:    out,
		log:    log,
	}
}

// run sends the phase's jobs on the generator's connections. With a
// rate, job i is due at start + i/rate whether or not earlier answers
// have arrived, so a stall makes later jobs late; each is timed from
// when it was due.
func (g *loadgen) run(p *phase) {
	p.samples = make([]sample, len(p.jobs))
	p.ids = make([]string, len(p.jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	p.start = time.Now()
	due := func(i int) time.Duration {
		if p.Rate <= 0 {
			return 0
		}
		return time.Duration(float64(i) / p.Rate * float64(time.Second))
	}
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				sent := time.Since(p.start)
				d := due(i)
				if p.Rate <= 0 {
					d = sent
				}
				n := g.seq.Add(1)
				id := "pb-" + strconv.FormatInt(n, 10)
				done, ok := g.send(w, id, p.jobs[i], p.start)
				p.samples[i] = sample{Due: d, Sent: sent, Done: done, OK: ok}
				p.ids[i] = id
				if g.onSend != nil {
					g.onSend(n)
				}
			}
		}(w)
	}
	for i := range p.jobs {
		if wait := time.Until(p.start.Add(due(i))); wait > 0 {
			time.Sleep(wait)
		}
		next <- i
	}
	close(next)
	wg.Wait()
}

// send issues one request on worker w's connection and checks the
// answer. It returns when the answer had been read, relative to start,
// and whether the request succeeded.
func (g *loadgen) send(w int, id string, j job, start time.Time) (time.Duration, bool) {
	it := g.pool[j.item]
	path := "/v1/predict/matrix?arch=" + j.arch
	body := it.body
	switch {
	case j.features:
		path, body = "/v1/predict/features", it.feat[j.arch]
	case g.unique:
		b := append(g.bufs[w][:0], it.body[:it.head]...)
		b = append(b, "% perfbench "+id+"\n"...)
		b = append(b, it.body[it.head:]...)
		g.bufs[w], body = b, b
	}
	req, err := http.NewRequest(http.MethodPost, g.base+path, bytes.NewReader(body))
	if err != nil {
		return time.Since(start), g.fail(fmt.Errorf("building request: %w", err))
	}
	req.Header.Set("X-Request-ID", id)
	resp, err := g.client.Do(req)
	if err != nil {
		// The transport may still read a failed request's body; give
		// the worker a fresh buffer.
		g.bufs[w] = nil
		return time.Since(start), g.fail(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Since(start)
	if err != nil {
		return done, g.fail(err)
	}
	if resp.StatusCode != http.StatusOK {
		return done, g.fail(fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data)))
	}
	var ans struct {
		Format string `json:"format"`
	}
	hash := resp.Header.Get("X-Model-Hash")
	g.mu.Lock()
	defer g.mu.Unlock()
	g.out.Attempted++
	switch ref, ok := g.refs[j.arch][hash]; {
	case json.Unmarshal(data, &ans) != nil:
		g.out.mismatch("request %s: unparseable answer %q", id, data)
	case !ok:
		g.out.mismatch("request %s (%s): answered by unknown artifact %q", id, j.arch, hash)
	case ans.Format != ref[j.item]:
		g.out.mismatch("request %s (%s, item %d, features=%v): format %q, plain path says %q",
			id, j.arch, j.item, j.features, ans.Format, ref[j.item])
	}
	return done, true
}

// fail counts a failed request.
func (g *loadgen) fail(err error) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.out.Attempted++
	g.out.Failed++
	if g.out.Failed <= 5 {
		fmt.Fprintf(g.log, "perfbench: request failed: %v\n", err)
	}
	return false
}

// rollouts runs proxy.Rollout once every `every` requests, alternating
// the Turing artifact between its two byte-different versions. Rollouts
// run one at a time; one that comes due while another runs starts when
// it ends, so every stretch of `every` requests asks for exactly one.
type rollouts struct {
	every int64
	cfg   proxy.RolloutConfig
	paths [2]string
	log   io.Writer

	wg      sync.WaitGroup
	mu      sync.Mutex
	pending int
	running bool
	next    int
	done    []rolloutRec
	failed  int
}

// rolloutRec is one completed rollout.
type rolloutRec struct {
	Start, End time.Time
}

func (r *rollouts) tick(n int64) {
	if n%r.every != 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pending++
	if !r.running {
		r.running = true
		r.wg.Add(1)
		go r.loop()
	}
}

// loop runs the pending rollouts one after another.
func (r *rollouts) loop() {
	defer r.wg.Done()
	r.mu.Lock()
	for r.pending > 0 {
		r.pending--
		cfg := r.cfg
		cfg.ArtifactPath = r.paths[r.next]
		r.mu.Unlock()
		start := time.Now()
		_, err := proxy.Rollout(context.Background(), cfg)
		end := time.Now()
		r.mu.Lock()
		if err != nil {
			r.failed++
			fmt.Fprintf(r.log, "perfbench: rollout failed: %v\n", err)
			continue
		}
		r.next ^= 1
		r.done = append(r.done, rolloutRec{start, end})
	}
	r.running = false
	r.mu.Unlock()
}

// busy reports whether a rollout is running or due.
func (r *rollouts) busy() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.running
}

// take returns the completed rollouts and how many failed; the caller
// has waited for the ones in flight (see settle).
func (r *rollouts) take() ([]rolloutRec, int) {
	r.wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	d, f := r.done, r.failed
	r.done, r.failed = nil, 0
	return d, f
}
