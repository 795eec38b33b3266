package proxy

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
)

// Replica health. Each replica is probed actively via its /readyz (the
// same endpoint orchestrators gate on, so "ready" means every
// configured artifact is loaded, not just that the port answers) and
// passively by the request path: a transport-level failure ejects the
// replica immediately, before the next health tick, so routing stops
// offering a dead shard as a hedge target. Ejected replicas are
// re-probed on an exponential backoff, capped at maxBackoff, and
// readmitted on the first passing probe.

// maxBackoff caps the readmit-probe spacing of an ejected replica.
const maxBackoff = 15 * time.Second

// replica is the proxy's view of one serve instance.
type replica struct {
	addr string

	mu      sync.Mutex
	healthy bool
	lastErr string
	// fails counts consecutive failed probes since the last success.
	fails int64
	// backoff is the current readmit-probe spacing; nextProbe is when
	// the next probe of an ejected replica is due.
	backoff   time.Duration
	nextProbe time.Time
	// Last good /readyz body, surfaced in the fleet status so one GET
	// shows every replica's uptime and per-arch artifact hashes.
	uptime float64
	arches []serve.ArchStatus
}

// ReplicaStatus is one replica's row in the /v1/fleet answer.
type ReplicaStatus struct {
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
	// ConsecutiveFailures counts failed probes since the last success;
	// Ejections counts healthy->ejected transitions over the proxy's
	// lifetime.
	ConsecutiveFailures int64              `json:"consecutive_failures,omitempty"`
	Ejections           int64              `json:"ejections,omitempty"`
	LastError           string             `json:"last_error,omitempty"`
	UptimeSeconds       float64            `json:"uptime_seconds,omitempty"`
	Arches              []serve.ArchStatus `json:"arches,omitempty"`
}

// healthLoop probes the fleet every HealthInterval until ctx ends.
func (p *Proxy) healthLoop(ctx context.Context) {
	t := time.NewTicker(p.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.CheckAll(ctx)
		}
	}
}

// CheckAll probes every replica once (respecting ejected replicas'
// backoff windows) and updates the ring. Exported so tests and the
// serve loop can force a converged view without waiting out a tick.
func (p *Proxy) CheckAll(ctx context.Context) {
	now := time.Now()
	var wg sync.WaitGroup
	for _, rep := range p.replicas {
		rep.mu.Lock()
		due := rep.healthy || !now.Before(rep.nextProbe)
		rep.mu.Unlock()
		if !due {
			continue
		}
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			p.probe(ctx, rep)
		}(rep)
	}
	wg.Wait()
}

// probe fetches one replica's /readyz and applies the verdict.
func (p *Proxy) probe(ctx context.Context, rep *replica) {
	ctx, cancel := context.WithTimeout(ctx, p.probeTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+rep.addr+"/readyz", nil)
	if err != nil {
		p.noteProbeResult(rep, serve.ReadyResponse{}, err)
		return
	}
	resp, err := p.client.Do(req)
	if err != nil {
		p.noteProbeResult(rep, serve.ReadyResponse{}, err)
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	var ready serve.ReadyResponse
	if derr := json.Unmarshal(body, &ready); derr != nil {
		ready = serve.ReadyResponse{}
	}
	if resp.StatusCode != http.StatusOK {
		msg := ready.Error
		if msg == "" {
			msg = fmt.Sprintf("readyz answered %d", resp.StatusCode)
		}
		p.noteProbeResult(rep, ready, fmt.Errorf("%s", msg))
		return
	}
	p.noteProbeResult(rep, ready, nil)
}

func (p *Proxy) probeTimeout() time.Duration {
	if t := p.cfg.HealthInterval; t > 2*time.Second {
		return t
	}
	return 2 * time.Second
}

// noteProbeResult applies one probe verdict: a pass readmits (or keeps)
// the replica; a failure ejects it and doubles the readmit backoff.
func (p *Proxy) noteProbeResult(rep *replica, ready serve.ReadyResponse, err error) {
	rep.mu.Lock()
	if err == nil {
		wasEjected := !rep.healthy
		rep.healthy = true
		rep.lastErr = ""
		rep.fails = 0
		rep.backoff = 0
		rep.uptime = ready.UptimeSeconds
		rep.arches = ready.Arches
		rep.mu.Unlock()
		p.ring.Add(rep.addr)
		p.replicaHealthy.With(rep.addr).Set(1)
		if wasEjected {
			p.readmits.Inc()
		}
		p.ringSize.Set(float64(p.ring.Size()))
		return
	}
	rep.fails++
	rep.lastErr = err.Error()
	wasHealthy := rep.healthy
	rep.healthy = false
	if rep.backoff == 0 {
		rep.backoff = p.cfg.HealthInterval
	} else if rep.backoff < maxBackoff {
		rep.backoff *= 2
	}
	if rep.backoff > maxBackoff {
		rep.backoff = maxBackoff
	}
	rep.nextProbe = time.Now().Add(rep.backoff)
	rep.mu.Unlock()
	p.ring.Remove(rep.addr)
	p.replicaHealthy.With(rep.addr).Set(0)
	if wasHealthy {
		p.ejections.Inc()
		p.replicaEject.With(rep.addr).Inc()
	}
	p.ringSize.Set(float64(p.ring.Size()))
}

// noteTransportFailure is the passive path: a request-forwarding
// attempt that failed at the transport level (connection refused or
// reset, not an HTTP status) ejects the replica immediately — the next
// key routed to it would hit the same dead socket, and the hedge
// budget is better spent on live shards. The health loop readmits it.
func (p *Proxy) noteTransportFailure(addr string, err error) {
	rep := p.replicas[addr]
	if rep == nil {
		return
	}
	p.noteProbeResult(rep, serve.ReadyResponse{}, err)
}

// replicaStatus snapshots one replica for /v1/fleet.
func (p *Proxy) replicaStatus(rep *replica) ReplicaStatus {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return ReplicaStatus{
		Addr:                rep.addr,
		Healthy:             rep.healthy,
		ConsecutiveFailures: rep.fails,
		Ejections:           p.ejectedCount(rep.addr),
		LastError:           rep.lastErr,
		UptimeSeconds:       rep.uptime,
		Arches:              rep.arches,
	}
}

// ejectedCount reads the per-replica ejection tally back out of the
// labeled gauge-free world: the proxy keeps it on the counter vector so
// /metrics and /v1/fleet agree by construction.
func (p *Proxy) ejectedCount(addr string) int64 {
	return p.replicaEject.With(addr).Value()
}
