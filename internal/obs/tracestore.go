package obs

import (
	"sort"
	"sync"
	"time"
)

// TraceStore is a bounded, tail-sampling ring of completed request span
// trees. Every request offers its root span; the store keeps the full
// tree when the request is interesting after the fact — slow (above a
// static threshold or a dynamic SLO-window p99), errored, or force-kept
// by the caller (hedged, failover, requested) — plus a
// small deterministic sample of ordinary traffic so the store is never
// empty. When full, eviction drops sampled-only entries first, then
// force-kept ones, and touches slow/error traces last.
type TraceStore struct {
	cfg TraceConfig

	mu      sync.Mutex
	entries []*TraceEntry // insertion order, oldest first
	byID    map[string]*TraceEntry
	offers  uint64

	kept    *Counter
	dropped *Counter
	evicted *Counter
}

// TraceConfig configures a TraceStore. The zero value is usable:
// defaults are applied by NewTraceStore.
type TraceConfig struct {
	// Capacity bounds the number of retained traces (default 128).
	Capacity int
	// SlowThreshold marks a request slow regardless of SLO state
	// (default 250ms; negative disables the static threshold).
	SlowThreshold time.Duration
	// SampleEvery keeps one in N otherwise-uninteresting traces
	// (default 100; 0 or negative disables random sampling). The
	// sample is a deterministic offer counter, not a PRNG, so tests
	// and replays are reproducible.
	SampleEvery int
	// DynamicSlow, when set, supplies an additional slow threshold per
	// offer — typically the current SLO-window p99 — so "slow" tracks
	// the tail as the fleet speeds up or degrades. A non-positive
	// return is ignored.
	DynamicSlow func() time.Duration
	// Metrics, when set, receives kept/dropped/evicted counters under
	// Prefix (default "trace").
	Metrics *Registry
	// Prefix names the store's counters (default "trace").
	Prefix string
}

// TraceEntry is one retained request trace.
type TraceEntry struct {
	TraceID string    `json:"trace_id"`
	Root    *SpanData `json:"root"`
	Reasons []string  `json:"reasons"`
	Status  int       `json:"status"`
	At      time.Time `json:"at"`
}

// TraceSummary is the list-view projection of a retained trace.
type TraceSummary struct {
	TraceID  string        `json:"trace_id"`
	Name     string        `json:"name"`
	Duration time.Duration `json:"duration_ns"`
	Status   int           `json:"status"`
	Reasons  []string      `json:"reasons"`
	At       time.Time     `json:"at"`
}

// Trace-propagation headers shared by the serve and proxy tiers.
// X-Request-ID (the trace ID itself) predates these; the hop header
// counts proxy hops so a replica's root span records how it was
// reached, and the keep header force-retains the trace at every hop —
// the proxy stamps it on hedge attempts, and clients set it to
// guarantee a fetchable trace for a request they are about to debug.
const (
	TraceHopHeader  = "X-Trace-Hop"
	TraceKeepHeader = "X-Trace-Keep"
)

// Reasons a trace can be retained for. Callers pass the forced ones to
// Offer; "slow", "error" and "sampled" are computed by the store.
const (
	KeepSlow      = "slow"
	KeepError     = "error"
	KeepSampled   = "sampled"
	KeepHedged    = "hedged"
	KeepFailover  = "failover"
	KeepRequested = "requested"
)

// NewTraceStore builds a store from cfg, applying defaults.
func NewTraceStore(cfg TraceConfig) *TraceStore {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 128
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = 250 * time.Millisecond
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 100
	}
	if cfg.Prefix == "" {
		cfg.Prefix = "trace"
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewRegistry() // private, unexported registry
	}
	ts := &TraceStore{
		cfg:     cfg,
		byID:    make(map[string]*TraceEntry, cfg.Capacity),
		kept:    cfg.Metrics.Counter(cfg.Prefix + "/kept"),
		dropped: cfg.Metrics.Counter(cfg.Prefix + "/dropped"),
		evicted: cfg.Metrics.Counter(cfg.Prefix + "/evicted"),
	}
	return ts
}

// Offer considers a completed request tree for retention and reports
// whether it was kept. status is the HTTP status served; forced lists
// caller-observed keep reasons (KeepHedged, KeepRequested, ...). A nil
// root or a root without a trace ID is never kept.
func (ts *TraceStore) Offer(root *SpanData, status int, forced ...string) bool {
	if ts == nil || root == nil || root.TraceID == "" {
		return false
	}
	reasons := make([]string, 0, len(forced)+2)
	reasons = append(reasons, forced...)
	slow := ts.cfg.SlowThreshold > 0 && root.Duration >= ts.cfg.SlowThreshold
	if !slow && ts.cfg.DynamicSlow != nil {
		if dyn := ts.cfg.DynamicSlow(); dyn > 0 && root.Duration >= dyn {
			slow = true
		}
	}
	if slow {
		reasons = append(reasons, KeepSlow)
	}
	if status >= 400 {
		reasons = append(reasons, KeepError)
	}

	ts.mu.Lock()
	ts.offers++
	if len(reasons) == 0 {
		if ts.cfg.SampleEvery > 0 && (ts.offers-1)%uint64(ts.cfg.SampleEvery) == 0 {
			reasons = append(reasons, KeepSampled)
		} else {
			ts.mu.Unlock()
			ts.dropped.Add(1)
			return false
		}
	}
	e := &TraceEntry{
		TraceID: root.TraceID,
		Root:    root,
		Reasons: reasons,
		Status:  status,
		At:      root.Start.Add(root.Duration),
	}
	if old, ok := ts.byID[e.TraceID]; ok {
		// A re-used request ID replaces the older trace in place.
		*old = *e
		ts.mu.Unlock()
		ts.kept.Add(1)
		return true
	}
	if len(ts.entries) >= ts.cfg.Capacity {
		ts.evictLocked()
	}
	ts.entries = append(ts.entries, e)
	ts.byID[e.TraceID] = e
	ts.mu.Unlock()
	ts.kept.Add(1)
	return true
}

// keepRank orders entries for eviction: sampled-only traces go first,
// then force-kept ones (requested/hedged/...), and slow/error traces
// survive longest.
func keepRank(reasons []string) int {
	rank := 0
	for _, r := range reasons {
		switch r {
		case KeepSlow, KeepError:
			return 2
		case KeepSampled:
		default:
			rank = 1
		}
	}
	return rank
}

// evictLocked removes the oldest entry of the lowest keep rank.
func (ts *TraceStore) evictLocked() {
	victim, rank := -1, 3
	for i, e := range ts.entries {
		if r := keepRank(e.Reasons); r < rank {
			victim, rank = i, r
			if rank == 0 {
				break
			}
		}
	}
	if victim < 0 {
		victim = 0
	}
	delete(ts.byID, ts.entries[victim].TraceID)
	ts.entries = append(ts.entries[:victim], ts.entries[victim+1:]...)
	ts.evicted.Add(1)
}

// Get returns the retained trace for id, or nil.
func (ts *TraceStore) Get(id string) *TraceEntry {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.byID[id]
}

// List returns summaries of every retained trace, newest first.
func (ts *TraceStore) List() []TraceSummary {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	out := make([]TraceSummary, 0, len(ts.entries))
	for _, e := range ts.entries {
		out = append(out, TraceSummary{
			TraceID:  e.TraceID,
			Name:     e.Root.Name,
			Duration: e.Root.Duration,
			Status:   e.Status,
			Reasons:  e.Reasons,
			At:       e.At,
		})
	}
	ts.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].At.After(out[j].At) })
	return out
}

// Snapshot returns every retained trace, oldest first — the payload the
// burn-triggered debug capture writes next to its CPU profile.
func (ts *TraceStore) Snapshot() []*TraceEntry {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]*TraceEntry, len(ts.entries))
	copy(out, ts.entries)
	return out
}

// Len returns the number of retained traces.
func (ts *TraceStore) Len() int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.entries)
}

// SlowThreshold exposes the configured static slow threshold so the
// access logger and the trace store share one definition of "slow".
func (ts *TraceStore) SlowThreshold() time.Duration {
	if ts == nil {
		return 0
	}
	return ts.cfg.SlowThreshold
}
