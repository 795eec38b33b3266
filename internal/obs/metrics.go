package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a goroutine-safe collection of named counters, gauges and
// histograms. Instruments are get-or-create: the first caller of a name
// determines the instrument (and, for histograms, its buckets).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	cvecs    map[string]*CounterVec
	gvecs    map[string]*GaugeVec
	hvecs    map[string]*HistogramVec
}

// Default is the process-wide registry used by all instrumentation in
// this repository and published on the expvar endpoint.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		cvecs:    map[string]*CounterVec{},
		gvecs:    map[string]*GaugeVec{},
		hvecs:    map[string]*HistogramVec{},
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds if needed (bounds must be sorted ascending; they
// are ignored when the histogram already exists).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every instrument in place: counters and gauges read 0,
// histograms are empty and hold no exemplars. Vector children are
// registered instruments, so they are zeroed too. Nothing is
// unregistered: instruments that callers hold in package variables or
// struct fields keep reaching Snapshot and /metrics afterwards.
// Intended for tests.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.Set(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// Snapshot returns a consistent-enough copy of every instrument's state
// (each instrument is read atomically; the set is read under the
// registry lock). The result is JSON-serialisable.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}

// ---------------------------------------------------------------------
// Instruments.

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 value that can be set or adjusted.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d (CAS loop; safe under concurrency).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: bucket i counts observations v
// with bounds[i-1] < v <= bounds[i], plus one overflow bucket. All
// updates are atomic; Observe never allocates.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1, last is overflow
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64
	maxBits atomic.Uint64
	// exemplars holds the last exemplar stored per bucket (nil until
	// ObserveExemplar is used, so plain Observe stays allocation-free).
	exemplars []atomic.Pointer[exemplar]
}

// exemplar links one observed value to the trace that produced it.
type exemplar struct {
	traceID string
	value   float64
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds:    append([]float64(nil), bounds...),
		counts:    make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[exemplar], len(bounds)+1),
	}
	h.reset()
	return h
}

// reset empties the histogram, keeping its bounds.
func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
		h.exemplars[i].Store(nil)
	}
	h.count.Store(0)
	h.sumBits.Store(0)
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveExemplar records one value like Observe and remembers traceID
// as the bucket's last exemplar, linking the latency distribution back
// to a concrete request whose trace can be fetched from the trace
// store. An empty traceID degrades to a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exemplars[i].Store(&exemplar{traceID: traceID, value: v})
}

// Snapshot copies the histogram state. Min and Max are zero when the
// histogram is empty (keeping the snapshot JSON-serialisable: the
// encoding/json package rejects infinities).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if s.Count > 0 {
		s.Min = math.Float64frombits(h.minBits.Load())
		s.Max = math.Float64frombits(h.maxBits.Load())
	}
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != nil {
			s.Exemplars = append(s.Exemplars, BucketExemplar{
				Bucket:  i,
				TraceID: e.traceID,
				Value:   e.value,
			})
		}
	}
	return s
}

// ---------------------------------------------------------------------
// Snapshots.

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra overflow
	// bucket at the end.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	// Exemplars lists the last trace ID seen per populated bucket
	// (only buckets that recorded one), sorted by bucket index.
	Exemplars []BucketExemplar `json:"exemplars,omitempty"`
}

// BucketExemplar is one histogram bucket's last exemplar: the trace ID
// and value of the most recent observation that landed in the bucket.
// Bucket indexes into Counts (len(Bounds) is the overflow bucket).
type BucketExemplar struct {
	Bucket  int     `json:"bucket"`
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"`
}

// Mean returns the average observation, or 0 when empty.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0, 1]) from the buckets,
// attributing each bucket's mass to its upper bound. It returns Max for
// the overflow bucket and 0 when the histogram is empty. Out-of-range
// q is clamped into [0, 1]; a NaN q returns NaN rather than a
// plausible-looking latency.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if math.IsNaN(q) {
		return math.NaN()
	}
	if h.Count == 0 {
		return 0
	}
	q = math.Min(math.Max(q, 0), 1)
	target := int64(math.Ceil(q * float64(h.Count)))
	if target < 1 {
		target = 1
	}
	acc := int64(0)
	for i, c := range h.Counts {
		acc += c
		if acc >= target {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return h.Max
		}
	}
	return h.Max
}

// Snapshot is a frozen registry: counters, gauges and histograms by
// name. It serialises to JSON.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// ---------------------------------------------------------------------
// Bucket helpers.

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start and multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets spans 1 microsecond to ~17 minutes in powers of two,
// the default for latency histograms recorded in seconds.
var DurationBuckets = ExpBuckets(1e-6, 2, 30)

// RateBuckets spans 1 to ~5*10^11 per second in powers of two, the
// default for throughput histograms (rows/s, nnz/s).
var RateBuckets = ExpBuckets(1, 2, 40)

// CountBuckets spans 1 to ~32k in powers of two, the default for small
// cardinalities such as iteration counts or cluster counts.
var CountBuckets = ExpBuckets(1, 2, 16)

// SizeBuckets spans 64 bytes to ~64 GiB in powers of four, the default
// for byte-size histograms.
var SizeBuckets = ExpBuckets(64, 4, 16)
