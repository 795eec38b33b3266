package obs

import (
	"sync"
	"time"
)

// Rolling-window SLO tracking. Cumulative counters and histograms
// answer "what happened since the process started"; an operator paging
// on an SLO needs "what happened in the last minute/five minutes/hour".
// SLOWindows keeps a fixed-size ring of per-slot histogram deltas
// (10-second slots covering one hour) and derives, for each
// reporting window, the latency quantiles, the availability and the
// error-budget burn rate — how many times faster than sustainable the
// budget is being spent (1.0 = exactly on target, >1 = burning).

// The SLO geometry and target: 10s slots, one hour of history (+1 slot
// so the newest partial slot never evicts a slot still inside the
// window), latency buckets DurationBuckets, and a 99.9% availability
// objective that every burn rate is measured against.
const (
	sloSlotDuration = 10 * time.Second
	sloSlots        = 361
	sloObjective    = 0.999
)

// sloWindowSpecs are the reported trailing windows.
var sloWindowSpecs = []struct {
	name string
	d    time.Duration
}{
	{"1m", time.Minute},
	{"5m", 5 * time.Minute},
	{"1h", time.Hour},
}

// SLOConfig configures an SLOWindows tracker. The zero value reads the
// wall clock.
type SLOConfig struct {
	// Now overrides the clock, for tests. Default time.Now.
	Now func() time.Time
}

// sloSlot is one time slot's worth of observations.
type sloSlot struct {
	counts []int64 // len(bounds)+1, last is overflow
	total  int64
	errors int64
	sum    float64
}

// SLOWindows is a goroutine-safe rolling-window latency/availability
// tracker. Observe is cheap (one mutex, a bucket search and a handful
// of adds); reports walk at most sloSlots slots.
type SLOWindows struct {
	now func() time.Time

	mu       sync.Mutex
	ring     []sloSlot
	head     int       // index of the slot covering headTime
	headTime time.Time // start of the head slot (truncated to sloSlotDuration)
}

// NewSLOWindows returns a tracker with the given configuration.
func NewSLOWindows(cfg SLOConfig) *SLOWindows {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &SLOWindows{now: cfg.Now, ring: make([]sloSlot, sloSlots)}
	for i := range s.ring {
		s.ring[i].counts = make([]int64, len(DurationBuckets)+1)
	}
	s.headTime = cfg.Now().Truncate(sloSlotDuration)
	return s
}

// advanceLocked rotates the ring forward until the head slot covers
// now, clearing every slot it passes. A gap longer than the whole ring
// clears everything in one pass instead of spinning per slot.
func (s *SLOWindows) advanceLocked(now time.Time) {
	gap := now.Sub(s.headTime)
	if gap < sloSlotDuration {
		return
	}
	steps := int(gap / sloSlotDuration)
	if steps >= len(s.ring) {
		for i := range s.ring {
			s.clearSlot(i)
		}
		s.headTime = now.Truncate(sloSlotDuration)
		return
	}
	for i := 0; i < steps; i++ {
		s.head = (s.head + 1) % len(s.ring)
		s.clearSlot(s.head)
		s.headTime = s.headTime.Add(sloSlotDuration)
	}
}

func (s *SLOWindows) clearSlot(i int) {
	sl := &s.ring[i]
	for j := range sl.counts {
		sl.counts[j] = 0
	}
	sl.total, sl.errors, sl.sum = 0, 0, 0
}

// Observe records one request: its latency in seconds and whether it
// counts against availability (5xx answers, sheds).
func (s *SLOWindows) Observe(latencySeconds float64, isError bool) {
	s.mu.Lock()
	s.advanceLocked(s.now())
	sl := &s.ring[s.head]
	i := searchBounds(DurationBuckets, latencySeconds)
	sl.counts[i]++
	sl.total++
	sl.sum += latencySeconds
	if isError {
		sl.errors++
	}
	s.mu.Unlock()
}

// searchBounds is sort.SearchFloat64s inlined for the hot path: the
// first i with v <= bounds[i], or len(bounds) for overflow.
func searchBounds(bounds []float64, v float64) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SLOWindowReport is the derived state of one trailing window.
type SLOWindowReport struct {
	Window  string  `json:"window"`
	Seconds float64 `json:"seconds"`
	// Requests and Errors are totals inside the window.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// Availability is 1 - Errors/Requests (1 when the window is empty:
	// no traffic has not violated the objective).
	Availability float64 `json:"availability"`
	// P50/P95/P99 are latency quantiles in seconds, estimated from the
	// window's bucket counts.
	P50 float64 `json:"p50_seconds"`
	P95 float64 `json:"p95_seconds"`
	P99 float64 `json:"p99_seconds"`
	// MeanSeconds is the window's average latency.
	MeanSeconds float64 `json:"mean_seconds"`
	// BurnRate is the error-budget burn: (error rate) / (1 - objective).
	// 1.0 spends the budget exactly on schedule; 10 exhausts a 30-day
	// budget in 3 days.
	BurnRate float64 `json:"burn_rate"`
}

// SLOReport is the full /v1/admin/slo answer.
type SLOReport struct {
	Objective float64           `json:"objective"`
	Windows   []SLOWindowReport `json:"windows"`
}

// Report derives every configured trailing window from the ring.
func (s *SLOWindows) Report() SLOReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked(s.now())

	rep := SLOReport{Objective: sloObjective}
	for _, spec := range sloWindowSpecs {
		slots := int(spec.d / sloSlotDuration) // at most sloSlots-1
		agg := HistogramSnapshot{
			Bounds: DurationBuckets,
			Counts: make([]int64, len(DurationBuckets)+1),
			// Quantile attributes overflow mass to Max, which a slot
			// ring does not track; the largest finite bound stands in.
			Max: DurationBuckets[len(DurationBuckets)-1],
		}
		var errors int64
		// The head slot is still filling; include it plus the previous
		// slots-1 full slots, approximating the trailing window.
		for k := 0; k < slots; k++ {
			sl := &s.ring[(s.head-k+len(s.ring))%len(s.ring)]
			for j, c := range sl.counts {
				agg.Counts[j] += c
			}
			agg.Count += sl.total
			agg.Sum += sl.sum
			errors += sl.errors
		}
		wr := SLOWindowReport{
			Window:       spec.name,
			Seconds:      spec.d.Seconds(),
			Requests:     agg.Count,
			Errors:       errors,
			Availability: 1,
			P50:          agg.Quantile(0.50),
			P95:          agg.Quantile(0.95),
			P99:          agg.Quantile(0.99),
			MeanSeconds:  agg.Mean(),
		}
		if agg.Count > 0 {
			errRate := float64(errors) / float64(agg.Count)
			wr.Availability = 1 - errRate
			wr.BurnRate = errRate / (1 - sloObjective)
		}
		rep.Windows = append(rep.Windows, wr)
	}
	return rep
}

// Export writes the current window state into r as gauges, labeled by
// window (and quantile for the latency series):
//
//	slo/latency/seconds{window,quantile}  gauge
//	slo/availability{window}              gauge
//	slo/burn_rate{window}                 gauge
//	slo/requests{window}                  gauge
//	slo/errors{window}                    gauge
//
// Call it from a /metrics refresh hook so scrapes always see current
// windows without a background ticker.
func (s *SLOWindows) Export(r *Registry) {
	lat := r.GaugeVec("slo/latency/seconds", "window", "quantile")
	avail := r.GaugeVec("slo/availability", "window")
	burn := r.GaugeVec("slo/burn_rate", "window")
	reqs := r.GaugeVec("slo/requests", "window")
	errs := r.GaugeVec("slo/errors", "window")
	for _, w := range s.Report().Windows {
		lat.With(w.Window, "p50").Set(w.P50)
		lat.With(w.Window, "p95").Set(w.P95)
		lat.With(w.Window, "p99").Set(w.P99)
		avail.With(w.Window).Set(w.Availability)
		burn.With(w.Window).Set(w.BurnRate)
		reqs.With(w.Window).Set(float64(w.Requests))
		errs.With(w.Window).Set(float64(w.Errors))
	}
}
