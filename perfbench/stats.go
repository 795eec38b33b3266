package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// quantile returns the nearest-rank q-quantile of an ascending slice:
// the smallest sample with at least q·n samples at or below it. It
// returns 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The epsilon keeps q·n that is an integer in exact arithmetic
	// (0.99·100) from rounding up to the next rank.
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1]
}

// beyond returns how many of n samples lie above the nearest-rank
// q-quantile; a percentile is reported as measured only when at least
// ten samples lie beyond it.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	return n - k
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank median.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfTime is a span's duration minus the union of its children's
// intervals, each clipped to the span's own interval. Overlapping
// children (a hedged request's two upstream attempts) are counted once.
func selfTime(sd *obs.SpanData) time.Duration {
	start, end := sd.Start, sd.Start.Add(sd.Duration)
	type interval struct{ a, b time.Time }
	var ivs []interval
	for _, ch := range sd.Children {
		a, b := ch.Start, ch.Start.Add(ch.Duration)
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, interval{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur interval
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case !iv.a.After(cur.b):
			if iv.b.After(cur.b) {
				cur.b = iv.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = iv
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return sd.Duration - covered
}

// sample is one request of a phase, timed from the phase start.
type sample struct {
	// Due is when the schedule said to send, Sent when a connection was
	// free and the request went out, Done when the answer was read.
	Due, Sent, Done time.Duration
	// OK is false for a transport failure or a non-200 answer.
	OK bool
}

// late is how far the generator fell behind its schedule for s.
func (s sample) late() time.Duration { return s.Sent - s.Due }

// latency is timed from the scheduled send, so a stall also charges the
// requests that queued behind it.
func (s sample) latency() time.Duration { return s.Done - s.Due }

// phaseStats summarises one phase.
type phaseStats struct {
	Rate     float64 `json:"rate"`
	Requests int     `json:"requests"`
	Failed   int     `json:"failed"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	// Beyond99 is how many samples lie beyond the p99.
	Beyond99 int `json:"beyond_p99"`
	// LateMaxMs is the worst lateness; Backlog reports whether the
	// generator's lateness grew over the phase.
	LateMaxMs float64 `json:"late_max_ms"`
	Backlog   bool    `json:"backlog"`
	// Achieved is the completion rate from the first scheduled send to
	// the last answer.
	Achieved float64 `json:"achieved_rps"`
}

// summarize computes a phase's statistics. Failed requests count as
// missing any latency limit: they enter the latency sample at +Inf.
// The backlog grows when the median lateness of the phase's final
// tenth exceeds limitMs.
func summarize(rate float64, samples []sample, limitMs float64) phaseStats {
	st := phaseStats{Rate: rate, Requests: len(samples)}
	if len(samples) == 0 {
		return st
	}
	lat := make([]float64, len(samples))
	var last time.Duration
	for i, s := range samples {
		lat[i] = ms(s.latency())
		if !s.OK {
			st.Failed++
			lat[i] = math.Inf(1)
		}
		if l := ms(s.late()); l > st.LateMaxMs {
			st.LateMaxMs = l
		}
		if s.Done > last {
			last = s.Done
		}
	}
	lat = sorted(lat)
	st.P50Ms = quantile(lat, 0.5)
	st.P99Ms = quantile(lat, 0.99)
	st.Beyond99 = beyond(len(lat), 0.99)
	tail := samples[len(samples)-max(1, len(samples)/10):]
	lates := make([]float64, len(tail))
	for i, s := range tail {
		lates[i] = ms(s.late())
	}
	st.Backlog = median(lates) > limitMs
	if span := last - samples[0].Due; span > 0 {
		st.Achieved = float64(len(samples)) / span.Seconds()
	}
	return st
}

// passes is the ladder rule: p99 within the limit, no failures, and no
// growing backlog.
func (st phaseStats) passes(limitMs float64) bool {
	return st.Failed == 0 && !st.Backlog && st.P99Ms <= limitMs
}

// searchLadder finds the highest ladder rate that meets the rule by
// bisection over the ascending ladder, taking every rate below a passing
// rung to pass and every rate above a failing rung to fail. probe runs
// one rung. It returns the rungs it ran, in order, and the highest
// passing one; max_rps is that rung's achieved completion rate, 0 when
// no rung passed.
func searchLadder(ladder []float64, limitMs float64, probe func(rate float64) phaseStats) (ran []phaseStats, best phaseStats) {
	lo, hi := -1, len(ladder)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		st := probe(ladder[mid])
		ran = append(ran, st)
		if st.passes(limitMs) {
			lo, best = mid, st
		} else {
			hi = mid
		}
	}
	return ran, best
}
