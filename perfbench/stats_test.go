package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.5, 50}, {0.99, 99}, {0.995, 100}, {1, 100}, {0, 1},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median(3,1,2,4) = %v, want the lower middle 2", got)
	}
	for _, c := range []struct{ n, want int }{{100, 1}, {999, 9}, {1000, 10}, {1100, 11}, {0, 0}} {
		if got := beyond(c.n, 0.99); got != c.want {
			t.Errorf("beyond(%d, 0.99) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	span := func(from, to int, children ...*obs.SpanData) *obs.SpanData {
		return &obs.SpanData{Start: at(from), Duration: time.Duration(to-from) * time.Millisecond, Children: children}
	}
	for _, c := range []struct {
		name string
		sd   *obs.SpanData
		want time.Duration
	}{
		{"no children", span(0, 10), 10 * time.Millisecond},
		{"disjoint", span(0, 10, span(1, 3), span(5, 6)), 7 * time.Millisecond},
		// A hedged request: two attempts overlap and count once.
		{"overlapping", span(0, 10, span(1, 4), span(3, 6)), 5 * time.Millisecond},
		{"nested inside another", span(0, 10, span(1, 9), span(2, 3)), 2 * time.Millisecond},
		// An abandoned attempt outlives its parent: clip it.
		{"clipped", span(0, 10, span(1, 4), span(3, 6), span(8, 12)), 3 * time.Millisecond},
		{"outside", span(0, 10, span(11, 12)), 10 * time.Millisecond},
		{"covering", span(0, 10, span(0, 10)), 0},
	} {
		if got := selfTime(c.sd); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

// simulateOpenLoop builds the samples of an open-loop phase at rate whose
// requests each take service on a single connection, so lateness
// accumulates when service outlasts the send interval.
func simulateOpenLoop(rate float64, n int, service func(i int) time.Duration) []sample {
	interval := time.Duration(float64(time.Second) / rate)
	out := make([]sample, n)
	var free time.Duration
	for i := range out {
		due := time.Duration(i) * interval
		sent := max(due, free)
		free = sent + service(i)
		out[i] = sample{Due: due, Sent: sent, Done: free, OK: true}
	}
	return out
}

func TestOpenLoopLatenessAccounting(t *testing.T) {
	// A 50 ms stall at request 10 of a 100 rps phase: the next four
	// requests queue behind it, and each is charged from when it was due.
	s := simulateOpenLoop(100, 100, func(i int) time.Duration {
		if i == 10 {
			return 50 * time.Millisecond
		}
		return 2 * time.Millisecond
	})
	if got := s[11].late(); got != 40*time.Millisecond {
		t.Errorf("request after the stall: %v late, want 40ms", got)
	}
	if got := s[11].latency(); got != 42*time.Millisecond {
		t.Errorf("request after the stall: latency %v, want 42ms from its due time", got)
	}
	st := summarize(100, s, 20)
	if st.LateMaxMs != 40 || st.Backlog || st.P50Ms != 2 || st.Failed != 0 {
		t.Errorf("stalled phase: %+v, want late max 40ms, p50 2ms, no backlog", st)
	}
	// Service at 12 ms against a 10 ms interval: lateness grows by 2 ms
	// per request, so the final tenth is far behind.
	over := summarize(100, simulateOpenLoop(100, 200, func(int) time.Duration { return 12 * time.Millisecond }), 20)
	if !over.Backlog || over.passes(1000) {
		t.Errorf("overloaded phase: %+v, want a growing backlog that fails the rule", over)
	}
	// A failed request counts as missing every latency limit.
	s[50].OK = false
	failed := summarize(100, s, 20)
	if failed.Failed != 1 || failed.passes(1e9) {
		t.Errorf("phase with a failure: %+v, want it to fail the rule", failed)
	}
	if got := summarize(100, s[:100], 20).Achieved; got < 99 || got > 101 {
		t.Errorf("achieved rate %v, want about 100/s", got)
	}
}

func TestSearchLadder(t *testing.T) {
	ladder := []float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	rungAt := func(capacity float64) func(float64) phaseStats {
		return func(rate float64) phaseStats {
			st := phaseStats{Rate: rate, Achieved: rate - 1, P99Ms: 5}
			if rate > capacity {
				st.P99Ms = 500
			}
			return st
		}
	}
	for _, c := range []struct{ capacity, want float64 }{
		{650, 599}, {100, 99}, {5000, 999}, {50, 0}, {999, 899},
	} {
		ran, best := searchLadder(ladder, 50, rungAt(c.capacity))
		if best.Achieved != c.want {
			t.Errorf("capacity %v: max_rps %v, want %v", c.capacity, best.Achieved, c.want)
		}
		if len(ran) > 4 {
			t.Errorf("capacity %v: ran %d rungs, bisection over 10 needs at most 4", c.capacity, len(ran))
		}
	}
	for _, c := range []struct {
		name string
		st   phaseStats
		pass bool
	}{
		{"within limit", phaseStats{P99Ms: 50}, true},
		{"p99 over limit", phaseStats{P99Ms: 50.1}, false},
		{"a failure", phaseStats{P99Ms: 1, Failed: 1}, false},
		{"growing backlog", phaseStats{P99Ms: 1, Backlog: true}, false},
	} {
		if got := c.st.passes(50); got != c.pass {
			t.Errorf("%s: passes = %v, want %v", c.name, got, c.pass)
		}
	}
}

func TestZipfDraws(t *testing.T) {
	const n, draws, s = 100, 400000, 0.7
	z := newZipf(s, n)
	rng := rand.New(rand.NewSource(1))
	counts := make([]float64, n)
	for i := 0; i < draws; i++ {
		counts[z.draw(rng)]++
	}
	total := 0.0
	for k := 0; k < n; k++ {
		total += math.Pow(float64(k+1), -s)
	}
	for _, k := range []int{0, 9, 99} {
		want := draws * math.Pow(float64(k+1), -s) / total
		if math.Abs(counts[k]-want) > 0.1*want {
			t.Errorf("rank %d drawn %v times, want about %.0f", k, counts[k], want)
		}
	}
}
