package obs

import (
	"math"
	"testing"
	"time"
)

// sloClock is a fake clock for driving SLOWindows deterministically.
type sloClock struct{ now time.Time }

func (c *sloClock) Now() time.Time          { return c.now }
func (c *sloClock) advance(d time.Duration) { c.now = c.now.Add(d) }
func newSLOClock() *sloClock                { return &sloClock{now: time.Unix(1_000_000, 0)} }

func testSLO(clk *sloClock) *SLOWindows {
	return NewSLOWindows(SLOConfig{Now: clk.Now})
}

// Three latencies that sit exactly on DurationBuckets bounds (about
// 8ms, 66ms and 524ms), so window quantiles read them back exactly.
var (
	sloFast = DurationBuckets[13]
	sloMid  = DurationBuckets[16]
	sloSlow = DurationBuckets[19]
)

func windowByName(t *testing.T, rep SLOReport, name string) SLOWindowReport {
	t.Helper()
	for _, w := range rep.Windows {
		if w.Window == name {
			return w
		}
	}
	t.Fatalf("window %q missing from report %+v", name, rep)
	return SLOWindowReport{}
}

func TestSLOAvailabilityAndBurn(t *testing.T) {
	clk := newSLOClock()
	s := testSLO(clk)
	for i := 0; i < 90; i++ {
		s.Observe(sloFast, false)
	}
	for i := 0; i < 10; i++ {
		s.Observe(sloFast, true)
	}
	w := windowByName(t, s.Report(), "1m")
	if w.Requests != 100 || w.Errors != 10 {
		t.Fatalf("requests/errors = %d/%d, want 100/10", w.Requests, w.Errors)
	}
	if math.Abs(w.Availability-0.9) > 1e-12 {
		t.Errorf("availability = %v, want 0.9", w.Availability)
	}
	// Error rate 0.1 against the 0.999 objective burns the budget 100x.
	if math.Abs(w.BurnRate-100) > 1e-9 {
		t.Errorf("burn rate = %v, want 100", w.BurnRate)
	}
}

func TestSLOQuantilesFromBuckets(t *testing.T) {
	clk := newSLOClock()
	s := testSLO(clk)
	for i := 0; i < 60; i++ {
		s.Observe(sloFast, false)
	}
	for i := 0; i < 35; i++ {
		s.Observe(sloMid, false)
	}
	for i := 0; i < 5; i++ {
		s.Observe(sloSlow, false)
	}
	w := windowByName(t, s.Report(), "1m")
	if w.P50 != sloFast {
		t.Errorf("p50 = %v, want %v", w.P50, sloFast)
	}
	if w.P95 != sloMid {
		t.Errorf("p95 = %v, want %v", w.P95, sloMid)
	}
	if w.P99 != sloSlow {
		t.Errorf("p99 = %v, want %v", w.P99, sloSlow)
	}
	if math.Abs(w.MeanSeconds-(60*sloFast+35*sloMid+5*sloSlow)/100) > 1e-12 {
		t.Errorf("mean = %v", w.MeanSeconds)
	}
}

// TestSLOWindowsAge: observations fall out of the 1m window but stay in
// the 5m window as the clock advances.
func TestSLOWindowsAge(t *testing.T) {
	clk := newSLOClock()
	s := testSLO(clk)
	for i := 0; i < 50; i++ {
		s.Observe(sloFast, true)
	}
	clk.advance(12 * sloSlotDuration) // two minutes
	rep := s.Report()
	w1 := windowByName(t, rep, "1m")
	if w1.Requests != 0 {
		t.Errorf("1m window still sees %d aged-out requests", w1.Requests)
	}
	if w1.Availability != 1 || w1.BurnRate != 0 {
		t.Errorf("empty 1m window: availability=%v burn=%v, want 1 and 0", w1.Availability, w1.BurnRate)
	}
	w5 := windowByName(t, rep, "5m")
	if w5.Requests != 50 || w5.Errors != 50 {
		t.Errorf("5m window = %d/%d, want 50/50", w5.Requests, w5.Errors)
	}
}

// TestSLOGapClears: a silence longer than the whole ring resets every
// slot in one pass rather than replaying stale data.
func TestSLOGapClears(t *testing.T) {
	clk := newSLOClock()
	s := testSLO(clk)
	for i := 0; i < 50; i++ {
		s.Observe(sloFast, true)
	}
	clk.advance(2 * sloSlots * sloSlotDuration) // twice the ring
	rep := s.Report()
	for _, w := range rep.Windows {
		if w.Requests != 0 || w.Errors != 0 {
			t.Errorf("window %s retained %d/%d after full gap", w.Window, w.Requests, w.Errors)
		}
	}
	// The tracker still works after the reset.
	s.Observe(sloFast, false)
	if w := windowByName(t, s.Report(), "1m"); w.Requests != 1 {
		t.Errorf("post-gap observe lost: %d", w.Requests)
	}
}

func TestSLOExportGauges(t *testing.T) {
	clk := newSLOClock()
	s := testSLO(clk)
	for i := 0; i < 99; i++ {
		s.Observe(sloFast, false)
	}
	s.Observe(sloFast, true)
	r := NewRegistry()
	s.Export(r)
	snap := r.Snapshot()
	if got := snap.Gauges[`slo/availability{window="1m"}`]; math.Abs(got-0.99) > 1e-12 {
		t.Errorf(`slo/availability{window="1m"} = %v, want 0.99`, got)
	}
	if got := snap.Gauges[`slo/burn_rate{window="1m"}`]; math.Abs(got-10) > 1e-9 {
		t.Errorf("burn gauge = %v, want 10", got)
	}
	if got := snap.Gauges[`slo/latency/seconds{window="1m",quantile="p99"}`]; got != sloFast {
		t.Errorf("p99 gauge = %v, want %v", got, sloFast)
	}
	if got := snap.Gauges[`slo/requests{window="1h"}`]; got != 100 {
		t.Errorf("1h requests gauge = %v, want 100", got)
	}
}

// TestSLODefaults: the zero config reads the wall clock and reports
// the 1m/5m/1h windows against the 0.999 objective.
func TestSLODefaults(t *testing.T) {
	s := NewSLOWindows(SLOConfig{})
	s.Observe(sloFast, false)
	rep := s.Report()
	if rep.Objective != 0.999 || len(rep.Windows) != 3 {
		t.Fatalf("report = %+v, want objective 0.999 and three windows", rep)
	}
	if w := windowByName(t, rep, "1h"); w.Requests != 1 || w.Seconds != 3600 {
		t.Errorf("1h window = %+v", w)
	}
}
