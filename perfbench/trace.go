package main

import (
	"context"
	"path"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// tracer wraps the benchmark's own calls into the program's layers in
// spans. Off, start returns a nil span and every obs.Span method on it
// is free, so the untraced pass runs the same code.
type tracer struct{ on bool }

func (t tracer) start(ctx context.Context, name string) (context.Context, *obs.Span) {
	if !t.on {
		return ctx, nil
	}
	return obs.StartAlways(ctx, name)
}

// walkSpans calls fn on every span of the trees, depth first.
func walkSpans(spans []*obs.SpanData, fn func(*obs.SpanData)) {
	for _, sd := range spans {
		fn(sd)
		walkSpans(sd.Children, fn)
	}
}

// spanSeconds sums the durations of the spans whose name matches the
// path.Match pattern.
func spanSeconds(spans []*obs.SpanData, pattern string) float64 {
	var d time.Duration
	walkSpans(spans, func(sd *obs.SpanData) {
		if ok, _ := path.Match(pattern, sd.Name); ok {
			d += sd.Duration
		}
	})
	return d.Seconds()
}

// spanAllocMB sums the heap bytes allocated during the spans whose name
// matches the pattern.
func spanAllocMB(spans []*obs.SpanData, pattern string) float64 {
	var b uint64
	walkSpans(spans, func(sd *obs.SpanData) {
		if ok, _ := path.Match(pattern, sd.Name); ok {
			b += sd.AllocBytes
		}
	})
	return float64(b) / 1e6
}

// runtimeTotals are the runtime/metrics counters the benchmark reads
// as deltas over a timed phase.
type runtimeTotals struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
}

func readRuntime() runtimeTotals {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	rtmetrics.Read(s)
	return runtimeTotals{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()}
}

// sub returns the GC share of CPU time and the MB allocated since r0.
func (r runtimeTotals) sub(r0 runtimeTotals) (gcFrac, allocMB float64) {
	if cpu := r.totalCPU - r0.totalCPU; cpu > 0 {
		gcFrac = (r.gcCPU - r0.gcCPU) / cpu
	}
	return gcFrac, float64(r.allocBytes-r0.allocBytes) / 1e6
}

// heapWatch samples the bytes of live and not yet swept heap objects
// every millisecond and keeps the peak since the last lap.
type heapWatch struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak atomic.Uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			rtmetrics.Read(s)
			v := s[0].Value.Uint64()
			for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Lap returns the peak in MB since the last lap, or since the start,
// and begins a new lap.
func (h *heapWatch) Lap() float64 { return float64(h.peak.Swap(0)) / 1e6 }

// Stop ends sampling and returns the peak in MB since the last lap.
func (h *heapWatch) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	return h.Lap()
}

// counterDelta returns after - before for a named obs.Default counter.
func counterDelta(before, after obs.Snapshot, name string) float64 {
	return float64(after.Counters[name] - before.Counters[name])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
