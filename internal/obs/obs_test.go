package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// withSink installs a collector for the duration of a test and resets
// the default registry afterwards so tests stay independent.
func withSink(t *testing.T) *Collector {
	t.Helper()
	c := NewCollector()
	SetSink(c)
	t.Cleanup(func() {
		SetSink(nil)
		Default.Reset()
	})
	return c
}

func TestDisabledPathIsInert(t *testing.T) {
	SetSink(nil)
	if Enabled() {
		t.Fatal("Enabled with no sink")
	}
	ctx := context.Background()
	ctx2, sp := Start(ctx, "x")
	if sp != nil {
		t.Fatal("disabled Start returned a span")
	}
	if ctx2 != ctx {
		t.Fatal("disabled Start derived a new context")
	}
	sp.End()             // must not panic
	sp.SetMetric("k", 1) // must not panic
	if !Now().IsZero() {
		t.Fatal("disabled Now not zero")
	}
}

func TestCounterGaugeHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1, 10, 100})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 200))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %v, want 8000", g.Value())
	}
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Errorf("histogram count = %d, want 8000", s.Count)
	}
	var bucketSum int64
	for _, n := range s.Counts {
		bucketSum += n
	}
	if bucketSum != s.Count {
		t.Errorf("bucket sum %d != count %d", bucketSum, s.Count)
	}
	if s.Min != 0 || s.Max != 199 {
		t.Errorf("min/max = %v/%v, want 0/199", s.Min, s.Max)
	}
	// Same name returns the same instrument.
	if r.Counter("c") != c || r.Gauge("g") != g || r.Histogram("h", nil) != h {
		t.Error("get-or-create returned a different instrument")
	}
}

// TestResetKeepsCachedInstruments: instrumented packages resolve their
// instruments once and hold the pointers. Reset must zero those
// instruments in place (exemplars included) rather than orphan them, so
// what they count afterwards still reaches Snapshot.
func TestResetKeepsCachedInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cached/counter")
	h := r.Histogram("cached/seconds", []float64{1, 10})
	child := r.CounterVec("cached/requests", "status").With("200")
	gchild := r.GaugeVec("cached/level", "window").With("5m")
	c.Add(3)
	h.ObserveExemplar(5, "trace-before")
	child.Add(2)
	gchild.Set(0.5)

	r.Reset()
	s := r.Snapshot()
	if s.Counters["cached/counter"] != 0 || s.Counters[`cached/requests{status="200"}`] != 0 {
		t.Fatalf("counters after Reset = %v, want zeros", s.Counters)
	}
	if v, ok := s.Gauges[`cached/level{window="5m"}`]; !ok || v != 0 {
		t.Fatalf("gauge child after Reset = %v (present %v), want 0", v, ok)
	}
	if hs := s.Histograms["cached/seconds"]; hs.Count != 0 || hs.Sum != 0 || len(hs.Exemplars) != 0 || hs.Counts[1] != 0 {
		t.Fatalf("histogram after Reset = %+v, want empty", hs)
	}

	c.Inc()
	h.ObserveExemplar(0.5, "trace-after")
	child.Inc()
	gchild.Set(2)
	s = r.Snapshot()
	if s.Counters["cached/counter"] != 1 {
		t.Errorf("cached counter after Reset: snapshot %d, want 1", s.Counters["cached/counter"])
	}
	if got := s.Counters[`cached/requests{status="200"}`]; got != 1 {
		t.Errorf("cached vec child after Reset: snapshot %d, want 1", got)
	}
	if got := s.Gauges[`cached/level{window="5m"}`]; got != 2 {
		t.Errorf("cached gauge child after Reset: snapshot %v, want 2", got)
	}
	hs := s.Histograms["cached/seconds"]
	if hs.Count != 1 || hs.Min != 0.5 || hs.Max != 0.5 {
		t.Errorf("cached histogram after Reset: %+v, want one 0.5 observation", hs)
	}
	if len(hs.Exemplars) != 1 || hs.Exemplars[0].TraceID != "trace-after" {
		t.Errorf("histogram exemplars after Reset = %+v, want only trace-after", hs.Exemplars)
	}
	if r.Counter("cached/counter") != c || r.Histogram("cached/seconds", nil) != h ||
		r.CounterVec("cached/requests", "status").With("200") != child {
		t.Error("Reset replaced a registered instrument")
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 10})
	h.Observe(1)   // bucket 0 (v <= 1)
	h.Observe(1.5) // bucket 1
	h.Observe(10)  // bucket 1
	h.Observe(11)  // overflow
	s := h.Snapshot()
	want := []int64{1, 2, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if q := s.Quantile(0.5); q != 10 {
		t.Errorf("median = %v, want 10", q)
	}
	if m := s.Mean(); m != (1+1.5+10+11)/4 {
		t.Errorf("mean = %v", m)
	}
}

func TestSnapshotJSON(t *testing.T) {
	// Empty histograms must serialise (no Inf min/max).
	empty := NewRegistry()
	empty.Histogram("e", []float64{1})
	if _, err := json.Marshal(empty.Snapshot()); err != nil {
		t.Fatalf("marshalling snapshot with empty histogram: %v", err)
	}
}

func TestSpanTreeNesting(t *testing.T) {
	col := withSink(t)
	ctx, root := Start(context.Background(), "run")
	ctx2, child := Start(ctx, "stage")
	_, grand := Start(ctx2, "substage")
	grand.SetMetric("items", 42)
	grand.End()
	child.End()
	// A sibling started from the root context.
	_, sib := Start(ctx, "render")
	sib.End()
	root.End()

	roots := col.Roots()
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	r := roots[0]
	if !r.Root || r.Path != "run" || len(r.Children) != 2 {
		t.Fatalf("root = %+v", r)
	}
	st := r.Children[0]
	if st.Path != "run/stage" || len(st.Children) != 1 {
		t.Fatalf("stage = %+v", st)
	}
	if g := st.Children[0]; g.Path != "run/stage/substage" || g.Metrics["items"] != 42 {
		t.Fatalf("substage = %+v", g)
	}
	if r.Children[1].Path != "run/render" {
		t.Fatalf("sibling path = %q", r.Children[1].Path)
	}
	// Double End is a no-op.
	root.End()
	if len(col.Roots()) != 1 {
		t.Error("double End delivered the root twice")
	}
}

func TestTimerRecordsWhenEnabled(t *testing.T) {
	withSink(t)
	tm := StartTimer("unit/test")
	time.Sleep(time.Millisecond)
	if d := tm.Stop(); d < time.Millisecond {
		t.Errorf("timer measured %v", d)
	}
	s := Default.Snapshot()
	h, ok := s.Histograms["unit/test/seconds"]
	if !ok || h.Count != 1 {
		t.Fatalf("timer histogram missing or empty: %+v", s.Histograms)
	}
}

func TestParallelHelpers(t *testing.T) {
	withSink(t)
	const n = 1000
	seen := make([]int32, n)
	var mu sync.Mutex
	ParallelFor(n, func(i int) {
		mu.Lock()
		seen[i]++
		mu.Unlock()
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("ParallelFor visited %d %d times", i, c)
		}
	}
	workers := Workers(n)
	hits := make([]int, workers)
	ParallelChunks(n, workers, func(w, lo, hi int) {
		hits[w] = hi - lo
	})
	total := 0
	for _, h := range hits {
		total += h
	}
	if total != n {
		t.Fatalf("ParallelChunks covered %d of %d items", total, n)
	}
	ran := 0
	ParallelWorkers(1, func(w int) { ran++ })
	if ran != 1 {
		t.Fatalf("ParallelWorkers(1) ran %d times", ran)
	}
	if Default.Counter("parallel/regions").Value() == 0 && workers > 1 {
		t.Error("parallel regions not counted")
	}
	if g := Default.Gauge("parallel/workers").Value(); g != 0 {
		t.Errorf("workers gauge = %v after all regions ended, want 0", g)
	}
}

func TestReportRoundTripAndFindSpan(t *testing.T) {
	col := withSink(t)
	Default.Counter("spmv/CSR/calls").Add(5)
	Default.Histogram("spmv/CSR/rows_per_s", RateBuckets).Observe(1e6)
	ctx, root := Start(context.Background(), "table")
	_, f := Start(ctx, "corpus/features")
	f.End()
	root.End()

	rep := col.Report("table", []string{"-n", "9"})
	if rep.NumCPU < 1 || rep.GoVersion == "" {
		t.Errorf("host fingerprint incomplete: %+v", rep)
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Command != "table" || len(got.Spans) != 1 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.FindSpan("corpus/features") == nil {
		t.Error("FindSpan failed to locate corpus/features")
	}
	if got.FindSpan("nope") != nil {
		t.Error("FindSpan matched a missing path")
	}
	if got.Metrics.Counters["spmv/CSR/calls"] != 5 {
		t.Errorf("metrics lost in round trip: %+v", got.Metrics.Counters)
	}
	if h := got.Metrics.Histograms["spmv/CSR/rows_per_s"]; h.Count != 1 {
		t.Errorf("histogram lost in round trip: %+v", h)
	}
	if _, err := ReadReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("reading a missing report succeeded")
	}
}

func TestWriteTree(t *testing.T) {
	col := withSink(t)
	ctx, root := Start(context.Background(), "run")
	_, ch := Start(ctx, "stage")
	ch.SetMetric("rows", 10)
	ch.End()
	root.End()
	var buf bytes.Buffer
	if err := WriteTree(&buf, col.Roots()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "run") || !strings.Contains(out, "  stage") ||
		!strings.Contains(out, "rows=10") {
		t.Errorf("tree rendering missing content:\n%s", out)
	}
}

func TestServeExposesExpvarAndPprof(t *testing.T) {
	withSink(t)
	Default.Counter("served/metric").Add(3)
	addr, stop, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen in this environment: %v", err)
	}
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	}()
	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	vars := get("/debug/vars")
	if !strings.Contains(vars, "spmvselect_obs") || !strings.Contains(vars, "served/metric") {
		t.Errorf("/debug/vars missing registry: %.200s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Errorf("/debug/pprof/ unexpected: %.200s", idx)
	}
}

// BenchmarkObsOverhead measures the disabled-path cost of the span API —
// the price every instrumented call site pays when no sink is
// registered. The acceptance bar is < 2 ns/op.
func BenchmarkObsOverhead(b *testing.B) {
	SetSink(nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "bench")
		sp.End()
	}
}

// BenchmarkObsOverheadNow measures the disabled kernel-observation
// pattern (Now + zero-time check).
func BenchmarkObsOverheadNow(b *testing.B) {
	SetSink(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ts := Now(); !ts.IsZero() {
			b.Fatal("enabled during benchmark")
		}
	}
}

// BenchmarkSpanEnabled is the enabled-path cost, for the record.
func BenchmarkSpanEnabled(b *testing.B) {
	SetSink(NewCollector())
	defer func() { SetSink(nil); Default.Reset() }()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "bench")
		sp.End()
	}
}

// BenchmarkHistogramObserve is the enabled histogram hot path.
func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram(RateBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i))
	}
}
