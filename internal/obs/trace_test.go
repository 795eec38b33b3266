package obs

import (
	"context"
	"math"
	"sync"
	"testing"
)

func TestTraceIDFlowsThroughSpanTree(t *testing.T) {
	c := withSink(t)
	ctx := WithTraceID(context.Background(), "req-abc123")
	ctx, root := Start(ctx, "serve/predict")
	_, child := Start(ctx, "features/extract")
	child.End()
	root.End()

	roots := c.Roots()
	if len(roots) != 1 {
		t.Fatalf("got %d roots", len(roots))
	}
	if roots[0].TraceID != "req-abc123" {
		t.Errorf("root trace id = %q", roots[0].TraceID)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].TraceID != "req-abc123" {
		t.Errorf("child did not inherit trace id: %+v", roots[0].Children)
	}
}

func TestTraceIDHelpers(t *testing.T) {
	ctx := context.Background()
	if TraceID(ctx) != "" {
		t.Error("empty context has a trace id")
	}
	if WithTraceID(ctx, "") != ctx {
		t.Error("empty id should leave ctx unchanged")
	}
	if got := TraceID(WithTraceID(ctx, "x")); got != "x" {
		t.Errorf("TraceID = %q", got)
	}
}

func TestSpanWithoutTraceIDStaysClean(t *testing.T) {
	c := withSink(t)
	_, sp := Start(context.Background(), "bare")
	sp.End()
	if id := c.Roots()[0].TraceID; id != "" {
		t.Errorf("unexpected trace id %q", id)
	}
}

// TestServeStopIdempotent: the stop func returned by Serve must be safe
// to call repeatedly and from several goroutines at once.
func TestServeStopIdempotent(t *testing.T) {
	_, stop, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = stop()
		}()
	}
	wg.Wait()
	for i, e := range errs {
		if e != errs[0] {
			t.Errorf("stop call %d returned %v, first returned %v", i, e, errs[0])
		}
	}
	if err := stop(); err != errs[0] {
		t.Errorf("late stop returned %v, want %v", err, errs[0])
	}
}

func TestQuantileGuards(t *testing.T) {
	h := HistogramSnapshot{Bounds: []float64{1, 10}, Counts: []int64{5, 4, 1}, Count: 10, Min: 0.5, Max: 50}
	if got := h.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Quantile(NaN) = %v, want NaN", got)
	}
	// Out-of-range q clamps instead of under/overflowing the target rank.
	if got := h.Quantile(-3); got != 1 {
		t.Errorf("Quantile(-3) = %v, want 1 (clamped to q=0)", got)
	}
	if got := h.Quantile(7); got != 50 {
		t.Errorf("Quantile(7) = %v, want Max (clamped to q=1)", got)
	}
	empty := HistogramSnapshot{}
	if got := empty.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("empty Quantile(NaN) = %v, want NaN", got)
	}
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
}
