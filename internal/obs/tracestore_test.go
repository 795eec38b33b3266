package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func mkRoot(id string, d time.Duration) *SpanData {
	return &SpanData{
		Name:     "serve/predict",
		Path:     "serve/predict",
		TraceID:  id,
		Start:    time.Unix(0, 0),
		Duration: d,
		Root:     true,
	}
}

func TestTraceStoreKeepReasons(t *testing.T) {
	ts := NewTraceStore(TraceConfig{Capacity: 8, SampleEvery: -1})

	if ts.Offer(nil, 200) {
		t.Fatal("kept nil root")
	}
	if ts.Offer(&SpanData{Name: "x"}, 200) {
		t.Fatal("kept root without trace ID")
	}
	if ts.Offer(mkRoot("fast", time.Millisecond), 200) {
		t.Fatal("kept fast, ok request with sampling disabled")
	}
	if !ts.Offer(mkRoot("slow", SlowRequest), 200) {
		t.Fatal("dropped slow request")
	}
	if !ts.Offer(mkRoot("err", time.Millisecond), 500) {
		t.Fatal("dropped errored request")
	}
	if !ts.Offer(mkRoot("hedge", time.Millisecond), 200, KeepHedged) {
		t.Fatal("dropped hedged request")
	}
	e := ts.Get("slow")
	if e == nil || len(e.Reasons) != 1 || e.Reasons[0] != KeepSlow {
		t.Fatalf("slow entry = %+v", e)
	}
	if got := ts.Get("err"); got == nil || got.Reasons[0] != KeepError {
		t.Fatalf("err entry = %+v", got)
	}
	if got := ts.Get("fast"); got != nil {
		t.Fatalf("fast entry unexpectedly kept: %+v", got)
	}
	list := ts.List()
	if len(list) != 3 {
		t.Fatalf("List() = %d entries, want 3", len(list))
	}
}

func TestTraceStoreDynamicSlow(t *testing.T) {
	dyn := 50 * time.Millisecond
	ts := NewTraceStore(TraceConfig{
		Capacity:    8,
		SampleEvery: -1,
		DynamicSlow: func() time.Duration { return dyn },
	})
	if !ts.Offer(mkRoot("p99", 60*time.Millisecond), 200) {
		t.Fatal("dropped request above dynamic p99")
	}
	if ts.Offer(mkRoot("ok", 40*time.Millisecond), 200) {
		t.Fatal("kept request below both thresholds")
	}
}

func TestTraceStoreSampling(t *testing.T) {
	ts := NewTraceStore(TraceConfig{Capacity: 64, SampleEvery: 10})
	kept := 0
	for i := 0; i < 100; i++ {
		if ts.Offer(mkRoot(fmt.Sprintf("r%d", i), time.Millisecond), 200) {
			kept++
		}
	}
	if kept != 10 {
		t.Fatalf("kept %d of 100 at SampleEvery=10, want 10", kept)
	}
	for _, s := range ts.List() {
		if len(s.Reasons) != 1 || s.Reasons[0] != KeepSampled {
			t.Fatalf("sampled entry reasons = %v", s.Reasons)
		}
	}
}

// TestTraceStoreEvictionPriority proves the tail-sampling contract: when
// the ring is full, randomly sampled traces are evicted before force-kept
// ones, and slow/error traces survive longest.
func TestTraceStoreEvictionPriority(t *testing.T) {
	ts := NewTraceStore(TraceConfig{Capacity: 4, SampleEvery: 1})

	// Fill with: two sampled, one slow, one error.
	ts.Offer(mkRoot("sampled-1", time.Millisecond), 200)
	ts.Offer(mkRoot("slow-1", 300*time.Millisecond), 200)
	ts.Offer(mkRoot("sampled-2", time.Millisecond), 200)
	ts.Offer(mkRoot("error-1", time.Millisecond), 503)
	if ts.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", ts.Len())
	}

	// Overflow with two more slow traces: the sampled pair must go first.
	ts.Offer(mkRoot("slow-2", 300*time.Millisecond), 200)
	ts.Offer(mkRoot("slow-3", 300*time.Millisecond), 200)
	for _, id := range []string{"slow-1", "error-1", "slow-2", "slow-3"} {
		if ts.Get(id) == nil {
			t.Fatalf("%s evicted while sampled entries existed", id)
		}
	}
	for _, id := range []string{"sampled-1", "sampled-2"} {
		if ts.Get(id) != nil {
			t.Fatalf("%s survived over slow/error traces", id)
		}
	}

	// A force-kept (hedged) trace outranks sampled but not slow/error:
	// overflowing with it evicts the oldest slow entry only once no
	// sampled entries remain — here everything is rank 2, so the oldest
	// overall goes.
	ts.Offer(mkRoot("hedged-1", time.Millisecond), 200, KeepHedged)
	if ts.Get("slow-1") != nil {
		t.Fatal("oldest slow entry should be evicted when all ranks are >= 1")
	}
	// Now a new slow offer evicts the hedged entry (rank 1) before any
	// remaining slow/error entry.
	ts.Offer(mkRoot("slow-4", 300*time.Millisecond), 200)
	if ts.Get("hedged-1") != nil {
		t.Fatal("hedged entry survived over a new slow trace")
	}
	for _, id := range []string{"error-1", "slow-2", "slow-3", "slow-4"} {
		if ts.Get(id) == nil {
			t.Fatalf("%s missing after hedged eviction", id)
		}
	}
}

func TestTraceStoreDuplicateIDReplaces(t *testing.T) {
	ts := NewTraceStore(TraceConfig{Capacity: 4, SampleEvery: -1})
	ts.Offer(mkRoot("dup", 300*time.Millisecond), 200)
	ts.Offer(mkRoot("dup", 400*time.Millisecond), 500)
	if ts.Len() != 1 {
		t.Fatalf("Len() = %d after duplicate offer, want 1", ts.Len())
	}
	e := ts.Get("dup")
	if e == nil || e.Status != 500 || e.Root.Duration != 400*time.Millisecond {
		t.Fatalf("duplicate offer did not replace: %+v", e)
	}
}

// TestConcurrentRequestSpanIsolation is the -race stress for the span
// collector: many interleaved "requests" each build a root with
// StartAlways plus stage children via StartChild, concurrently and with
// no sink registered. Every finished tree must contain exactly its own
// stages with its own trace ID — no node may leak across requests.
func TestConcurrentRequestSpanIsolation(t *testing.T) {
	SetSink(nil) // always-on trees must work without a global sink

	const workers = 16
	const perWorker = 50
	stages := []string{"parse", "features", "cascade", "model"}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	store := NewTraceStore(TraceConfig{Capacity: workers * perWorker, SampleEvery: 1})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("w%d-r%d", w, i)
				ctx := WithTraceID(t.Context(), id)
				ctx, root := StartAlways(ctx, "request")
				for _, st := range stages {
					sctx, sp := StartChild(ctx, st)
					_, inner := StartChild(sctx, st+"/inner")
					inner.SetMetric("i", float64(i))
					inner.End()
					sp.End()
				}
				sd := root.EndData()
				if sd == nil {
					errs <- fmt.Errorf("%s: EndData returned nil", id)
					return
				}
				if sd.TraceID != id {
					errs <- fmt.Errorf("%s: trace ID %q", id, sd.TraceID)
					return
				}
				if len(sd.Children) != len(stages) {
					errs <- fmt.Errorf("%s: %d children, want %d", id, len(sd.Children), len(stages))
					return
				}
				for j, c := range sd.Children {
					if c.Name != stages[j] || c.TraceID != id {
						errs <- fmt.Errorf("%s: child %d = %s/%s", id, j, c.Name, c.TraceID)
						return
					}
					if len(c.Children) != 1 || c.Children[0].Metrics["i"] != float64(i) {
						errs <- fmt.Errorf("%s: child %d inner leaked: %+v", id, j, c.Children)
						return
					}
				}
				store.Offer(sd, 200)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if store.Len() != workers*perWorker {
		t.Fatalf("store kept %d of %d", store.Len(), workers*perWorker)
	}
	// Spot-check retained trees are still intact after concurrent offers.
	e := store.Get("w0-r0")
	if e == nil || len(e.Root.Children) != len(stages) {
		t.Fatalf("retained tree corrupted: %+v", e)
	}
}
