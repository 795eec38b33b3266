package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"net/http"
	"testing"

	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/sparse"
)

func TestFeatMemoLRUSemantics(t *testing.T) {
	c := newFeatMemo(2)
	if !c.Enabled() {
		t.Fatal("capacity-2 memo reports disabled")
	}
	full := []float64{1, 2, 3}
	cheap := []float64{9}

	c.Put("a", featEntry{cheap: cheap})
	e, ok := c.Get("a")
	if !ok || e.cheap == nil || e.full != nil {
		t.Fatalf("cheap entry = %+v ok=%v", e, ok)
	}
	before := c.Bytes()

	// Cheap-only entries upgrade to full…
	c.Put("a", featEntry{full: full})
	if e, _ = c.Get("a"); e.full == nil {
		t.Fatal("cheap entry did not upgrade to full")
	}
	if c.Bytes() <= before {
		t.Errorf("footprint did not grow on upgrade: %d -> %d", before, c.Bytes())
	}
	// …but never downgrade back.
	c.Put("a", featEntry{cheap: cheap})
	if e, _ = c.Get("a"); e.full == nil {
		t.Fatal("full entry downgraded to cheap")
	}

	// LRU eviction at capacity: touch "a", insert "b" then "c"; "b" is
	// the stalest and must go.
	c.Put("b", featEntry{full: full})
	if _, ok = c.Get("a"); !ok {
		t.Fatal("entry a missing")
	}
	c.Put("c", featEntry{full: full})
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok = c.Get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok = c.Get("a"); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	if c.Bytes() <= 0 {
		t.Errorf("Bytes = %d after two resident entries", c.Bytes())
	}

	// Non-positive capacity disables; nil is safe.
	d := newFeatMemo(0)
	if d.Enabled() {
		t.Fatal("capacity-0 memo reports enabled")
	}
	d.Put("x", featEntry{full: full})
	if _, ok = d.Get("x"); ok {
		t.Fatal("disabled memo stored an entry")
	}
	var nilMemo *featMemo
	if nilMemo.Enabled() || nilMemo.Len() != 0 || nilMemo.Bytes() != 0 {
		t.Fatal("nil memo is not inert")
	}
}

// TestFeatMemoServesRepeatMatrix is the memo's core contract: a repeat
// body is answered without parsing or extraction (the hit counter
// moves, and the response says cached), with exactly the prediction
// the computed path produced — and FlushCache, which callers may still
// wire into registry.OnSwap, leaves the memo alone.
func TestFeatMemoServesRepeatMatrix(t *testing.T) {
	srv, art, m, mm := testServer(t, Config{})
	h := srv.Handler()
	want := art.MustPredict(t, m)

	hits0, misses0 := srv.memoHits.Value(), srv.memoMisses.Value()
	rec, out := postJSON(t, h, "/v1/predict/matrix", mm)
	if rec.Code != http.StatusOK || out["format"] != want.Format || out["cached"] != false {
		t.Fatalf("first predict = %d %v, want uncached %s", rec.Code, out, want.Format)
	}
	if d := srv.memoMisses.Value() - misses0; d != 1 {
		t.Fatalf("featmemo misses after first request = %d, want 1", d)
	}
	if srv.featMemo.Len() != 1 {
		t.Fatalf("memo entries = %d, want 1", srv.featMemo.Len())
	}

	rec, out = postJSON(t, h, "/v1/predict/matrix", mm)
	if rec.Code != http.StatusOK || out["format"] != want.Format {
		t.Fatalf("repeat predict = %d %v, want %s", rec.Code, out, want.Format)
	}
	if out["cached"] != true {
		t.Fatal("memo hit reported cached=false; cached means memoized features answered")
	}
	if d := srv.memoHits.Value() - hits0; d != 1 {
		t.Fatalf("featmemo hits after repeat = %d, want 1", d)
	}

	// FlushCache is a no-op: no swap invalidates body→features.
	srv.FlushCache()
	if srv.featMemo.Len() != 1 {
		t.Fatalf("FlushCache emptied the feature memo (%d entries left)", srv.featMemo.Len())
	}
	rec, out = postJSON(t, h, "/v1/predict/matrix", mm)
	if rec.Code != http.StatusOK || out["format"] != want.Format {
		t.Fatalf("post-flush predict = %d %v", rec.Code, out)
	}
	if d := srv.memoHits.Value() - hits0; d != 2 {
		t.Fatalf("featmemo hits after flush = %d, want 2", d)
	}
}

func TestFeatMemoDisabledByConfig(t *testing.T) {
	srv, _, _, mm := testServer(t, Config{FeatMemoSize: -1})
	h := srv.Handler()
	hits0, misses0 := srv.memoHits.Value(), srv.memoMisses.Value()
	for i := 0; i < 2; i++ {
		if rec, out := postJSON(t, h, "/v1/predict/matrix", mm); rec.Code != http.StatusOK || out["cached"] != false {
			t.Fatalf("predict %d: %d %v, want uncached", i, rec.Code, out)
		}
	}
	if srv.memoHits.Value() != hits0 || srv.memoMisses.Value() != misses0 {
		t.Fatal("disabled memo still moved its counters")
	}
	if srv.featMemo.Len() != 0 {
		t.Fatalf("disabled memo holds %d entries", srv.featMemo.Len())
	}
}

// memoKeyOf derives the memo key the server uses for a body.
func memoKeyOf(body []byte) string {
	sum := sha256.Sum256(body)
	return string(sum[:16])
}

// TestFeatMemoCascadeEntries checks the memo's interaction with the
// cheap-first cascade: a cheap-stage answer memoizes only the cheap
// row, a fall-through memoizes the full vector, and repeats of either
// are served from the memo with an identical prediction (same stage
// included).
func TestFeatMemoCascadeEntries(t *testing.T) {
	art, ms := cascadeArtifact(t, 0.6)
	srv, err := NewServer(art, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	var scratch features.Scratch
	var cheapM, fullM *sparse.CSR
	for _, m := range ms {
		pred, _, err := art.PredictMatrixScratch(m, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if pred.Stage == StageCheap && cheapM == nil {
			cheapM = m
		}
		if pred.Stage == StageFull && fullM == nil {
			fullM = m
		}
	}

	serve := func(m *sparse.CSR) (code int, out map[string]any, body []byte) {
		var mm bytes.Buffer
		if err := sparse.WriteMatrixMarket(&mm, m); err != nil {
			t.Fatal(err)
		}
		rec, out := postJSON(t, h, "/v1/predict/matrix", mm.Bytes())
		return rec.Code, out, mm.Bytes()
	}

	if cheapM != nil {
		hits0 := srv.memoHits.Value()
		code, first, body := serve(cheapM)
		if code != http.StatusOK || first["stage"] != StageCheap {
			t.Fatalf("cheap matrix served %d %v", code, first)
		}
		e, ok := srv.featMemo.Get(memoKeyOf(body))
		if !ok || e.cheap == nil || e.full != nil {
			t.Fatalf("cheap answer memoized %+v ok=%v, want cheap-only", e, ok)
		}
		code, again, _ := serve(cheapM)
		if code != http.StatusOK {
			t.Fatalf("cheap repeat: %d", code)
		}
		if again["format"] != first["format"] || again["stage"] != StageCheap || again["cached"] != true {
			t.Fatalf("cheap memo repeat %v differs from computed %v", again, first)
		}
		if srv.memoHits.Value() != hits0+1 {
			t.Fatalf("cheap repeat did not hit the memo (hits %d -> %d)", hits0, srv.memoHits.Value())
		}
	} else {
		t.Log("corpus produced no cheap-stage answer; skipping cheap-entry checks")
	}

	if fullM != nil {
		hits0 := srv.memoHits.Value()
		code, first, body := serve(fullM)
		if code != http.StatusOK || first["stage"] != StageFull {
			t.Fatalf("fall-through matrix served %d %v", code, first)
		}
		e, ok := srv.featMemo.Get(memoKeyOf(body))
		if !ok || e.full == nil {
			t.Fatalf("fall-through answer memoized %+v ok=%v, want full vector", e, ok)
		}
		if len(e.full) != features.Count {
			t.Fatalf("memoized vector has %d features, want %d", len(e.full), features.Count)
		}
		code, again, _ := serve(fullM)
		if code != http.StatusOK {
			t.Fatalf("fall-through repeat: %d", code)
		}
		if again["format"] != first["format"] || again["stage"] != StageFull || again["cached"] != true {
			t.Fatalf("full memo repeat %v differs from computed %v", again, first)
		}
		if srv.memoHits.Value() != hits0+1 {
			t.Fatalf("full repeat did not hit the memo (hits %d -> %d)", hits0, srv.memoHits.Value())
		}
	} else {
		t.Log("corpus produced no fall-through; skipping full-entry checks")
	}
}

// TestPredictBodyMemoHitAllocs pins the allocation cost of a memo hit:
// parsing and extraction (thousands of allocations for a real matrix)
// must stay off this path. The bound leaves room for the key hashing,
// the model inference and the metric labels, nothing more.
func TestPredictBodyMemoHitAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	srv, _, _, mm := testServer(t, Config{})
	lm, err := srv.backend.Live("")
	if err != nil {
		t.Fatal(err)
	}
	var scratch features.Scratch
	ps := sparse.GetParseScratch()
	defer sparse.PutParseScratch(ps)
	if _, err := srv.predictBody(context.Background(), lm, LiveModel{}, false, &scratch, ps, mm); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := srv.predictBody(context.Background(), lm, LiveModel{}, false, &scratch, ps, mm); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Fatalf("memo-hit predictBody allocates %.0f objects per run; parse/extract has crept back in", allocs)
	}
}
