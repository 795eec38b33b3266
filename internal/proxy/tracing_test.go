package proxy

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// adminGet fetches a proxy-admin path with an optional bearer token.
func adminGet(h http.Handler, path, token string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	h.ServeHTTP(rec, req)
	return rec
}

// TestProxyHedgedTraceStitched is the tentpole's end-to-end check at
// unit scale: a hedged request leaves one retained trace whose root
// holds both attempt spans, and fetching it by ID stitches each
// replica's own span tree under the attempt that reached it.
func TestProxyHedgedTraceStitched(t *testing.T) {
	defer obs.Default.Reset()
	fakes, p := testFleet(t, 2, Config{
		HedgeAfter:  25 * time.Millisecond,
		Timeout:     5 * time.Second,
		AdminToken:  "ptok",
		TraceSample: -1,
	})
	h := p.Handler()

	// Find a body owned by fakes[0], then make fakes[0] slow so the
	// hedge to fakes[1] wins.
	var body []byte
	for i := 0; ; i++ {
		cand := []byte(fmt.Sprintf("%%MatrixMarket stitch %d", i))
		if owner, _ := p.ring.Lookup(routeKey(cand, "")); owner == fakes[0].addr() {
			body = cand
			break
		}
	}
	fakes[0].delayMs.Store(500)

	req := httptest.NewRequest(http.MethodPost, "/v1/predict/matrix", strings.NewReader(string(body)))
	req.Header.Set("X-Request-ID", "stitch-me")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("hedged predict: %d %s", rec.Code, rec.Body.String())
	}

	// Hedged requests are force-kept — no sampling, no slow threshold
	// needed.
	e := p.traces.Get("stitch-me")
	if e == nil {
		t.Fatal("hedged request not retained")
	}
	found := false
	for _, reason := range e.Reasons {
		if reason == obs.KeepHedged {
			found = true
		}
	}
	if !found {
		t.Fatalf("reasons = %v, want %q", e.Reasons, obs.KeepHedged)
	}

	rec = adminGet(h, "/v1/admin/trace/stitch-me", "ptok")
	if rec.Code != http.StatusOK {
		t.Fatalf("trace get: %d %s", rec.Code, rec.Body.String())
	}
	var st StitchedTrace
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.TraceID != "stitch-me" || st.Root == nil {
		t.Fatalf("stitched trace = %+v", st)
	}
	if len(st.StitchedFrom) != 2 {
		t.Fatalf("stitched from %v, want both replicas", st.StitchedFrom)
	}
	// Both attempts under the root: the abandoned owner and the winning
	// hedge, each carrying the replica's own parse/predict spans.
	attempts := 0
	hedgedAttempts := 0
	for _, c := range st.Root.Children {
		if !strings.HasPrefix(c.Name, "attempt/") {
			continue
		}
		attempts++
		if c.Metrics["hedged"] == 1 {
			hedgedAttempts++
		}
		stageNames := map[string]bool{}
		for _, g := range c.Children {
			if g.Root { // the grafted replica tree
				for _, stage := range g.Children {
					stageNames[stage.Name] = true
				}
			}
		}
		if !stageNames["parse"] || !stageNames["predict"] {
			t.Errorf("attempt %s missing replica stage spans: %v", c.Name, stageNames)
		}
	}
	if attempts != 2 || hedgedAttempts != 1 {
		t.Fatalf("root has %d attempt spans (%d hedged), want 2 (1 hedged)", attempts, hedgedAttempts)
	}

	// The winning attempt carried hop 1 and the hedged keep marker to
	// the replica.
	keeps := func() []string {
		fakes[1].mu.Lock()
		defer fakes[1].mu.Unlock()
		return append([]string{}, fakes[1].keeps...)
	}()
	hops := func() []string {
		fakes[1].mu.Lock()
		defer fakes[1].mu.Unlock()
		return append([]string{}, fakes[1].hops...)
	}()
	if len(hops) != 1 || hops[0] != "1" {
		t.Fatalf("hedge target saw hops %v, want [1]", hops)
	}
	if len(keeps) != 1 || keeps[0] != "hedged" {
		t.Fatalf("hedge target saw keeps %v, want [hedged]", keeps)
	}

	// The list view includes the entry.
	rec = adminGet(h, "/v1/admin/trace", "ptok")
	var list obs.TraceList
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 1 || list.Traces[0].TraceID != "stitch-me" {
		t.Fatalf("trace list = %+v", list)
	}
}

// TestProxyTraceRequestedKeep: a client's X-Trace-Keep forces retention
// at the proxy and propagates to the replica, so every hop of the
// request keeps its trace fetchable.
func TestProxyTraceRequestedKeep(t *testing.T) {
	defer obs.Default.Reset()
	fakes, p := testFleet(t, 2, Config{
		HedgeAfter:  time.Second,
		AdminToken:  "ptok",
		TraceSample: -1,
	})
	h := p.Handler()

	req := httptest.NewRequest(http.MethodPost, "/v1/predict/matrix",
		strings.NewReader("%%MatrixMarket keep"))
	req.Header.Set("X-Request-ID", "keep-hop")
	req.Header.Set(obs.TraceKeepHeader, "1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict: %d %s", rec.Code, rec.Body.String())
	}

	e := p.traces.Get("keep-hop")
	if e == nil {
		t.Fatal("requested trace not retained")
	}
	if len(e.Reasons) != 1 || e.Reasons[0] != obs.KeepRequested {
		t.Fatalf("reasons = %v, want [%s]", e.Reasons, obs.KeepRequested)
	}
	var keeps []string
	for _, f := range fakes {
		f.mu.Lock()
		keeps = append(keeps, f.keeps...)
		f.mu.Unlock()
	}
	if len(keeps) != 1 || keeps[0] != "1" {
		t.Fatalf("replicas saw keep headers %v, want the client's [1]", keeps)
	}
}

// TestProxyStitchesReservedCharacterIDs: a request ID holding reserved
// URL characters is fetched from the proxy and from the replica under
// the whole ID, so the grafted replica tree is this request's — never
// the tree of a shorter ID cut off at a ? or a #.
func TestProxyStitchesReservedCharacterIDs(t *testing.T) {
	defer obs.Default.Reset()
	_, p := testFleet(t, 2, Config{HedgeAfter: time.Second, AdminToken: "ptok", TraceSample: -1})
	h := p.Handler()
	for _, id := range []string{"a?b", "a#b", "x/../y", "100%", "a b", "a/b"} {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict/matrix",
			strings.NewReader("%%MatrixMarket reserved "+id))
		req.Header.Set("X-Request-ID", id)
		req.Header.Set(obs.TraceKeepHeader, "1")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("predict %q: %d %s", id, rec.Code, rec.Body.String())
		}

		rec = adminGet(h, "/v1/admin/trace/"+url.PathEscape(id), "ptok")
		if rec.Code != http.StatusOK {
			t.Fatalf("trace get %q: %d %s", id, rec.Code, rec.Body.String())
		}
		var st StitchedTrace
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.TraceID != id || st.Root == nil || len(st.StitchedFrom) != 1 {
			t.Fatalf("trace %q: got ID %q, stitched from %v; want the ID and one replica", id, st.TraceID, st.StitchedFrom)
		}
		for _, c := range st.Root.Children {
			for _, g := range c.Children {
				if g.Root && g.TraceID != id {
					t.Fatalf("trace %q: grafted the replica tree of %q", id, g.TraceID)
				}
			}
		}
	}
}

// TestProxyTraceAdminAuth: the trace API is gated on the proxy's own
// token — absent configuration disables it outright.
func TestProxyTraceAdminAuth(t *testing.T) {
	defer obs.Default.Reset()
	_, open := testFleet(t, 1, Config{HedgeAfter: time.Second})
	if rec := adminGet(open.Handler(), "/v1/admin/trace", "anything"); rec.Code != http.StatusUnauthorized {
		t.Fatalf("tokenless proxy trace list: %d, want 401", rec.Code)
	}

	_, p := testFleet(t, 1, Config{HedgeAfter: time.Second, AdminToken: "ptok"})
	h := p.Handler()
	for _, token := range []string{"", "wrong"} {
		if rec := adminGet(h, "/v1/admin/trace", token); rec.Code != http.StatusUnauthorized {
			t.Fatalf("trace list with token %q: %d, want 401", token, rec.Code)
		}
	}
	if rec := adminGet(h, "/v1/admin/trace", "ptok"); rec.Code != http.StatusOK {
		t.Fatalf("authorized trace list: %d", rec.Code)
	}
	if rec := adminGet(h, "/v1/admin/trace/none-such", "ptok"); rec.Code != http.StatusNotFound {
		t.Fatalf("missing trace: %d, want 404", rec.Code)
	}
}
