package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// fakeReplica is an httptest stand-in for one serve instance: it
// honours the slice of the HTTP contract the proxy depends on (readyz
// JSON shape, request-ID minting, opaque prediction bodies) and
// records what it was asked, so tests can assert where requests landed
// without training real models.
type fakeReplica struct {
	id  string
	srv *httptest.Server

	delayMs atomic.Int64 // artificial prediction latency
	preds   atomic.Int64
	reqSeq  atomic.Int64

	mu       sync.Mutex
	feedback []string // request_ids received on /v1/feedback
	hops     []string // X-Trace-Hop values seen on predictions
	keeps    []string // X-Trace-Keep values seen on predictions
}

func newFakeReplica(id string) *fakeReplica {
	f := &fakeReplica{id: id}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, http.StatusOK, serve.ReadyResponse{Ready: true, UptimeSeconds: 1})
	})
	predict := func(w http.ResponseWriter, r *http.Request) {
		if d := f.delayMs.Load(); d > 0 {
			time.Sleep(time.Duration(d) * time.Millisecond)
		}
		f.preds.Add(1)
		f.mu.Lock()
		f.hops = append(f.hops, r.Header.Get(obs.TraceHopHeader))
		f.keeps = append(f.keeps, r.Header.Get(obs.TraceKeepHeader))
		f.mu.Unlock()
		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			rid = fmt.Sprintf("%s-rid-%d", f.id, f.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", rid)
		w.Header().Set("X-Model-Hash", "hash-"+f.id)
		obs.WriteJSON(w, http.StatusOK, map[string]string{"replica": f.id})
	}
	mux.HandleFunc("/v1/predict/matrix", predict)
	mux.HandleFunc("/v1/predict/batch", predict)
	mux.HandleFunc("/v1/feedback", func(w http.ResponseWriter, r *http.Request) {
		var ref struct {
			RequestID string `json:"request_id"`
		}
		json.NewDecoder(r.Body).Decode(&ref)
		f.mu.Lock()
		f.feedback = append(f.feedback, ref.RequestID)
		f.mu.Unlock()
		obs.WriteJSON(w, http.StatusOK, map[string]bool{"accepted": true})
	})
	mux.HandleFunc("/v1/admin/trace/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/v1/admin/trace/")
		obs.WriteJSON(w, http.StatusOK, obs.TraceEntry{
			TraceID: id,
			Status:  http.StatusOK,
			Reasons: []string{obs.KeepRequested},
			Root: &obs.SpanData{
				Name: "/v1/predict/matrix", TraceID: id, Root: true,
				Children: []*obs.SpanData{
					{Name: "parse", TraceID: id},
					{Name: "predict", TraceID: id},
				},
			},
		})
	})
	mux.HandleFunc("/v1/admin/slo", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Authorization") != "Bearer tok" {
			obs.WriteJSON(w, http.StatusUnauthorized, obs.ErrorBody{Error: "invalid admin token"})
			return
		}
		obs.WriteJSON(w, http.StatusOK, obs.SLOReport{
			Objective: 0.999,
			Windows:   []obs.SLOWindowReport{{Window: "1m", Requests: 10, Errors: 1, Availability: 0.9}},
		})
	})
	f.srv = httptest.NewServer(mux)
	return f
}

func (f *fakeReplica) addr() string { return strings.TrimPrefix(f.srv.URL, "http://") }

func (f *fakeReplica) feedbackIDs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string{}, f.feedback...)
}

// testFleet builds N fakes plus a converged proxy over them.
func testFleet(t *testing.T, n int, cfg Config) ([]*fakeReplica, *Proxy) {
	t.Helper()
	fakes := make([]*fakeReplica, n)
	for i := range fakes {
		fakes[i] = newFakeReplica(fmt.Sprintf("r%d", i))
		t.Cleanup(fakes[i].srv.Close)
		cfg.Replicas = append(cfg.Replicas, fakes[i].addr())
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.CheckAll(context.Background())
	if got := p.ring.Size(); got != n {
		t.Fatalf("ring size %d after CheckAll over %d healthy replicas", got, n)
	}
	return fakes, p
}

func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	h.ServeHTTP(rec, req)
	return rec
}

// TestProxyConsistentRouting: the same body always lands on the same
// replica (that is what keeps the per-replica caches hot), distinct
// bodies spread across the fleet, and the replica's headers
// (X-Model-Hash, X-Request-ID) survive the hop.
func TestProxyConsistentRouting(t *testing.T) {
	fakes, p := testFleet(t, 3, Config{HedgeAfter: time.Second})
	h := p.Handler()

	hit := map[string]bool{}
	for i := 0; i < 30; i++ {
		body := []byte(fmt.Sprintf("%%MatrixMarket fake %d", i))
		first := post(h, "/v1/predict/matrix", body)
		if first.Code != http.StatusOK {
			t.Fatalf("predict %d: %d %s", i, first.Code, first.Body.String())
		}
		owner := first.Header().Get("X-Proxy-Replica")
		if owner == "" {
			t.Fatal("no X-Proxy-Replica header")
		}
		if first.Header().Get("X-Model-Hash") == "" {
			t.Fatal("replica's X-Model-Hash did not survive the proxy hop")
		}
		hit[owner] = true
		for rep := 0; rep < 2; rep++ {
			again := post(h, "/v1/predict/matrix", body)
			if got := again.Header().Get("X-Proxy-Replica"); got != owner {
				t.Fatalf("body %d moved between replicas: %q then %q", i, owner, got)
			}
		}
	}
	if len(hit) < 2 {
		t.Fatalf("30 distinct bodies all landed on one replica of %d", len(fakes))
	}
}

// TestProxyHedgeSlowReplica: when the ring owner sits on a request
// past HedgeAfter, the hedge to the next replica answers and the
// client never notices.
func TestProxyHedgeSlowReplica(t *testing.T) {
	fakes, p := testFleet(t, 2, Config{HedgeAfter: 25 * time.Millisecond, Timeout: 5 * time.Second})
	h := p.Handler()

	// Find a body owned by fakes[0], then make fakes[0] slow.
	var body []byte
	for i := 0; ; i++ {
		cand := []byte(fmt.Sprintf("%%MatrixMarket slow %d", i))
		if owner, _ := p.ring.Lookup(routeKey(cand, "")); owner == fakes[0].addr() {
			body = cand
			break
		}
	}
	fakes[0].delayMs.Store(500)
	hedges0, wins0 := p.hedges.Value(), p.hedgeWins.Value()

	start := time.Now()
	rec := post(h, "/v1/predict/matrix", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("hedged predict: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Proxy-Replica"); got != fakes[1].addr() {
		t.Fatalf("answer came from %q, want the hedge target %q", got, fakes[1].addr())
	}
	if d := time.Since(start); d > 400*time.Millisecond {
		t.Fatalf("hedged request took %s — the slow primary was awaited", d)
	}
	if p.hedges.Value() != hedges0+1 || p.hedgeWins.Value() != wins0+1 {
		t.Fatalf("hedges %d->%d wins %d->%d, want both +1",
			hedges0, p.hedges.Value(), wins0, p.hedgeWins.Value())
	}
}

// TestProxyFailoverDeadReplica: a replica that dies without
// deregistering costs zero client-visible errors — the transport
// failure fails over immediately and ejects the corpse from the ring.
func TestProxyFailoverDeadReplica(t *testing.T) {
	fakes, p := testFleet(t, 3, Config{HedgeAfter: time.Second, Timeout: 5 * time.Second})
	h := p.Handler()

	// Find a body owned by fakes[2], then kill fakes[2] outright.
	var body []byte
	for i := 0; ; i++ {
		cand := []byte(fmt.Sprintf("%%MatrixMarket dead %d", i))
		if owner, _ := p.ring.Lookup(routeKey(cand, "")); owner == fakes[2].addr() {
			body = cand
			break
		}
	}
	fakes[2].srv.Close()

	rec := post(h, "/v1/predict/matrix", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict against a dead owner: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Proxy-Replica"); got == fakes[2].addr() {
		t.Fatal("answer attributed to the dead replica")
	}
	st := p.Fleet()
	if st.HealthyCount != 2 || st.RingSize != 2 {
		t.Fatalf("fleet after death: healthy %d ring %d, want 2/2", st.HealthyCount, st.RingSize)
	}
	if !st.Ready {
		t.Fatal("fleet not ready with 2 of 3 replicas healthy")
	}
	// The corpse's keys now route to survivors, consistently.
	again := post(h, "/v1/predict/matrix", body)
	if again.Code != http.StatusOK {
		t.Fatalf("re-predict after ejection: %d", again.Code)
	}
}

// TestProxyFeedbackRouting: feedback carrying a prediction's
// X-Request-ID goes to the replica that answered that prediction —
// outcomes are consume-once, so broadcast or rehash would lose them.
func TestProxyFeedbackRouting(t *testing.T) {
	fakes, p := testFleet(t, 3, Config{HedgeAfter: time.Second})
	h := p.Handler()

	body := []byte("%%MatrixMarket feedback probe")
	rec := post(h, "/v1/predict/matrix", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict: %d", rec.Code)
	}
	owner := rec.Header().Get("X-Proxy-Replica")
	rid := rec.Header().Get("X-Request-ID")
	if rid == "" {
		t.Fatal("no X-Request-ID on the proxied prediction")
	}

	fb := []byte(fmt.Sprintf(`{"request_id":%q,"format":"csr","ms":1.5}`, rid))
	rec = post(h, "/v1/feedback", fb)
	if rec.Code != http.StatusOK {
		t.Fatalf("feedback: %d %s", rec.Code, rec.Body.String())
	}
	for _, f := range fakes {
		got := f.feedbackIDs()
		if f.addr() == owner {
			if len(got) != 1 || got[0] != rid {
				t.Fatalf("owning replica saw feedback %v, want [%s]", got, rid)
			}
		} else if len(got) != 0 {
			t.Fatalf("replica %s saw feedback %v for a prediction it never served", f.id, got)
		}
	}

	// Unknown request IDs answer 404 without guessing a replica.
	rec = post(h, "/v1/feedback", []byte(`{"request_id":"never-issued"}`))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown request_id: %d, want 404", rec.Code)
	}
}

// TestProxyAdminFanout: /v1/admin/slo aggregates every replica's
// report under its address, sums the windows fleet-wide, and refuses
// to present a partial view when any replica rejects the token.
func TestProxyAdminFanout(t *testing.T) {
	_, p := testFleet(t, 3, Config{})
	h := p.Handler()

	req := httptest.NewRequest(http.MethodGet, "/v1/admin/slo", nil)
	req.Header.Set("Authorization", "Bearer tok")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("fanout: %d %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Replicas map[string]json.RawMessage `json:"replicas"`
		Fleet    struct {
			Windows []fleetSLOWindow `json:"windows"`
		} `json:"fleet"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Replicas) != 3 {
		t.Fatalf("fanout covered %d replicas, want 3", len(out.Replicas))
	}
	if len(out.Fleet.Windows) != 1 {
		t.Fatalf("fleet summary windows = %+v", out.Fleet.Windows)
	}
	w := out.Fleet.Windows[0]
	if w.Requests != 30 || w.Errors != 3 {
		t.Fatalf("fleet 1m window = %+v, want requests 30 errors 3", w)
	}
	if w.Availability < 0.899 || w.Availability > 0.901 {
		t.Fatalf("fleet availability = %v, want 0.9", w.Availability)
	}

	// Missing token: the replicas answer 401 and the aggregate refuses.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/admin/slo", nil))
	if rec.Code != http.StatusUnauthorized {
		t.Fatalf("tokenless fanout: %d, want 401", rec.Code)
	}
}

// TestProxyReadyzEmptyFleet: with every replica dead the proxy reports
// itself unready (503) and predictions answer 502, not a hang.
func TestProxyReadyzEmptyFleet(t *testing.T) {
	fakes, p := testFleet(t, 2, Config{Timeout: 2 * time.Second})
	for _, f := range fakes {
		f.srv.Close()
	}
	p.CheckAll(context.Background())
	h := p.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with a dead fleet: %d, want 503", rec.Code)
	}
	var st FleetStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Ready || st.HealthyCount != 0 || st.RingSize != 0 {
		t.Fatalf("dead-fleet status = %+v", st)
	}
	if rec := post(h, "/v1/predict/matrix", []byte("x")); rec.Code != http.StatusBadGateway {
		t.Fatalf("predict with a dead fleet: %d, want 502", rec.Code)
	}
}

// TestRouteTableEviction: the feedback table is bounded FIFO.
func TestRouteTableEviction(t *testing.T) {
	rt := newRouteTable(3)
	for i := 0; i < 5; i++ {
		rt.put(fmt.Sprintf("id%d", i), "addr")
	}
	for i, want := range []bool{false, false, true, true, true} {
		if _, ok := rt.get(fmt.Sprintf("id%d", i)); ok != want {
			t.Fatalf("id%d present=%v, want %v", i, ok, want)
		}
	}
}
