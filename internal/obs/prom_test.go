package obs

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// promTestSnapshot builds a small fixed registry covering every
// instrument kind, labeled and unlabeled.
func promTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter("serve/requests").Add(7)
	r.Gauge("serve/inflight").Set(2.5)
	// Exact binary fractions so the golden _sum line is stable.
	r.Histogram("serve/request/seconds", []float64{0.001, 0.01, 0.1}).Observe(0.0078125)
	r.Histogram("serve/request/seconds", nil).Observe(0.0625)
	r.Histogram("serve/request/seconds", nil).Observe(3)
	cv := r.CounterVec("serve/predictions", "arch", "format")
	cv.With("turing", "CSR").Add(4)
	cv.With("pascal", "HYB").Add(1)
	r.GaugeVec("registry/drift/psi", "arch", "signal").With("turing", "format").Set(0.25)
	hv := r.HistogramVec("serve/http/seconds", []float64{0.01, 0.1}, "endpoint", "arch")
	hv.With("/v1/predict/matrix", "turing").Observe(0.02)
	return r
}

// promGolden is the exact exposition of promTestRegistry: families
// sorted, series sorted by label text, cumulative buckets, counters
// suffixed _total.
const promGolden = `# TYPE spmvselect_registry_drift_psi gauge
spmvselect_registry_drift_psi{arch="turing",signal="format"} 0.25
# TYPE spmvselect_serve_http_seconds histogram
spmvselect_serve_http_seconds_bucket{endpoint="/v1/predict/matrix",arch="turing",le="0.01"} 0
spmvselect_serve_http_seconds_bucket{endpoint="/v1/predict/matrix",arch="turing",le="0.1"} 1
spmvselect_serve_http_seconds_bucket{endpoint="/v1/predict/matrix",arch="turing",le="+Inf"} 1
spmvselect_serve_http_seconds_sum{endpoint="/v1/predict/matrix",arch="turing"} 0.02
spmvselect_serve_http_seconds_count{endpoint="/v1/predict/matrix",arch="turing"} 1
# TYPE spmvselect_serve_inflight gauge
spmvselect_serve_inflight 2.5
# TYPE spmvselect_serve_predictions_total counter
spmvselect_serve_predictions_total{arch="pascal",format="HYB"} 1
spmvselect_serve_predictions_total{arch="turing",format="CSR"} 4
# TYPE spmvselect_serve_request_seconds histogram
spmvselect_serve_request_seconds_bucket{le="0.001"} 0
spmvselect_serve_request_seconds_bucket{le="0.01"} 1
spmvselect_serve_request_seconds_bucket{le="0.1"} 2
spmvselect_serve_request_seconds_bucket{le="+Inf"} 3
spmvselect_serve_request_seconds_sum 3.0703125
spmvselect_serve_request_seconds_count 3
# TYPE spmvselect_serve_requests_total counter
spmvselect_serve_requests_total 7
`

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, promTestRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != promGolden {
		t.Errorf("exposition differs from golden:\n--- got ---\n%s--- want ---\n%s", got, promGolden)
	}
}

// TestPrometheusRoundTrip proves every emitted line is valid text
// format: the parser accepts the full exposition and recovers the
// sample values.
func TestPrometheusRoundTrip(t *testing.T) {
	r := promTestRegistry()
	// A label value exercising the escaping rules.
	r.CounterVec("serve/predictions", "arch", "format").With(`we"ird\arch`, "x\ny").Inc()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	m, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("round trip: emitted exposition failed to parse: %v", err)
	}
	if len(m.Samples) == 0 {
		t.Fatal("no samples parsed")
	}
	if v, ok := m.Value("spmvselect_serve_requests_total"); !ok || v != 7 {
		t.Errorf("counter lost: got %v %v", v, ok)
	}
	if v, ok := m.Value("spmvselect_serve_predictions_total", "arch", "turing", "format", "CSR"); !ok || v != 4 {
		t.Errorf("labeled counter lost: got %v %v", v, ok)
	}
	if v, ok := m.Value("spmvselect_serve_predictions_total", "arch", `we"ird\arch`, "format", "x\ny"); !ok || v != 1 {
		t.Errorf("escaped labels lost: got %v %v", v, ok)
	}
	if v, ok := m.Value("spmvselect_serve_request_seconds_bucket", "le", "+Inf"); !ok || v != 3 {
		t.Errorf("+Inf bucket lost: got %v %v", v, ok)
	}
	if typ := m.Types["spmvselect_serve_http_seconds"]; typ != "histogram" {
		t.Errorf("TYPE line lost: %q", typ)
	}
	if got := m.Sum("spmvselect_serve_predictions_total"); got != 6 {
		t.Errorf("Sum over family = %v, want 6", got)
	}
}

func TestParsePrometheusRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"metric_without_value\n",
		"1leading_digit 3\n",
		`unterminated{a="b 3` + "\n",
		"name 3 extra junk\n",
		`name{a=b} 3` + "\n",
	} {
		if _, err := ParsePrometheus(strings.NewReader(bad)); err == nil {
			t.Errorf("ParsePrometheus accepted %q", bad)
		}
	}
}

// FuzzParsePrometheus parses arbitrary expositions: nothing panics, and
// the same input parses to the same samples, types and error twice.
func FuzzParsePrometheus(f *testing.F) {
	f.Add(promGolden)
	for _, seed := range []string{
		"metric_without_value\n",
		`unterminated{a="b 3` + "\n",
		`esc{a="x\"y\\z\n",b="",} NaN` + "\n",
		"# TYPE x counter\nx -Inf\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		a, errA := ParsePrometheus(strings.NewReader(text))
		b, errB := ParsePrometheus(strings.NewReader(text))
		if (errA == nil) != (errB == nil) || errA != nil && errA.Error() != errB.Error() {
			t.Fatalf("errors differ: %v, then %v", errA, errB)
		}
		if errA != nil {
			return
		}
		if !maps.Equal(a.Types, b.Types) || len(a.Samples) != len(b.Samples) {
			t.Fatalf("parses differ: %+v, then %+v", a, b)
		}
		for i, s := range a.Samples {
			r := b.Samples[i]
			if s.Name != r.Name || !maps.Equal(s.Labels, r.Labels) ||
				math.Float64bits(s.Value) != math.Float64bits(r.Value) {
				t.Fatalf("sample %d: %+v, then %+v", i, s, r)
			}
		}
	})
}

func TestPromHandlerServesAndRefreshes(t *testing.T) {
	r := promTestRegistry()
	refreshed := 0
	h := PromHandler(r, func() { refreshed++ })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if refreshed != 1 {
		t.Errorf("refresh hook ran %d times, want 1", refreshed)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	if _, err := ParsePrometheus(rec.Body); err != nil {
		t.Errorf("handler output does not parse: %v", err)
	}
}

func TestPromFloatSpellings(t *testing.T) {
	for v, want := range map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		0.25:         "0.25",
	} {
		if got := promFloat(v); got != want {
			t.Errorf("promFloat(%v) = %q, want %q", v, got, want)
		}
	}
	if got := promFloat(math.NaN()); got != "NaN" {
		t.Errorf("promFloat(NaN) = %q", got)
	}
}

func TestVecSchemaAndReuse(t *testing.T) {
	r := NewRegistry()
	v1 := r.CounterVec("x", "a", "b")
	v2 := r.CounterVec("x", "ignored")
	if v1 != v2 {
		t.Error("CounterVec is not get-or-create")
	}
	c := v1.With("1", "2")
	v1.With("1", "2").Inc()
	c.Inc()
	if got := r.Snapshot().Counters[`x{a="1",b="2"}`]; got != 2 {
		t.Errorf("series count = %d, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch did not panic")
		}
	}()
	v1.With("only-one")
}

// TestVecConcurrentScrapes hammers labeled vectors from many writers
// while concurrent scrapes render the exposition — the -race test the
// serving stack relies on (scrapes during a registry promote touch the
// same maps).
func TestVecConcurrentScrapes(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("stress/requests", "endpoint", "status")
	hv := r.HistogramVec("stress/seconds", []float64{0.01, 0.1, 1}, "endpoint")
	gv := r.GaugeVec("stress/drift", "arch")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ep := fmt.Sprintf("/ep/%d", i%5)
				cv.With(ep, "200").Inc()
				hv.With(ep).Observe(float64(i%7) / 50)
				gv.With(fmt.Sprintf("arch%d", w%3)).Set(float64(i))
			}
		}()
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				if _, err := ParsePrometheus(&buf); err != nil {
					t.Errorf("scrape parse: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	var total int64
	for key, v := range snap.Counters {
		if strings.HasPrefix(key, "stress/requests{") {
			total += v
		}
	}
	if total != 8*500 {
		t.Errorf("lost increments: %d, want %d", total, 8*500)
	}
}
