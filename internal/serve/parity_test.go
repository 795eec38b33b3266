package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/features"
	"repro/internal/sparse"
)

// The reference-parity contract: whatever optimised path a server takes
// for a MatrixMarket body (fast byte parser, cheap-first cascade,
// feature memo, shadow scoring, batch fan-out), the answer must equal
// the plain pipeline run on the artifact that answered, named by the
// response's model_hash:
//
//	streaming sparse.ReadMatrixMarket -> features.Extract -> (*Artifact).Predict
//
// A body the reference rejects must be rejected too.

// referenceAnswer is the plain pipeline.
func referenceAnswer(art *Artifact, body []byte) (Prediction, error) {
	m, err := sparse.ReadMatrixMarket(bytes.NewReader(body))
	if err != nil {
		return Prediction{}, err
	}
	return art.Predict(features.Extract(m).Slice())
}

// parityBodies renders randomized MatrixMarket bodies: corpus matrices
// with a random share of entries dropped, and synthetic banded or
// scattered matrices, written in random entry order with random value
// formats, separators, comment lines and general, symmetric or pattern
// headers. A numbered comment line makes every body byte-unique, so a
// fresh body always meets a cold memo.
type parityBodies struct {
	rng    *rand.Rand
	corpus []*sparse.CSR
	n      int
}

type mmEntry struct {
	i, j int
	v    float64
}

func (g *parityBodies) entries() (rows, cols int, es []mmEntry) {
	if g.rng.Intn(5) < 3 {
		m := g.corpus[g.rng.Intn(len(g.corpus))]
		rows, cols = m.Dims()
		drop := g.rng.Float64() * 0.25
		rp, ci, vs := m.RowPtr(), m.ColIdx(), m.Values()
		for i := 0; i < rows; i++ {
			for k := rp[i]; k < rp[i+1]; k++ {
				if g.rng.Float64() >= drop {
					es = append(es, mmEntry{i, int(ci[k]), vs[k]})
				}
			}
		}
	} else {
		rows = 16 + g.rng.Intn(300)
		cols = rows
		if g.rng.Intn(3) == 0 {
			cols = 16 + g.rng.Intn(300)
		}
		band := 1 + g.rng.Intn(8)
		density := 0.002 + 0.03*g.rng.Float64()
		banded := g.rng.Intn(2) == 0
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				d := i - j
				if d < 0 {
					d = -d
				}
				if (banded && d <= band) || (!banded && g.rng.Float64() < density) {
					es = append(es, mmEntry{i, j, g.rng.NormFloat64()})
				}
			}
		}
	}
	if len(es) == 0 {
		es = append(es, mmEntry{0, 0, 1})
	}
	return rows, cols, es
}

// body returns the next randomized valid body.
func (g *parityBodies) body() []byte {
	rows, cols, es := g.entries()
	symmetry, values := "general", "real"
	if rows == cols && g.rng.Intn(4) == 0 {
		symmetry = "symmetric"
		lower := es[:0]
		for _, e := range es {
			if e.i >= e.j {
				lower = append(lower, e)
			}
		}
		if len(lower) == 0 {
			lower = append(lower, mmEntry{0, 0, 1})
		}
		es = lower
	}
	if g.rng.Intn(6) == 0 {
		values = "pattern"
	}
	if g.rng.Intn(2) == 0 {
		g.rng.Shuffle(len(es), func(a, b int) { es[a], es[b] = es[b], es[a] })
	}
	valFmt := []string{"%.17g", "%g", "%.4e", "%.6f"}[g.rng.Intn(4)]
	sep := []string{" ", "  ", "\t"}[g.rng.Intn(3)]

	g.n++
	var b strings.Builder
	fmt.Fprintf(&b, "%%%%MatrixMarket matrix coordinate %s %s\n", values, symmetry)
	fmt.Fprintf(&b, "%% parity body %d\n", g.n)
	if g.rng.Intn(2) == 0 {
		b.WriteString("%\n")
	}
	fmt.Fprintf(&b, "%d %d %d\n", rows, cols, len(es))
	for _, e := range es {
		fmt.Fprintf(&b, "%d%s%d", e.i+1, sep, e.j+1)
		if values != "pattern" {
			b.WriteString(sep)
			fmt.Fprintf(&b, valFmt, e.v)
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// malformed returns a byte-unique body that declares more entries than
// it carries, which every parser rejects.
func (g *parityBodies) malformed() []byte {
	g.n++
	return []byte(fmt.Sprintf("%%%%MatrixMarket matrix coordinate real general\n%% parity body %d\n3 3 2\n1 1 1.0\n", g.n))
}

// TestServingPathsMatchReference drives randomized bodies through
// /v1/predict/matrix, JSON batches and text batches across the server
// states that change which path answers — a cold memo, memo hits on
// full and cheap-only entries, cascade and plain artifacts, a
// registered shadow, and hot swaps made without any cache flush — and
// checks every answer against referenceAnswer on the artifact the
// response names.
func TestServingPathsMatchReference(t *testing.T) {
	casc, ms := cascadeArtifact(t, 0.6)
	_, best := labelledCorpus(t, "Turing")
	arts := map[string]*Artifact{
		"hash-cascade": casc,
		"hash-plain":   trainArtifact(t, ms, best, 6, 99),
		"hash-plain2":  trainArtifact(t, ms, best, 8, 3),
	}
	fb := newFakeBackend("turing")
	fb.set("turing", casc, "hash-cascade")
	srv, err := NewBackendServer(fb, Config{MaxBatchItems: 16})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	gen := &parityBodies{rng: rand.New(rand.NewSource(20211)), corpus: ms}

	// memoState names the memo's entry for body before a request.
	memoState := func(body []byte) string {
		e, ok := srv.featMemo.Get(memoKeyOf(body))
		switch {
		case !ok:
			return "cold"
		case e.full != nil:
			return "full"
		default:
			return "cheap"
		}
	}
	// check compares one served answer (or per-item error) with the
	// reference on the artifact named by hash.
	check := func(where, hash string, body []byte, got Prediction, gotErr string) bool {
		t.Helper()
		art := arts[hash]
		if art == nil {
			t.Fatalf("%s: answered by unknown model_hash %q", where, hash)
		}
		want, err := referenceAnswer(art, body)
		if err != nil {
			if gotErr == "" {
				t.Errorf("%s: served %+v for a body the reference rejects (%v)", where, got, err)
			}
			return false
		}
		if gotErr != "" {
			t.Errorf("%s: error %q, reference answers %+v", where, gotErr, want)
		} else if got != want {
			t.Errorf("%s: served %+v, reference (%s) answers %+v", where, got, hash, want)
		}
		return gotErr == ""
	}
	post := func(path, contentType string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	// send answers bodies through one endpoint, checks every answer, and
	// returns how many were answered successfully.
	send := func(phase, endpoint string, bodies [][]byte) int {
		t.Helper()
		ok := 0
		if endpoint == "single" {
			for i, body := range bodies {
				where := fmt.Sprintf("%s/%s[%d]", phase, endpoint, i)
				rec := post("/v1/predict/matrix", "text/plain", body)
				if rec.Code != http.StatusOK {
					if _, err := sparse.ReadMatrixMarket(bytes.NewReader(body)); err == nil {
						t.Errorf("%s: status %d for a body the reference parses: %s", where, rec.Code, rec.Body.String())
					}
					continue
				}
				var resp predictResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if check(where, resp.ModelHash, body, resp.Prediction, "") {
					ok++
				}
			}
			return ok
		}
		var rec *httptest.ResponseRecorder
		if endpoint == "batch-json" {
			req := batchRequest{}
			for _, body := range bodies {
				req.Matrices = append(req.Matrices, string(body))
			}
			js, _ := json.Marshal(req)
			rec = post("/v1/predict/batch", "application/json", js)
		} else {
			rec = post("/v1/predict/batch", "text/plain", bytes.Join(bodies, nil))
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("%s/%s: status %d %s", phase, endpoint, rec.Code, rec.Body.String())
		}
		var resp batchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != len(bodies) {
			t.Fatalf("%s/%s: %d results for %d bodies", phase, endpoint, len(resp.Results), len(bodies))
		}
		for i, it := range resp.Results {
			if check(fmt.Sprintf("%s/%s[%d]", phase, endpoint, i), resp.ModelHash, bodies[i], it.Prediction, it.Error) {
				ok++
			}
		}
		return ok
	}
	shadowRecords := func() int {
		fb.mu.Lock()
		defer fb.mu.Unlock()
		return len(fb.records)
	}

	// Seed the memo under the cascade artifact with bodies whose
	// reference answer came from each stage, so every later phase has
	// cheap-only and full entries to repeat.
	var sent [][]byte
	maxConf := 0.0
	for cheap, full := 0, 0; cheap < 16 || full < 8; {
		body := gen.body()
		want, err := referenceAnswer(casc, body)
		if err != nil {
			t.Fatalf("generated body rejected by the reference: %v\n%s", err, body)
		}
		if want.Stage == StageCheap && cheap < 16 {
			cheap++
			maxConf = max(maxConf, want.Confidence)
		} else if want.Stage == StageFull && full < 8 {
			full++
		} else {
			continue
		}
		send("seed", "single", [][]byte{body})
		sent = append(sent, body)
	}
	// A stricter recalibration of the same cascade: no seeded cheap
	// answer clears its threshold, so under it their cheap-only memo
	// entries must fall through to the full path.
	strict, strictStage := *casc, *casc.Cascade
	strictStage.Threshold = maxConf + 1e-9
	strict.Cascade = &strictStage
	arts["hash-cascade-strict"] = &strict

	phases := []struct {
		name, live, shadow string
	}{
		{"cascade", "hash-cascade", ""},
		{"swap-to-strict-cascade", "hash-cascade-strict", ""},
		{"cascade+shadow", "hash-cascade", "hash-plain"},
		{"swap-to-plain", "hash-plain", ""},
		{"plain+shadow", "hash-plain", "hash-cascade"},
		{"swap-to-plain2", "hash-plain2", ""},
		{"swap-to-cascade", "hash-cascade", ""},
	}
	endpoints := []string{"single", "batch-json", "batch-text"}
	coverage := map[string]int{}
	for _, ph := range phases {
		// Swaps go straight to the backend: no flush, no hook.
		fb.set("turing", arts[ph.live], ph.live)
		fb.mu.Lock()
		delete(fb.shadows, "turing")
		fb.mu.Unlock()
		if ph.shadow != "" {
			fb.setShadow("turing", arts[ph.shadow], ph.shadow)
		}
		for _, ep := range endpoints {
			byState := map[string][][]byte{}
			for _, body := range sent {
				s := memoState(body)
				byState[s] = append(byState[s], body)
			}
			var bodies [][]byte
			var states []string
			for _, s := range []string{"full", "cheap"} {
				if c := byState[s]; len(c) > 0 {
					bodies = append(bodies, c[gen.rng.Intn(len(c))])
					states = append(states, s)
				}
			}
			for k := 0; k < 3; k++ {
				bodies = append(bodies, gen.body())
				states = append(states, "cold")
			}
			bodies = append(bodies, gen.malformed())
			states = append(states, "malformed")
			gen.rng.Shuffle(len(bodies), func(a, b int) {
				bodies[a], bodies[b] = bodies[b], bodies[a]
				states[a], states[b] = states[b], states[a]
			})

			rec0 := shadowRecords()
			ok := send(ph.name, ep, bodies)
			if ok != len(bodies)-1 {
				t.Errorf("%s/%s: %d of %d valid bodies answered", ph.name, ep, ok, len(bodies)-1)
			}
			// A registered shadow scores every answered body, whichever
			// path answered it.
			want := 0
			if ph.shadow != "" {
				want = ok
			}
			if got := shadowRecords() - rec0; got != want {
				t.Errorf("%s/%s: %d shadow comparisons for %d answers, want %d", ph.name, ep, got, ok, want)
			}
			for i, s := range states {
				coverage[ph.name+"/"+ep+"/"+s]++
				if s != "malformed" {
					sent = append(sent, bodies[i])
				}
			}
		}
	}

	for _, ph := range phases {
		for _, ep := range endpoints {
			for _, s := range []string{"cold", "full", "cheap", "malformed"} {
				if coverage[ph.name+"/"+ep+"/"+s] == 0 {
					t.Errorf("state %s/%s/%s never exercised", ph.name, ep, s)
				}
			}
		}
	}
}
