package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/proxy"
	"repro/internal/serve"
)

// replica is one real serve.Server over HTTP hosting one artifact. Its
// prediction routes wait delay before answering, so a test can make it
// the slow ring owner.
type replica struct {
	art   *serve.Artifact
	hash  string
	srv   *httptest.Server
	delay atomic.Int64 // nanoseconds
}

func startReplica(t *testing.T, art *serve.Artifact, cfg serve.Config) *replica {
	t.Helper()
	s, err := serve.NewServer(art, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := &replica{art: art}
	if rep.hash, err = serve.ArtifactHash(art); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	rep.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d := rep.delay.Load(); d > 0 && strings.HasPrefix(r.URL.Path, "/v1/predict/") {
			select {
			case <-time.After(time.Duration(d)):
			case <-r.Context().Done():
				return // the proxy abandoned this leg
			}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(rep.srv.Close)
	return rep
}

func (r *replica) addr() string { return strings.TrimPrefix(r.srv.URL, "http://") }

// startProxy fronts reps with a proxy whose ring already holds them all,
// served over HTTP, and returns it with its base URL.
func startProxy(t *testing.T, cfg proxy.Config, reps ...*replica) (*proxy.Proxy, string) {
	t.Helper()
	for _, r := range reps {
		cfg.Replicas = append(cfg.Replicas, r.addr())
	}
	p, err := proxy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.CheckAll(context.Background())
	if st := p.Fleet(); st.RingSize != len(reps) {
		t.Fatalf("ring holds %d of %d healthy replicas", st.RingSize, len(reps))
	}
	srv := httptest.NewServer(p.Handler())
	t.Cleanup(srv.Close)
	return p, srv.URL
}

// post sends body to url, with its Content-Length or, when chunked,
// with none, and returns the answer and its body.
func post(t *testing.T, url string, body []byte, chunked bool) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	if chunked {
		req.ContentLength = -1
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading the answer: %v", url, err)
	}
	return resp, data
}

// TestProxiedPathsMatchReference sends TestServingPathsMatchReference's
// bodies through proxy.Proxy to two real replicas, one serving a cascade
// artifact and one a plain artifact. A share of the bodies travels
// chunked, with no Content-Length, and some go straight to a replica,
// so both hops read bodies of known and unknown length. Across a
// steady phase, a phase whose ring owner is slow enough to be hedged,
// and a phase after one replica's listener closes, every answer must
// equal the reference pipeline on the artifact its X-Model-Hash names,
// and every malformed body must be rejected.
func TestProxiedPathsMatchReference(t *testing.T) {
	casc, ms := serve.CascadeArtifact(t, 0.6)
	_, best := serve.LabelledCorpus(t, "Turing")
	reps := []*replica{
		startReplica(t, casc, serve.Config{}),
		startReplica(t, serve.TrainArtifact(t, ms, best, 6, 99), serve.Config{}),
	}
	arts := map[string]*serve.Artifact{}
	hostedAt := map[string]string{}
	for _, r := range reps {
		arts[r.hash] = r.art
		hostedAt[r.addr()] = r.hash
	}
	if len(arts) != len(reps) {
		t.Fatal("the replicas' artifacts share a hash")
	}
	p, front := startProxy(t, proxy.Config{HedgeAfter: 30 * time.Millisecond, Timeout: 20 * time.Second}, reps...)
	// The failover phase goes through a front door that never hedges, so
	// the closed replica is reached only as a ring owner, whose failure
	// fails over. A hedge to it would eject it without a retry.
	p2, front2 := startProxy(t, proxy.Config{HedgeAfter: time.Minute, Timeout: 20 * time.Second}, reps...)
	gen := serve.NewParityBodies(20212, ms)

	// modelFor names the artifact an answer came from, checking that the
	// replica the proxy credits hosts it.
	modelFor := func(where string, resp *http.Response) *serve.Artifact {
		t.Helper()
		hash := resp.Header.Get("X-Model-Hash")
		art := arts[hash]
		if art == nil {
			t.Errorf("%s: answered under unknown X-Model-Hash %q", where, hash)
		}
		if by := resp.Header.Get("X-Proxy-Replica"); by != "" && hostedAt[by] != hash {
			t.Errorf("%s: %s answered under X-Model-Hash %q but hosts %q", where, by, hash, hostedAt[by])
		}
		return art
	}
	// single sends one body to base, checks the answer and returns it.
	single := func(where, base string, body []byte, chunked bool) *http.Response {
		t.Helper()
		resp, data := post(t, base+"/v1/predict/matrix", body, chunked)
		if _, err := serve.ReferenceAnswer(casc, body); err != nil {
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: status %d for a body the reference rejects (%v)", where, resp.StatusCode, err)
			}
			return resp
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d: %s", where, resp.StatusCode, data)
			return resp
		}
		art := modelFor(where, resp)
		if art == nil {
			return resp
		}
		var got serve.PredictResponse
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if want, _ := serve.ReferenceAnswer(art, body); got.Prediction != want {
			t.Errorf("%s: served %+v, reference (%s) answers %+v", where, got.Prediction, got.ModelHash, want)
		}
		return resp
	}
	// batch sends bodies as one text batch to base and checks every item.
	batch := func(where, base string, bodies [][]byte, chunked bool) {
		t.Helper()
		resp, data := post(t, base+"/v1/predict/batch", bytes.Join(bodies, nil), chunked)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d: %s", where, resp.StatusCode, data)
			return
		}
		art := modelFor(where, resp)
		var got serve.BatchResponse
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if len(got.Results) != len(bodies) || art == nil {
			t.Errorf("%s: %d results for %d bodies", where, len(got.Results), len(bodies))
			return
		}
		for i, it := range got.Results {
			want, err := serve.ReferenceAnswer(art, bodies[i])
			switch {
			case err != nil && it.Error == "":
				t.Errorf("%s[%d]: served %+v for a body the reference rejects (%v)", where, i, it.Prediction, err)
			case err == nil && (it.Error != "" || it.Prediction != want):
				t.Errorf("%s[%d]: served %+v (error %q), reference answers %+v", where, i, it.Prediction, it.Error, want)
			}
		}
	}
	// phase sends at least n fresh bodies through the proxy at base,
	// every third one chunked, and goes on until done reports true (at
	// most 40), then a repeat of an earlier body, and malformed bodies and
	// text batches with and without a length.
	var sent [][]byte
	phase := func(name, base string, n int, done func() bool) {
		t.Helper()
		for i := 0; i < 40 && (i < n || (done != nil && !done())); i++ {
			body := gen.Body()
			single(fmt.Sprintf("%s[%d]", name, i), base, body, i%3 == 0)
			sent = append(sent, body)
		}
		single(name+"/repeat", base, sent[len(sent)/2], false)
		single(name+"/malformed", base, gen.Malformed(), false)
		single(name+"/malformed-chunked", base, gen.Malformed(), true)
		batch(name+"/batch", base, [][]byte{gen.Body(), gen.Malformed(), gen.Body()}, false)
		batch(name+"/batch-chunked", base, [][]byte{gen.Body(), gen.Body()}, true)
	}

	phase("steady", front, 6, nil)
	for i, r := range reps {
		for k := 0; k < 3; k++ {
			where := fmt.Sprintf("direct%d[%d]", i, k)
			if got := single(where, r.srv.URL, gen.Body(), true).Header.Get("X-Model-Hash"); got != r.hash {
				t.Errorf("%s: replica answered under X-Model-Hash %q, hosts %q", where, got, r.hash)
			}
		}
		single(fmt.Sprintf("direct%d/malformed", i), r.srv.URL, gen.Malformed(), true)
	}

	// The first replica sits on every prediction far past HedgeAfter, so
	// each body it owns is answered by the hedge to the other.
	before := p.Fleet()
	reps[0].delay.Store(int64(time.Second))
	phase("hedge", front, 6, func() bool { return p.Fleet().HedgeWins > before.HedgeWins })
	reps[0].delay.Store(0)
	if st := p.Fleet(); st.Hedges <= before.Hedges || st.HedgeWins <= before.HedgeWins {
		t.Errorf("hedge phase: hedges %d -> %d, hedge wins %d -> %d; the slow owner was never hedged",
			before.Hedges, st.Hedges, before.HedgeWins, st.HedgeWins)
	}

	// The first replica's listener closes: the next body it owns fails in
	// transport and fails over to the survivor.
	before = p2.Fleet()
	reps[0].srv.Listener.Close()
	reps[0].srv.CloseClientConnections()
	phase("failover", front2, 6, func() bool { return p2.Fleet().Retries > before.Retries })
	if st := p2.Fleet(); st.Retries <= before.Retries {
		t.Errorf("failover phase: retries %d -> %d; no request failed over", before.Retries, st.Retries)
	}
}

// cutPost writes a POST to base+path over a fresh connection, declaring
// declared bytes of body, or chunked when declared < 0, sends body and
// no more, half-closes the connection and returns the answer's status.
func cutPost(t *testing.T, base, path string, declared int, body []byte) int {
	t.Helper()
	addr := strings.TrimPrefix(base, "http://")
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	var req bytes.Buffer
	fmt.Fprintf(&req, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: text/plain\r\n", path, addr)
	if declared >= 0 {
		fmt.Fprintf(&req, "Content-Length: %d\r\n\r\n%s", declared, body)
	} else {
		// One chunk and no terminating zero-length chunk.
		fmt.Fprintf(&req, "Transfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n", len(body), body)
	}
	if _, err := conn.Write(req.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("%s%s: reading the answer to a cut body: %v", base, path, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestBodyReadStatusesAtBothHops: at the replica and at the proxy, a
// body cut short of its declared length (or of its chunk) answers 400,
// a body one byte over the bound answers 413 with or without a
// Content-Length, and a body of exactly the bound is read.
func TestBodyReadStatusesAtBothHops(t *testing.T) {
	const limit = 4096
	ms, best := serve.LabelledCorpus(t, "Turing")
	rep := startReplica(t, serve.TrainArtifact(t, ms, best, 6, 99), serve.Config{MaxBodyBytes: limit})
	_, front := startProxy(t, proxy.Config{MaxBodyBytes: limit}, rep)
	predict := []string{"/v1/predict/matrix", "/v1/predict/features", "/v1/predict/batch"}
	hops := []struct {
		name, base string
		paths      []string
	}{
		{"replica", rep.srv.URL, predict},
		// A static replica answers /v1/feedback 501 before reading the
		// body; the proxy reads it to find the replica to route it to.
		{"proxy", front, append(predict, "/v1/feedback")},
	}
	for _, hop := range hops {
		for _, path := range hop.paths {
			where := hop.name + " " + path
			if got := cutPost(t, hop.base, path, 1000, []byte("%%MatrixMa")); got != http.StatusBadRequest {
				t.Errorf("%s: body cut short of its Content-Length answered %d, want 400", where, got)
			}
			if got := cutPost(t, hop.base, path, -1, []byte("%%MatrixMa")); got != http.StatusBadRequest {
				t.Errorf("%s: chunked body cut short answered %d, want 400", where, got)
			}
			for _, chunked := range []bool{false, true} {
				resp, _ := post(t, hop.base+path, bytes.Repeat([]byte("x"), limit+1), chunked)
				if resp.StatusCode != http.StatusRequestEntityTooLarge {
					t.Errorf("%s (chunked %v): a body of %d bytes answered %d, want 413", where, chunked, limit+1, resp.StatusCode)
				}
				resp, _ = post(t, hop.base+path, bytes.Repeat([]byte("x"), limit), chunked)
				if resp.StatusCode == http.StatusRequestEntityTooLarge {
					t.Errorf("%s (chunked %v): a body of exactly %d bytes answered 413", where, chunked, limit)
				}
			}
		}
	}
}
