package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

func TestRequestIDAdoptsTruncatesOrMints(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	minted := RequestID(req)
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(minted) {
		t.Fatalf("minted ID %q is not 16 hex digits", minted)
	}
	if again := RequestID(req); again == minted {
		t.Fatalf("two mints returned the same ID %q", again)
	}

	req.Header.Set("X-Request-ID", "client-42")
	if got := RequestID(req); got != "client-42" {
		t.Fatalf("adopted ID = %q, want client-42", got)
	}
	exact := strings.Repeat("a", MaxRequestIDLen)
	req.Header.Set("X-Request-ID", exact)
	if got := RequestID(req); got != exact {
		t.Fatalf("an ID of exactly %d bytes was changed to %d bytes", MaxRequestIDLen, len(got))
	}
	req.Header.Set("X-Request-ID", exact+"overflow")
	if got := RequestID(req); got != exact {
		t.Fatalf("oversized ID kept %d bytes, want the first %d", len(got), MaxRequestIDLen)
	}
}

func TestStartFinishRequest(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/v1/predict/matrix", nil)
	req.Header.Set(TraceHopHeader, "2")
	req.Header.Set(TraceKeepHeader, "1")
	ctx := WithTraceID(context.Background(), "req-1")

	// A nil store is tracing turned off: no span, and finishing is a no-op.
	var off *TraceStore
	if NewTraceStore(TraceConfig{Capacity: -1}) != nil {
		t.Fatal("a negative capacity built a store")
	}
	gotCtx, root := off.StartRequest(ctx, req, "/v1/predict/matrix")
	if root != nil || gotCtx != ctx {
		t.Fatal("a nil store opened a root span")
	}
	off.FinishRequest(root, req, http.StatusOK)

	ts := NewTraceStore(TraceConfig{SampleEvery: -1})
	ctx, root = ts.StartRequest(ctx, req, "/v1/predict/matrix")
	_, child := StartChild(ctx, "parse")
	child.End()
	ts.FinishRequest(root, req, http.StatusOK, KeepHedged)
	e := ts.Get("req-1")
	if e == nil {
		t.Fatal("a request carrying X-Trace-Keep was not retained")
	}
	if want := []string{KeepHedged, KeepRequested}; strings.Join(e.Reasons, ",") != strings.Join(want, ",") {
		t.Fatalf("reasons = %v, want %v", e.Reasons, want)
	}
	if e.Root.Metrics["hop"] != 2 || e.Root.Metrics["status"] != http.StatusOK {
		t.Fatalf("root metrics = %v, want hop 2 and status 200", e.Root.Metrics)
	}
	if len(e.Root.Children) != 1 || e.Root.Children[0].Name != "parse" {
		t.Fatalf("root children = %+v, want the parse span", e.Root.Children)
	}
}

// traceServer serves ServeTraces over a real listener, so request IDs
// go through URL parsing and the mux exactly as in production.
func traceServer(t *testing.T, ts *TraceStore, view func(*http.Request, *TraceEntry) any) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/v1/admin/trace", ServeTraces(ts, view))
	mux.Handle("/v1/admin/trace/", ServeTraces(ts, view))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("GET %s: Content-Type %q", url, resp.Header.Get("Content-Type"))
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestServeTracesListGetAndView(t *testing.T) {
	ts := NewTraceStore(TraceConfig{SampleEvery: 1})
	reserved := []string{"a?b", "a#b", "x/../y", "100%", "a b", "a/b"}
	for i, id := range append([]string{"a"}, reserved...) {
		root := mkRoot(id, time.Millisecond)
		root.Start = time.Unix(int64(i), 0)
		ts.Offer(root, http.StatusOK)
	}
	base := traceServer(t, ts, nil)

	var list TraceList
	if code := getJSON(t, base+TracePath(""), &list); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if list.Count != 7 || len(list.Traces) != 7 || list.Traces[0].TraceID != "a/b" {
		t.Fatalf("list = %+v, want 7 traces newest first", list)
	}
	if code := getJSON(t, base+TracePath("")+"/", nil); code != http.StatusOK {
		t.Fatalf("list with a trailing slash: %d", code)
	}
	for _, id := range reserved {
		var e TraceEntry
		if code := getJSON(t, base+TracePath(id), &e); code != http.StatusOK {
			t.Fatalf("GET %s: %d, want 200", TracePath(id), code)
		}
		if e.TraceID != id {
			t.Fatalf("GET %s answered trace %q, want %q", TracePath(id), e.TraceID, id)
		}
	}
	if code := getJSON(t, base+TracePath("absent"), nil); code != http.StatusNotFound {
		t.Fatalf("unknown ID: %d, want 404", code)
	}

	viewed := traceServer(t, ts, func(r *http.Request, e *TraceEntry) any {
		return map[string]string{"viewed": e.TraceID}
	})
	var v map[string]string
	if code := getJSON(t, viewed+TracePath("a?b"), &v); code != http.StatusOK || v["viewed"] != "a?b" {
		t.Fatalf("view answered %d %v", code, v)
	}

	off := traceServer(t, nil, nil)
	for _, path := range []string{TracePath(""), TracePath("a")} {
		if code := getJSON(t, off+path, nil); code != http.StatusNotImplemented {
			t.Fatalf("GET %s with tracing off: %d, want 501", path, code)
		}
	}
}

func TestCheckBearer(t *testing.T) {
	check := func(token, header string) (*httptest.ResponseRecorder, bool) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/admin/x", nil)
		if header != "" {
			req.Header.Set("Authorization", header)
		}
		return rec, CheckBearer(rec, req, token, "test admin")
	}
	for _, c := range []struct{ token, header, msg string }{
		{"", "", "admin API disabled"},
		{"", "Bearer ", "admin API disabled"},
		{"s3cret", "", "invalid admin token"},
		{"s3cret", "Bearer wrong", "invalid admin token"},
		{"s3cret", "Bearer s3cret-and-more", "invalid admin token"},
	} {
		rec, ok := check(c.token, c.header)
		if ok || rec.Code != http.StatusUnauthorized {
			t.Fatalf("token %q, header %q: allowed %v, status %d; want 401", c.token, c.header, ok, rec.Code)
		}
		if rec.Header().Get("WWW-Authenticate") != `Bearer realm="test admin"` {
			t.Fatalf("challenge = %q", rec.Header().Get("WWW-Authenticate"))
		}
		var body ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body.Error, c.msg) {
			t.Fatalf("token %q: body %q, want %q", c.token, rec.Body.String(), c.msg)
		}
	}
	rec, ok := check("s3cret", "Bearer s3cret")
	if !ok || rec.Body.Len() != 0 || rec.Header().Get("WWW-Authenticate") != "" {
		t.Fatalf("right token: allowed %v, wrote %q", ok, rec.Body.String())
	}
}

func TestAllowMethod(t *testing.T) {
	rec := httptest.NewRecorder()
	if !AllowMethod(rec, httptest.NewRequest(http.MethodPost, "/", nil), http.MethodPost) || rec.Body.Len() != 0 {
		t.Fatal("the allowed method was refused")
	}
	rec = httptest.NewRecorder()
	if AllowMethod(rec, httptest.NewRequest(http.MethodGet, "/", nil), http.MethodPost) {
		t.Fatal("GET allowed where POST is required")
	}
	var body ErrorBody
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodPost ||
		json.Unmarshal(rec.Body.Bytes(), &body) != nil || body.Error != "use POST" {
		t.Fatalf("405 answer = %d, Allow %q, body %q", rec.Code, rec.Header().Get("Allow"), rec.Body.String())
	}
}

// TestRunServerDrainsInFlight cancels the context while a request is in
// its handler: the listener closes at once, the request still gets its
// answer, and RunServer returns nil.
func TestRunServerDrainsInFlight(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		WriteJSON(w, http.StatusOK, map[string]string{"status": "drained"})
	})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bound := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- RunServer(ctx, "127.0.0.1:0", srv, func(b string) { bound <- b }) }()
	addr := <-bound
	if srv.ReadHeaderTimeout != 5*time.Second {
		t.Fatalf("ReadHeaderTimeout = %v, want the 5s default", srv.ReadHeaderTimeout)
	}

	type answer struct {
		status int
		body   string
		err    error
	}
	answered := make(chan answer, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/")
		if err != nil {
			answered <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		answered <- answer{resp.StatusCode, string(b), err}
	}()
	<-entered
	cancel()
	// Shutdown closes the listener before it waits for the handler.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("the listener stayed open after cancel")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("RunServer returned %v with a request in flight", err)
	default:
	}
	close(release)
	a := <-answered
	if a.err != nil || a.status != http.StatusOK || !strings.Contains(a.body, "drained") {
		t.Fatalf("in-flight request: %d %q %v, want 200 drained", a.status, a.body, a.err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunServer returned %v after draining", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunServer did not return after draining")
	}
}

func TestRunServerListenError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	err = RunServer(context.Background(), ln.Addr().String(), &http.Server{}, func(string) {
		t.Error("ready called for a listener that failed")
	})
	if err == nil || !strings.Contains(err.Error(), "listening on") {
		t.Fatalf("RunServer on a taken port = %v", err)
	}
}

// TestReadBodyMatchesReadAll holds ReadBody to its contract: whatever
// the body, its declared length, the bound and the way the reader
// hands out bytes, it returns what io.ReadAll(io.LimitReader(body,
// bound+1)) returns — the same bytes, a non-nil slice, the same error.
func TestReadBodyMatchesReadAll(t *testing.T) {
	errCut := errors.New("connection cut")
	readers := []struct {
		name string
		// upTo skips bodies longer than this: byte-at-a-time reads of
		// the large bodies add run time, not growth steps, which the
		// half reader already takes in short reads.
		upTo int
		wrap func([]byte) io.Reader
	}{
		{"whole", math.MaxInt, func(b []byte) io.Reader { return bytes.NewReader(b) }},
		{"half", math.MaxInt, func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
		{"one-byte", 513, func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
		{"data-with-eof", math.MaxInt, func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }},
		{"cut", math.MaxInt, func(b []byte) io.Reader {
			return io.MultiReader(bytes.NewReader(b), iotest.ErrReader(errCut))
		}},
	}
	failures := 0
	for _, n := range []int{0, 1, 511, 512, 513, 225_000, 1<<20 - 1, 1 << 20, 1<<20 + 1, 3 << 20} {
		if RaceEnabled && n > 225_000 {
			// One goroutine shares nothing for the race detector to see,
			// and its copy instrumentation takes ~20 s over these bodies.
			continue
		}
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i*7 + i>>9)
		}
		var bounds []int64
		for _, b := range []int64{int64(n) / 2, int64(n) - 1, int64(n), int64(n) + 1} {
			if b >= 0 && (len(bounds) == 0 || b != bounds[len(bounds)-1]) {
				bounds = append(bounds, b)
			}
		}
		for _, bound := range bounds {
			declared := []int64{-1, 0, int64(n) / 2, int64(n), int64(n) + 1000, bound + 1000, math.MaxInt64}
			for _, cl := range declared {
				for _, rd := range readers {
					if n > rd.upTo {
						continue
					}
					want, wantErr := io.ReadAll(io.LimitReader(rd.wrap(body), bound+1))
					req := &http.Request{Body: io.NopCloser(rd.wrap(body)), ContentLength: cl}
					got, gotErr := ReadBody(req, bound)
					if !bytes.Equal(got, want) || (got == nil) != (want == nil) || gotErr != wantErr {
						t.Errorf("body %d B, Content-Length %d, bound %d, %s reader: got %d B (nil %v) err %v, want %d B (nil %v) err %v",
							n, cl, bound, rd.name, len(got), got == nil, gotErr, len(want), want == nil, wantErr)
						if failures++; failures > 10 {
							t.FailNow()
						}
					}
				}
			}
		}
	}
}

// bytesPerRead reports the heap bytes one ReadBody call allocates for
// a request declaring declared bytes that carries body, averaged over
// a few calls.
func bytesPerRead(t *testing.T, body []byte, declared, bound int64) uint64 {
	t.Helper()
	br := bytes.NewReader(body)
	req := &http.Request{Body: io.NopCloser(br), ContentLength: declared}
	const runs = 16
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		br.Reset(body)
		if got, err := ReadBody(req, bound); err != nil || len(got) != len(body) {
			t.Fatalf("ReadBody = %d B, %v; want %d B", len(got), err, len(body))
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestReadBodyDeclaredLengthBoundsAllocation: a Content-Length header
// alone buys at most the 1 MiB first buffer. A request declaring 64 MiB
// that sends 10 bytes must not make a hop allocate 64 MiB.
func TestReadBodyDeclaredLengthBoundsAllocation(t *testing.T) {
	const most = 1<<20 + 64<<10
	if got := bytesPerRead(t, []byte("0123456789"), 64<<20, 64<<20); got > most {
		t.Fatalf("a request declaring 64 MiB and sending 10 B allocated %d B per read, want <= %d", got, most)
	}
}

// TestReadBodyAllocs guards the point of ReadBody: a 225 KB body that
// declares its length is read in exactly one allocation, of its own
// size plus the EOF byte.
func TestReadBodyAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("the race runtime adds its own allocations")
	}
	body := make([]byte, 225_000)
	br := bytes.NewReader(body)
	req := &http.Request{Body: io.NopCloser(br), ContentLength: int64(len(body))}
	allocs := testing.AllocsPerRun(20, func() {
		br.Reset(body)
		if got, err := ReadBody(req, 64<<20); err != nil || len(got) != len(body) {
			t.Fatalf("ReadBody = %d B, %v; want %d B", len(got), err, len(body))
		}
	})
	if allocs != 1 {
		t.Fatalf("a %d B body with its Content-Length took %v allocations, want 1", len(body), allocs)
	}
	if got, limit := bytesPerRead(t, body, int64(len(body)), 64<<20), uint64(len(body))+8<<10; got > limit {
		t.Fatalf("reading a %d B body allocated %d B, want <= %d", len(body), got, limit)
	}
}
