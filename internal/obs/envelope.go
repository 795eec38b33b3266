package obs

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// The request envelope shared by the serve and proxy tiers: the request
// ID, the bounded body read, the always-on trace root and its
// trace-store offer, the trace admin routes, the admin bearer check,
// JSON replies and the listen/serve/drain loop. Each tier keeps only
// what is its own — its routes, its metrics and its background loops.

// MaxRequestIDLen bounds a caller-supplied X-Request-ID, so a huge
// header cannot bloat logs, span records and feedback tables.
const MaxRequestIDLen = 128

// RequestID returns r's request ID: its X-Request-ID header, truncated
// to MaxRequestIDLen bytes, or a freshly minted 16-hex-digit ID when the
// header is absent. The ID is also the trace ID, so every hop that
// adopts it — proxy spans, replica spans, access logs — shares one key.
func RequestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); id != "" {
		return id[:min(len(id), MaxRequestIDLen)]
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Tracing is diagnostics, not authentication: a constant keeps
		// requests flowing should the randomness source ever fail.
		return "rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// maxFirstBodyBuffer caps the buffer a declared Content-Length buys
// before any byte arrives, so a header alone never makes a hop allocate
// more than this; past it, memory follows the bytes actually received.
const maxFirstBodyBuffer = 1 << 20

// ReadBody reads r's body up to bound+1 bytes and returns exactly what
// io.ReadAll(io.LimitReader(r.Body, bound+1)) returns, errors included:
// a result longer than bound means the body exceeds it. The first
// buffer is ContentLength+1 bytes (capped at 1 MiB and at bound+1), so
// a body of its declared length is read in one allocation, the +1
// taking the EOF read without growing; a body of unknown length starts
// at 512 bytes. The buffer doubles as bytes arrive, up to bound+1.
func ReadBody(r *http.Request, bound int64) ([]byte, error) {
	limit := bound + 1
	size := min(512, limit)
	if r.ContentLength >= 0 {
		// min before +1: a declared length of MaxInt64 must not wrap.
		size = min(r.ContentLength, bound) + 1
	}
	size = min(size, maxFirstBodyBuffer)
	lr := io.LimitedReader{R: r.Body, N: limit}
	b := make([]byte, 0, size)
	for {
		n, err := lr.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) && int64(cap(b)) < limit {
			b = append(make([]byte, 0, min(2*int64(cap(b)), limit)), b...)
		}
	}
}

// StartRequest opens the always-on root span named name for one request
// whose context already carries its trace ID, recording the X-Trace-Hop
// depth the request arrived at. A nil store means tracing is off: ctx
// comes back unchanged with a nil span, which FinishRequest ignores.
func (ts *TraceStore) StartRequest(ctx context.Context, r *http.Request, name string) (context.Context, *Span) {
	if ts == nil {
		return ctx, nil
	}
	ctx, root := StartAlways(ctx, name)
	if hop, err := strconv.Atoi(r.Header.Get(TraceHopHeader)); err == nil && hop > 0 {
		root.SetMetric("hop", float64(hop))
	}
	return ctx, root
}

// FinishRequest ends a root span from StartRequest, stamps the status
// the request was answered with on it, and offers the tree to the store
// with the caller's forced keep reasons, plus KeepRequested when the
// request carried X-Trace-Keep.
func (ts *TraceStore) FinishRequest(root *Span, r *http.Request, status int, forced ...string) {
	if ts == nil || root == nil {
		return
	}
	root.SetMetric("status", float64(status))
	if r.Header.Get(TraceKeepHeader) != "" {
		forced = append(forced, KeepRequested)
	}
	ts.Offer(root.EndData(), status, forced...)
}

// traceRoute is the admin route of the retained traces.
const traceRoute = "/v1/admin/trace"

// TraceList is the answer of the trace list route.
type TraceList struct {
	Count  int            `json:"count"`
	Traces []TraceSummary `json:"traces"`
}

// TracePath returns the admin route of the trace retained under id, or
// of the list when id is empty. The ID is percent-escaped, so one
// holding reserved URL characters (?, #, %, /) reaches ServeTraces
// whole instead of as a query, a fragment or another path.
func TracePath(id string) string {
	if id == "" {
		return traceRoute
	}
	return traceRoute + "/" + url.PathEscape(id)
}

// ServeTraces answers the trace admin routes from ts: /v1/admin/trace
// lists the retained traces newest first, and TracePath(id) returns the
// one retained under id — as the stored entry, or as view(r, entry)
// when view is non-nil. Unknown IDs answer 404, and a nil store (tracing
// off) answers 501 so an operator can tell "nothing retained" from "not
// tracing". The method and token checks are the caller's.
func ServeTraces(ts *TraceStore, view func(*http.Request, *TraceEntry) any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if ts == nil {
			WriteJSON(w, http.StatusNotImplemented, ErrorBody{Error: "tracing disabled (-trace -1)"})
			return
		}
		id := strings.TrimPrefix(strings.TrimPrefix(r.URL.Path, traceRoute), "/")
		if id == "" {
			list := ts.List()
			if list == nil {
				list = []TraceSummary{}
			}
			WriteJSON(w, http.StatusOK, TraceList{Count: len(list), Traces: list})
			return
		}
		e := ts.Get(id)
		if e == nil {
			WriteJSON(w, http.StatusNotFound,
				ErrorBody{Error: "no retained trace with ID " + id + " (evicted, sampled out, or never seen)"})
			return
		}
		if view != nil {
			WriteJSON(w, http.StatusOK, view(r, e))
			return
		}
		WriteJSON(w, http.StatusOK, e)
	}
}

// CheckBearer reports whether r carries token as its bearer token and,
// when it does not, answers 401 with a WWW-Authenticate challenge for
// realm. The comparison is constant-time over SHA-256 digests, so
// neither the token's length nor a matching prefix leaks through timing.
// An empty token authorizes nothing: admin surfaces are opt-in, never
// accidentally open.
func CheckBearer(w http.ResponseWriter, r *http.Request, token, realm string) bool {
	if token != "" {
		got := sha256.Sum256([]byte(strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")))
		want := sha256.Sum256([]byte(token))
		if subtle.ConstantTimeCompare(got[:], want[:]) == 1 {
			return true
		}
	}
	w.Header().Set("WWW-Authenticate", `Bearer realm="`+realm+`"`)
	msg := "invalid admin token"
	if token == "" {
		msg = "admin API disabled: start with -admin-token"
	}
	WriteJSON(w, http.StatusUnauthorized, ErrorBody{Error: msg})
	return false
}

// AllowMethod reports whether r uses method and, when it does not,
// answers 405 with an Allow header naming it.
func AllowMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	WriteJSON(w, http.StatusMethodNotAllowed, ErrorBody{Error: "use " + method})
	return false
}

// ErrorBody is the JSON error answer of every serve and proxy route.
type ErrorBody struct {
	Error string `json:"error"`
}

// WriteJSON answers status with v encoded as one line of JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.Marshal(v)
	if err != nil {
		// v is always one of the tiers' own response types; never crash
		// a handler over one that does not encode.
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
		return
	}
	w.Write(append(data, '\n'))
}

// RunServer serves srv on addr until ctx is cancelled, then shuts down
// gracefully, draining in-flight requests for up to 5 seconds. ready,
// when non-nil, receives the bound address once the listener is up —
// how callers learn the port of ":0". srv carries the handler and its
// read and write timeouts; a zero ReadHeaderTimeout becomes 5 seconds.
func RunServer(ctx context.Context, addr string, srv *http.Server, ready func(bound string)) error {
	if srv.ReadHeaderTimeout == 0 {
		srv.ReadHeaderTimeout = 5 * time.Second
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", addr, err)
	}
	if ready != nil {
		ready(ln.Addr().String())
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}
