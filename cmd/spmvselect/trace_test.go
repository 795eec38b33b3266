package main

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// captureStdout runs f with os.Stdout redirected and returns what f
// wrote there along with f's error.
func captureStdout(t *testing.T, f func() error) ([]byte, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	ferr := f()
	os.Stdout = saved
	w.Close()
	return <-out, ferr
}

// TestCmdTraceFetchesReservedCharacterIDs: request IDs holding reserved
// URL characters are percent-escaped into the admin path, so `trace -id`
// fetches each one's own trace from a real server — not a 404, not the
// trace of the shorter ID before a ? or a #, and not a request that
// fails to build.
func TestCmdTraceFetchesReservedCharacterIDs(t *testing.T) {
	arch, _ := gpusim.ArchByName("Turing")
	items, err := dataset.Generate(dataset.Config{Seed: 5, BaseCount: 40, Scale: 0.3, DropELLFailures: true})
	if err != nil {
		t.Fatal(err)
	}
	var ms []*sparse.CSR
	var best []sparse.Format
	for _, it := range items {
		if meas := arch.Measure(it.Name, gpusim.NewProfile(it.Matrix)); meas.Feasible() {
			bf, _ := meas.BestFormat()
			ms, best = append(ms, it.Matrix), append(best, bf)
		}
	}
	sel, err := core.TrainSelector(ms, best, core.Options{NumClusters: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(serve.NewSemisupArtifact(sel.Model(), "Turing"),
		serve.Config{AdminToken: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	addr := strings.TrimPrefix(hs.URL, "http://")

	mtx := filepath.Join(t.TempDir(), "m.mtx")
	f, err := os.Create(mtx)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteMatrixMarket(f, ms[0]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reserved := []string{"a?b", "a#b", "x/../y", "100%", "a b", "a/b"}
	// "a" and "y" are retained too: a raw ID cut at its ? or # (or
	// cleaned as a path) would fetch one of them instead of failing.
	for _, id := range append([]string{"a", "y"}, reserved...) {
		if _, err := captureStdout(t, func() error {
			return cmdRequest([]string{"-addr", addr, "-mtx", mtx, "-request-id", id, "-keep-trace"})
		}); err != nil {
			t.Fatalf("request %q: %v", id, err)
		}
	}
	for _, id := range reserved {
		out, err := captureStdout(t, func() error {
			return cmdTrace([]string{"-addr", addr, "-id", id, "-token", "tok", "-json"})
		})
		if err != nil {
			t.Fatalf("trace -id %q: %v", id, err)
		}
		var e obs.TraceEntry
		if err := json.Unmarshal(out, &e); err != nil {
			t.Fatalf("trace -id %q: %v in %q", id, err, out)
		}
		if e.TraceID != id || e.Root == nil {
			t.Fatalf("trace -id %q fetched trace %q", id, e.TraceID)
		}
	}
}
