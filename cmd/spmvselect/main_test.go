package main

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sparse"
)

// TestCmdExportWritesReadableMatrices also holds the ingest fast
// path's contract on exported files: the streaming reader and the
// byte-slice reader must give the same verdict and bitwise-identical
// CSRs (the parse suite's check) on every one.
func TestCmdExportWritesReadableMatrices(t *testing.T) {
	ps := sparse.GetParseScratch()
	defer sparse.PutParseScratch(ps)
	for _, args := range [][]string{{"-count", "7", "-seed", "2"}, {"-count", "2", "-seed", "4"}} {
		dir := t.TempDir()
		if err := cmdExport(append([]string{"-dir", dir}, args...)); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) == 0 {
			t.Fatalf("export %v wrote no matrices", args)
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".mtx") {
				t.Errorf("unexpected file %s", e.Name())
				continue
			}
			body, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := parseParity(body, ps); err != nil {
				t.Errorf("export %v: %s: %v", args, e.Name(), err)
			}
		}
	}
}

func TestCmdExportRequiresDir(t *testing.T) {
	if err := cmdExport(nil); err == nil {
		t.Error("missing -dir accepted")
	}
}

func TestCmdTableValidatesNumber(t *testing.T) {
	if err := cmdTable([]string{"-n", "0"}, false); err == nil {
		t.Error("table 0 accepted")
	}
	if err := cmdTable([]string{"-n", "10"}, false); err == nil {
		t.Error("table 10 accepted")
	}
}

func TestCmdTableStatic(t *testing.T) {
	// Tables 1 and 2 are static catalogues: no corpus is built, so this
	// stays fast.
	if err := cmdTable([]string{"-n", "1"}, false); err != nil {
		t.Fatal(err)
	}
	if err := cmdTable([]string{"-n", "2"}, false); err != nil {
		t.Fatal(err)
	}
}

func TestCmdPredict(t *testing.T) {
	if testing.Short() {
		t.Skip("predict trains a corpus-backed selector")
	}
	dir := t.TempDir()
	if err := cmdExport([]string{"-dir", dir, "-count", "3", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("export produced nothing: %v", err)
	}
	mtx := filepath.Join(dir, entries[0].Name())
	if err := cmdPredict([]string{"-mtx", mtx, "-arch", "Volta", "-quick"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPredict([]string{"-mtx", mtx, "-arch", "Ampere"}); err == nil {
		t.Error("unknown architecture accepted")
	}
	if err := cmdPredict([]string{"-arch", "Volta"}); err == nil {
		t.Error("missing -mtx accepted")
	}
}

func TestCmdCPUBench(t *testing.T) {
	if testing.Short() {
		t.Skip("cpubench measures real kernels")
	}
	dir := t.TempDir()
	if err := cmdExport([]string{"-dir", dir, "-count", "24", "-seed", "9"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCPUBench([]string{"-dir", dir, "-trials", "1", "-clusters", "8"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCPUBench(nil); err == nil {
		t.Error("missing -dir accepted")
	}
	if err := cmdCPUBench([]string{"-dir", t.TempDir()}); err == nil {
		t.Error("empty directory accepted")
	}
}

// TestCmdTrainServeRequestRoundTrip walks the full deployment story
// in-process: train a model, save it, predict from the saved file,
// serve it over HTTP, query it with the request subcommand, and shut
// the server down with a real SIGTERM.
func TestCmdTrainServeRequestRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a corpus-backed model")
	}
	dir := t.TempDir()
	model := filepath.Join(dir, "model.gob")
	if err := cmdTrain([]string{"-save", model, "-quick", "-clusters", "16"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrain([]string{"-quick"}); err == nil {
		t.Error("missing -save accepted")
	}
	if err := cmdTrain([]string{"-save", model, "-quick", "-model", "cnn"}); err == nil {
		t.Error("unknown model accepted")
	}

	if err := cmdExport([]string{"-dir", dir, "-count", "3", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
	var mtx string
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".mtx") {
			mtx = filepath.Join(dir, e.Name())
			break
		}
	}
	if mtx == "" {
		t.Fatal("no exported matrix")
	}

	// Prediction from the saved artifact, no retraining.
	if err := cmdPredict([]string{"-mtx", mtx, "-model", model}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPredict([]string{"-mtx", mtx, "-model", mtx}); err == nil {
		t.Error("a .mtx file accepted as a model")
	}

	// Serve it; the portfile tells us the bound port of 127.0.0.1:0.
	portFile := filepath.Join(dir, "port")
	done := make(chan error, 1)
	go func() {
		done <- cmdServe([]string{"-model", model, "-addr", "127.0.0.1:0", "-portfile", portFile})
	}()
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatal("server never wrote the portfile")
		}
		if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
			addr = string(b)
			break
		}
		select {
		case err := <-done:
			t.Fatalf("serve exited early: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
	}

	if err := cmdRequest([]string{"-addr", addr, "-mtx", mtx}); err != nil {
		t.Errorf("matrix request: %v", err)
	}
	// A 3-feature vector must come back as a 400, which request reports
	// as an error.
	if err := cmdRequest([]string{"-addr", addr, "-features", "1,2,3"}); err == nil {
		t.Error("wrong-dimension feature request succeeded")
	}
	if err := cmdRequest([]string{"-addr", addr}); err == nil {
		t.Error("request without a payload accepted")
	}
	if err := cmdRequest([]string{"-mtx", mtx}); err == nil {
		t.Error("request without -addr accepted")
	}

	// Graceful shutdown on a real signal (cmdServe catches it, so the
	// test binary survives).
	syscall.Kill(os.Getpid(), syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after SIGTERM", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down after SIGTERM")
	}
}

// TestCmdTrainClassifier saves a supervised artifact and predicts from
// it.
func TestCmdTrainClassifier(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a corpus-backed model")
	}
	dir := t.TempDir()
	model := filepath.Join(dir, "knn.gob")
	if err := cmdTrain([]string{"-save", model, "-quick", "-model", "knn", "-arch", "Volta"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdExport([]string{"-dir", dir, "-count", "2", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".mtx") {
			if err := cmdPredict([]string{"-mtx", filepath.Join(dir, e.Name()), "-model", model}); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("no exported matrix")
}

// TestCmdObsReportRoundTrip exercises the -obs flag end-to-end on the
// cheapest instrumented command (table -n 1 binds the debug server,
// installs the sink and writes a report without building a corpus),
// then reads the report back through the report subcommand.
func TestCmdObsReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	if err := cmdTable([]string{"-n", "1", "-obs", "127.0.0.1:0", "-report", path}, false); err != nil {
		t.Fatal(err)
	}
	if obs.Enabled() {
		t.Error("observability still enabled after the run finished")
	}
	r, err := obs.ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Command != "table" {
		t.Errorf("report command = %q, want table", r.Command)
	}
	if err := cmdReport([]string{"-in", path}); err != nil {
		t.Errorf("report: %v", err)
	}
	if err := cmdReport([]string{"-in", path, "-text"}); err != nil {
		t.Errorf("report -text: %v", err)
	}
	if err := cmdReport([]string{"-in", filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("missing report file accepted")
	}
}

// TestCmdCPUBenchQuickObs runs the measured CPU pipeline with -quick
// and -obs and checks the run report carries the per-stage spans and
// kernel-throughput histograms the acceptance criteria name.
func TestCmdCPUBenchQuickObs(t *testing.T) {
	if testing.Short() {
		t.Skip("cpubench measures real kernels")
	}
	dir := t.TempDir()
	if err := cmdExport([]string{"-dir", dir, "-count", "24", "-seed", "9"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := cmdCPUBench([]string{"-dir", dir, "-quick", "-obs", "127.0.0.1:0", "-report", path}); err != nil {
		t.Fatal(err)
	}
	r, err := obs.ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.FindSpan("cpubench/measure") == nil {
		t.Error("report has no cpubench/measure span")
	}
	if r.FindSpan("cpubench/train") == nil {
		t.Error("report has no cpubench/train span")
	}
	h, ok := r.Metrics.Histograms["spmv/CSR/rows_per_s"]
	if !ok || h.Count == 0 {
		t.Errorf("report has no CSR kernel-throughput samples: %+v", h)
	}
	if r.Metrics.Counters["cpubench/measured"] == 0 {
		t.Error("cpubench/measured counter is zero")
	}
}
