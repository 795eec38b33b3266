package main

// The model-persistence and serving subcommands: train fits the
// pipeline once and saves the artifact, serve hosts one artifact per
// target architecture behind the model registry (hot-swap on SIGHUP or
// /v1/admin/reload, shadow evaluation, promotion), request is the
// matching stdlib-only client (so smoke tests need no curl), and
// promote flips a shadow candidate to live through the admin API.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// labelledTrainingSet generates the synthetic corpus and labels each
// matrix with its best format on the target architecture, dropping
// matrices no format can hold.
func labelledTrainingSet(archName string, quick bool) ([]*sparse.CSR, []sparse.Format, gpusim.Arch, error) {
	arch, ok := gpusim.ArchByName(archName)
	if !ok {
		return nil, nil, arch, fmt.Errorf("unknown architecture %q (want Pascal, Volta or Turing)", archName)
	}
	items, err := dataset.Generate(options(quick).Dataset)
	if err != nil {
		return nil, nil, arch, err
	}
	var ms []*sparse.CSR
	var best []sparse.Format
	for _, it := range items {
		meas := arch.Measure(it.Name, gpusim.NewProfile(it.Matrix))
		if !meas.Feasible() {
			continue
		}
		bf, _ := meas.BestFormat()
		ms = append(ms, it.Matrix)
		best = append(best, bf)
	}
	return ms, best, arch, nil
}

// formatLabels converts best-format values to class indices in
// sparse.KernelFormats order.
func formatLabels(best []sparse.Format) []int {
	y := make([]int, len(best))
	for i, f := range best {
		for k, kf := range sparse.KernelFormats() {
			if kf == f {
				y[i] = k
			}
		}
	}
	return y
}

// cmdTrain fits a selector on the synthetic corpus and saves the full
// artifact — preprocessing chain, model, label mapping — for serve and
// predict -model.
func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	save := fs.String("save", "", "output model file (required)")
	archName := fs.String("arch", "Turing", "target architecture (Pascal, Volta, Turing)")
	model := fs.String("model", "semisup", `model: "semisup" (the paper's pipeline) or a supervised classifier (knn, tree, forest, logreg)`)
	clusters := fs.Int("clusters", 200, "number of K-Means clusters (semisup)")
	seed := fs.Int64("seed", 1, "training seed")
	quick := fs.Bool("quick", false, "train on the reduced corpus")
	cascade := fs.Bool("cascade", false, "distil a cheap-first cascade stage onto the artifact")
	cascadeTarget := fs.Float64("cascade-target-agreement", 0.95, "agreement with the full model the cascade threshold must reach on held-out data")
	cascadeModel := fs.String("cascade-model", "logreg", `cascade classifier: "logreg" or "forest"`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *save == "" {
		return fmt.Errorf("train: -save is required")
	}
	if *quick {
		// Explicit -clusters wins over the quick default.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["clusters"] {
			*clusters = 32
		}
	}
	ms, best, arch, err := labelledTrainingSet(*archName, *quick)
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	fmt.Fprintf(os.Stderr, "training %s on %d matrices labelled for %s...\n", *model, len(ms), arch.Name)

	x := features.Matrix(features.ExtractAll(ms))
	y := formatLabels(best)

	var art *serve.Artifact
	if *model == "semisup" {
		sel, err := core.TrainSelector(ms, best, core.Options{NumClusters: *clusters, Seed: *seed})
		if err != nil {
			return fmt.Errorf("train: %w", err)
		}
		art = serve.NewSemisupArtifact(sel.Model(), arch.Name)
	} else {
		art, err = serve.TrainClassifierArtifact(*model, arch.Name, x, y, *seed)
		if err != nil {
			return fmt.Errorf("train: %w", err)
		}
	}
	// The training distribution travels with the model so the registry
	// can monitor served traffic for drift against it.
	art.Baseline = serve.ComputeBaseline(x, y, sparse.NumKernelFormats)
	if *cascade {
		c, err := serve.TrainCascade(art, x, serve.CascadeOptions{
			Model:           *cascadeModel,
			TargetAgreement: *cascadeTarget,
			Seed:            *seed,
		})
		if err != nil {
			return fmt.Errorf("train: %w", err)
		}
		art.Cascade = c
		if c.Threshold > 1 {
			fmt.Fprintf(os.Stderr, "cascade: target agreement %.2f unattainable on %d held-out rows; stage disabled\n",
				c.TargetAgreement, c.HeldoutSize)
		} else {
			fmt.Fprintf(os.Stderr, "cascade: threshold %.3f, held-out agreement %.3f (target %.2f), hit rate %.3f\n",
				c.Threshold, c.HeldoutAgreement, c.TargetAgreement, c.HeldoutHitRate)
		}
	}
	if err := serve.SaveFile(*save, art); err != nil {
		return err
	}
	fmt.Printf("saved %s model (%s, %d features) to %s\n", art.Kind, arch.Name, art.InDim(), *save)
	return nil
}

// archPath is one arch=path pair from -models / -shadow, in flag
// order (the first -models entry becomes the default arch).
type archPath struct{ arch, path string }

// parseArchModels splits a comma-separated list of arch=path pairs.
func parseArchModels(flagName, spec string) ([]archPath, error) {
	var pairs []archPath
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		arch, path, ok := strings.Cut(part, "=")
		if !ok || strings.TrimSpace(arch) == "" || strings.TrimSpace(path) == "" {
			return nil, fmt.Errorf("%s: %q is not an arch=path pair", flagName, part)
		}
		pairs = append(pairs, archPath{strings.TrimSpace(arch), strings.TrimSpace(path)})
	}
	return pairs, nil
}

// cmdServe hosts saved models over HTTP behind the registry until
// SIGTERM or interrupt, then drains in-flight requests and exits.
// SIGHUP (or an authenticated POST /v1/admin/reload) re-reads every
// artifact file and atomically swaps in the ones whose bytes changed.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	model := fs.String("model", "", "single model file written by train -save; its trained arch becomes the only registry entry")
	models := fs.String("models", "", `comma-separated arch=path model files, e.g. "turing=t.gob,pascal=p.gob" (first entry is the default arch)`)
	shadowSpec := fs.String("shadow", "", `comma-separated arch=path candidate artifacts scored alongside the live model of the same arch`)
	defaultArch := fs.String("default-arch", "", "arch answering requests that name none (default: the first configured)")
	adminToken := fs.String("admin-token", "", "bearer token required by the /v1/admin/* endpoints (unset leaves them disabled: every call answers 401)")
	addr := fs.String("addr", ":8080", "listen address (:0 picks a free port)")
	portFile := fs.String("portfile", "", "write the bound address to this file once listening")
	maxConc := fs.Int("max-concurrent", 0, "bound on in-flight predictions (0 = one per CPU)")
	maxBatch := fs.Int("max-batch", 0, "max matrices per /v1/predict/batch request (0 = 64)")
	featMemo := fs.Int("feat-memo", 0, "feature-vector memo capacity in entries (0 = 4096, negative disables); survives model swaps")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout, queueing included")
	obsAddr := fs.String("obs", "", "serve expvar+pprof (with the serve/* metrics) on this address too")
	accessLog := fs.String("access-log", "", `write one JSON access-log line per request here ("-" for stderr)`)
	logSample := fs.Int("access-log-sample", 0, "log only 1-in-N requests (errors, feedback and requests over 250ms are always logged; 0/1 = log everything)")
	traceCap := fs.Int("trace", 0, "tail-sampled trace store capacity in entries (0 = 128, negative disables tracing)")
	recordDir := fs.String("record", "", "capture every prediction request (body + routing metadata) to rotating files in this directory, for `spmvselect replay`")
	recordMaxMB := fs.Int("record-max-mb", 64, "capture file rotation threshold in MiB")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pairs, err := parseArchModels("-models", *models)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if *model != "" {
		// Single-file shorthand: the artifact's trained arch names the
		// registry entry, so `serve -model m.gob` behaves exactly like
		// `serve -models <arch>=m.gob`.
		art, err := serve.LoadFile(*model)
		if err != nil {
			return err
		}
		arch := serve.NormalizeArch(art.Arch)
		if arch == "" {
			arch = "default"
		}
		pairs = append(pairs, archPath{arch, *model})
	}
	if len(pairs) == 0 {
		return fmt.Errorf("serve: -model or -models is required")
	}
	shadows, err := parseArchModels("-shadow", *shadowSpec)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}

	reg := registry.New()
	for _, p := range pairs {
		if err := reg.Configure(p.arch, p.path); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	for _, p := range shadows {
		if err := reg.ConfigureShadow(p.arch, p.path); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	if *defaultArch != "" {
		if err := reg.SetDefault(*defaultArch); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	var logger *slog.Logger
	if *accessLog != "" {
		w := io.Writer(os.Stderr)
		if *accessLog != "-" {
			f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("serve: opening access log: %w", err)
			}
			defer f.Close()
			w = f
		}
		logger = slog.New(slog.NewJSONHandler(w, nil))
	}

	var capture *obs.CaptureWriter
	if *recordDir != "" {
		capture, err = obs.NewCaptureWriter(*recordDir, int64(*recordMaxMB)<<20)
		if err != nil {
			return fmt.Errorf("serve: opening capture directory: %w", err)
		}
		defer capture.Close()
		fmt.Fprintf(os.Stderr, "serve: recording prediction traffic to %s\n", capture.Dir())
	}

	srv, err := serve.NewBackendServer(reg, serve.Config{
		MaxConcurrent:   *maxConc,
		FeatMemoSize:    *featMemo,
		Timeout:         *timeout,
		MaxBatchItems:   *maxBatch,
		AdminToken:      *adminToken,
		AccessLog:       logger,
		AccessLogSample: *logSample,
		Capture:         capture,
		TraceCapacity:   *traceCap,
	})
	if err != nil {
		return err
	}
	if *obsAddr != "" {
		bound, stopObs, err := obs.Serve(*obsAddr)
		if err != nil {
			return err
		}
		defer stopObs()
		fmt.Fprintf(os.Stderr, "serve: expvar and pprof on http://%s/debug/\n", bound)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Load in the background so the listener binds immediately; /readyz
	// answers 503 until every configured artifact is decoded.
	go func() {
		if err := reg.LoadAll(); err != nil {
			fmt.Fprintf(os.Stderr, "serve: loading models: %v; shutting down\n", err)
			stop()
		}
	}()

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			changed, err := reg.Reload()
			if err != nil {
				fmt.Fprintf(os.Stderr, "serve: SIGHUP reload: %v\n", err)
				continue
			}
			fmt.Fprintf(os.Stderr, "serve: SIGHUP reload: %d artifact(s) swapped %v\n", len(changed), changed)
		}
	}()

	return srv.Run(ctx, *addr, func(bound string) {
		fmt.Fprintf(os.Stderr, "serve: registry %v (default %s) listening on http://%s\n",
			reg.Arches(), reg.DefaultArch(), bound)
		if *portFile != "" {
			if err := os.WriteFile(*portFile, []byte(bound), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "serve: writing portfile: %v; shutting down\n", err)
				stop()
			}
		}
	})
}

// cmdRequest talks to a running serve instance and prints the JSON
// answer — the client half of the smoke test. Besides the prediction
// endpoints it can hit any GET/POST path (readiness, admin) so ci.sh
// needs no curl.
func cmdRequest(args []string) error {
	fs := flag.NewFlagSet("request", flag.ExitOnError)
	addr := fs.String("addr", "", "server address host:port (required)")
	mtx := fs.String("mtx", "", "MatrixMarket file to submit")
	batch := fs.String("batch", "", "comma-separated MatrixMarket files to submit as one /v1/predict/batch request")
	featuresCSV := fs.String("features", "", "comma-separated raw feature vector to submit instead of a matrix")
	arch := fs.String("arch", "", "route the prediction to this architecture's model")
	get := fs.String("get", "", "GET this path (e.g. /readyz) and print the body")
	post := fs.String("post", "", "POST to this path (e.g. /v1/admin/reload); body from -json, else empty")
	jsonBody := fs.String("json", "", "JSON body sent with -post as application/json (e.g. a /v1/feedback report)")
	token := fs.String("token", "", "bearer token sent as Authorization (for /v1/admin/*)")
	requestID := fs.String("request-id", "", "send this X-Request-ID so the call is findable in the server's access log")
	keepTrace := fs.Bool("keep-trace", false, "send X-Trace-Keep so every hop retains this request's trace for `spmvselect trace`")
	verbose := fs.Bool("v", false, "print the response's X-Request-ID and X-Model-Hash to stderr")
	timeout := fs.Duration("timeout", 30*time.Second, "request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("request: -addr is required")
	}
	modes := 0
	for _, set := range []bool{*mtx != "", *batch != "", *featuresCSV != "", *get != "", *post != ""} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		return fmt.Errorf("request: exactly one of -mtx, -batch, -features, -get or -post is required")
	}

	method := http.MethodPost
	var path, contentType string
	var body io.Reader
	switch {
	case *mtx != "":
		f, err := os.Open(*mtx)
		if err != nil {
			return err
		}
		defer f.Close()
		path, contentType, body = "/v1/predict/matrix", "text/plain", f
		if *arch != "" {
			path += "?arch=" + *arch
		}
	case *batch != "":
		// A batch body is the concatenated MatrixMarket files, which
		// the server splits on their banner lines.
		var buf strings.Builder
		for _, name := range strings.Split(*batch, ",") {
			data, err := os.ReadFile(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			buf.Write(data)
		}
		path, contentType, body = "/v1/predict/batch", "text/plain", strings.NewReader(buf.String())
		if *arch != "" {
			path += "?arch=" + *arch
		}
	case *featuresCSV != "":
		var vec []float64
		for _, s := range strings.Split(*featuresCSV, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("request: bad feature value %q: %w", s, err)
			}
			vec = append(vec, v)
		}
		data, err := json.Marshal(map[string]any{"features": vec, "arch": *arch})
		if err != nil {
			return err
		}
		path, contentType, body = "/v1/predict/features", "application/json", strings.NewReader(string(data))
	case *get != "":
		method, path = http.MethodGet, *get
	case *post != "":
		path = *post
		if *jsonBody != "" {
			contentType, body = "application/json", strings.NewReader(*jsonBody)
		}
	}
	return doRequestFull(method, *addr, path, contentType, *token, *requestID, body, *timeout,
		reqExtras{keepTrace: *keepTrace, verbose: *verbose})
}

// reqExtras carries the optional request behaviours the smoke-test
// client grew after its signature stopped scaling: trace retention and
// response-identity echo.
type reqExtras struct {
	// keepTrace sends X-Trace-Keep so the proxy and every replica
	// force-retain the request's trace.
	keepTrace bool
	// verbose prints the response's X-Request-ID and X-Model-Hash to
	// stderr — the two keys that connect an answer to its trace and to
	// the artifact that produced it.
	verbose bool
}

// doRequest performs one HTTP exchange against a serve instance,
// copying the response body to stdout and failing on non-200.
func doRequest(method, addr, path, contentType, token string, body io.Reader, timeout time.Duration) error {
	return doRequestFull(method, addr, path, contentType, token, "", body, timeout, reqExtras{})
}

// doRequestFull is doRequest with the smoke-test extras: an
// X-Request-ID to send, trace retention and response-identity echo.
// The body is read up front so the request goes out with a
// Content-Length, as a sized body.
func doRequestFull(method, addr, path, contentType, token, requestID string, body io.Reader, timeout time.Duration, extra reqExtras) error {
	var reqBody io.Reader
	if body != nil {
		payload, err := io.ReadAll(body)
		if err != nil {
			return err
		}
		reqBody = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, "http://"+addr+path, reqBody)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if requestID != "" {
		req.Header.Set("X-Request-ID", requestID)
	}
	if extra.keepTrace {
		req.Header.Set(obs.TraceKeepHeader, "1")
	}
	resp, err := (&http.Client{Timeout: timeout}).Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if extra.verbose {
		fmt.Fprintf(os.Stderr, "request: X-Request-ID: %s\n", resp.Header.Get("X-Request-ID"))
		fmt.Fprintf(os.Stderr, "request: X-Model-Hash: %s\n", resp.Header.Get("X-Model-Hash"))
	}
	if _, err := os.Stdout.Write(respBody); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("request: server answered %s", resp.Status)
	}
	return nil
}

// cmdPromote flips an arch's shadow candidate to live through the
// admin API of a running serve instance: the candidate artifact starts
// answering that arch's requests and the shadow pairing is cleared.
func cmdPromote(args []string) error {
	fs := flag.NewFlagSet("promote", flag.ExitOnError)
	addr := fs.String("addr", "", "server address host:port (required)")
	arch := fs.String("arch", "", "architecture to promote (default: the server's default arch)")
	token := fs.String("token", "", "admin bearer token (must match the server's -admin-token)")
	timeout := fs.Duration("timeout", 30*time.Second, "request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("promote: -addr is required")
	}
	path := "/v1/admin/promote"
	if *arch != "" {
		path += "?arch=" + *arch
	}
	return doRequest(http.MethodPost, *addr, path, "", *token, nil, *timeout)
}
