package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// validName is the name rule of BENCHMARK.json.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`).MatchString

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly
// the metrics the benchmark prints, that every name is well formed, and
// that config.json says what each per-layer metric should move.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !validName(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range b.Workloads {
		name(w.Name)
		if workloads[w.Name] == nil || w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: unknown, or its reason is not one line", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i, d := range got {
			name(d.Name)
			if w := want[i]; d.Name != w.Name || d.Unit != w.Unit || d.Better != w.Better {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, benchmark %+v", kind, i, d, w)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	cfg, err := loadConfig(configJSON)
	if err != nil {
		t.Fatal(err)
	}
	isEndToEnd := map[string]bool{}
	for _, d := range endToEnd {
		isEndToEnd[d.Name] = true
	}
	for _, d := range perLayer {
		moves := cfg.Moves[d.Name]
		if len(moves) == 0 {
			t.Errorf("config.json: per-layer metric %s names no end-to-end metric it should move", d.Name)
		}
		for _, m := range moves {
			w, metric, ok := strings.Cut(m, "/")
			if !ok || workloads[w] == nil || !isEndToEnd[metric] {
				t.Errorf("config.json: %s should move %q, want workload/metric", d.Name, m)
			}
		}
	}
	for _, s := range cfg.Paper.CorpusSeeds {
		if _, ok := cfg.digests(s); !ok {
			t.Errorf("config.json: no answer digests for paper corpus seed %d", s)
		}
	}
	if _, ok := cfg.digests(cfg.corpusSeed(cfg.HeldoutSeed)); !ok {
		t.Errorf("config.json: no answer digests for the held-out seed's corpus")
	}
}

func TestWrongPaperDigestFailsTheRun(t *testing.T) {
	want := paperDigests{Corpus: "c", Table3: "t3", Table8: "t8", Selections: "s"}
	o := &outcome{}
	checkPaper(o, 1, want, want)
	if !newVerdict(o, false).Correct {
		t.Fatalf("matching digests failed the run: %v", o.Mismatches)
	}
	got := want
	got.Table8 = "other"
	checkPaper(o, 1, got, want)
	if newVerdict(o, false).Correct || len(o.Mismatches) != 1 {
		t.Fatalf("a wrong Table 8 did not fail the run: %v", o.Mismatches)
	}
}

// TestWrongReferenceFailsTheRun serves real answers through a real
// fleet and checks them first against the plain-path references, then
// against a reference corrupted by hand: the answers did not change, so
// only the check can fail the run, and it must not count as a failed
// request.
func TestWrongReferenceFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("trains artifacts and starts a fleet")
	}
	ctx := context.Background()
	arts, err := trainArtifacts(ctx, tracer{}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := startFleet(arts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	pool, err := buildPool(ctx, tracer{}, 7, serveConfig{PoolItems: 3, PoolScale: 0.1, MinKB: 1, MaxKB: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	refs, err := references(pool, arts)
	if err != nil {
		t.Fatal(err)
	}
	o := &outcome{}
	g := newLoadgen(f, pool, refs, true, o, io.Discard)
	defer g.client.CloseIdleConnections()
	jobs := []job{{0, "turing", false}, {1, "turing", true}, {2, "pascal", false}, {0, "pascal", true}}
	g.run(&phase{Name: "right", jobs: jobs})
	if !newVerdict(o, false).Correct || o.Failed != 0 || o.Attempted != int64(len(jobs)) {
		t.Fatalf("plain-path references: %+v", o)
	}
	for hash := range refs["pascal"] {
		refs["pascal"][hash][2] = "DIA"
	}
	g.run(&phase{Name: "wrong", jobs: jobs})
	if newVerdict(o, false).Correct || len(o.Mismatches) != 1 || o.Failed != 0 {
		t.Fatalf("a wrong reference answer: %+v, want one mismatch failing the run and no failed request", o)
	}
}
