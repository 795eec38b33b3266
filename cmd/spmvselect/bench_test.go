package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMedianRatio: the parse gate's statistic pairs the sides' passes
// round by round, so one slow round on either side moves it not at all.
func TestMedianRatio(t *testing.T) {
	ms := func(ds ...int) sideTimes {
		st := sideTimes{}
		for _, d := range ds {
			st.passes = append(st.passes, time.Duration(d)*time.Millisecond)
		}
		return st
	}
	if got := medianRatio(ms(30, 90, 30), ms(10, 10, 15)); got != 3 {
		t.Errorf("odd rounds: median ratio %v, want 3", got)
	}
	if got := medianRatio(ms(30, 40, 10, 90), ms(10, 10, 10, 10)); got != 3.5 {
		t.Errorf("even rounds: median ratio %v, want 3.5", got)
	}
}

func TestQuantilesNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n                  int
		p50, p95, p99, max float64
	}{
		{n: 1, p50: 1, p95: 1, p99: 1, max: 1},
		// Rank ⌈q·24⌉: p95 is the 23rd value and p99 the 24th, the max.
		{n: 24, p50: 12, p95: 23, p99: 24, max: 24},
		{n: 100, p50: 50, p95: 95, p99: 99, max: 100},
	} {
		durs := make([]time.Duration, tc.n)
		for i := range durs {
			durs[i] = time.Duration(i+1) * time.Millisecond
		}
		rand.New(rand.NewSource(int64(tc.n))).Shuffle(len(durs), func(i, j int) { durs[i], durs[j] = durs[j], durs[i] })
		got := quantiles(durs)
		want := latencyQuantiles{Requests: tc.n, P50Ms: tc.p50, P95Ms: tc.p95, P99Ms: tc.p99, MaxMs: tc.max}
		if got != want {
			t.Errorf("n=%d: quantiles = %+v, want %+v", tc.n, got, want)
		}
	}
	if got := quantiles(nil); got != (latencyQuantiles{}) {
		t.Errorf("quantiles(nil) = %+v, want zero", got)
	}
}

func TestBenchGates(t *testing.T) {
	// Each gate's threshold at the smallest host that earns the strict
	// value and one CPU short of it.
	cases := []struct {
		suite, field string
		cpus         int
		want         float64
	}{
		{"parallel", "speedup", 8, 3.0},
		{"parallel", "speedup", 7, 0.80},
		{"parse", "speedup", 1, 3.0},
		{"parse", "alloc_frac", 1, 0.10},
		{"serve", "speedup", 4, 2.0},
		{"serve", "speedup", 3, 0.80},
		{"serve", "cascade_speedup_above_threshold", 4, 2.0},
		{"serve", "cascade_speedup_above_threshold", 3, 0.80},
		{"serve", "memo_speedup", 4, 1.2},
		{"serve", "memo_speedup", 3, 0.80},
		{"replay", "speedup", 4, 1.5},
		{"replay", "speedup", 3, 0.60},
		// Fleet needs strictly more CPUs than its 3 replicas.
		{"fleet", "speedup", 4, 1.5},
		{"fleet", "speedup", 3, 0.80},
		{"tracing", "p50_overhead_frac", 1, 0.05},
	}
	seen := map[string]bool{}
	for _, tc := range cases {
		var gate *benchGate
		for i, g := range benchSuites[tc.suite].gates {
			if g.field == tc.field {
				gate = &benchSuites[tc.suite].gates[i]
			}
		}
		if gate == nil {
			t.Errorf("%s: no gate on %s", tc.suite, tc.field)
			continue
		}
		seen[tc.suite+"/"+tc.field] = true
		limit := gate.threshold(tc.cpus)
		if limit != tc.want {
			t.Errorf("%s %s on %d CPUs: threshold %v, want %v", tc.suite, tc.field, tc.cpus, limit, tc.want)
		}
		past := limit - 0.01
		if gate.atMost {
			past = limit + 0.01
		}
		err := checkGates(map[string]float64{tc.field: past}, tc.cpus, []benchGate{*gate})
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s %s = %v on %d CPUs: error %v, want a failure naming the gate", tc.suite, tc.field, past, tc.cpus, err)
		}
		if err := checkGates(map[string]float64{tc.field: limit}, tc.cpus, []benchGate{*gate}); err != nil {
			t.Errorf("%s %s at its threshold failed: %v", tc.suite, tc.field, err)
		}
	}
	for name, suite := range benchSuites {
		for _, g := range suite.gates {
			if !seen[name+"/"+g.field] {
				t.Errorf("%s gate on %s has no case here", name, g.field)
			}
		}
	}
	if err := checkGates(map[string]float64{}, 1, benchSuites["parse"].gates); err == nil {
		t.Error("a record without the gated field passed")
	}
}

func TestWriteBenchRecordMergesSection(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_obs.json")
	report := `{"command": "table", "spans": [{"name": "corpus"}], "num_cpu": 2, "serve_tracing": {"old": true}}`
	if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeBenchRecord(path, "serve_tracing", map[string]int{"matrices": 24}); err != nil {
		t.Fatal(err)
	}
	var before, after map[string]any
	if err := json.Unmarshal([]byte(report), &before); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &after); err != nil {
		t.Fatal(err)
	}
	before["serve_tracing"] = map[string]any{"matrices": float64(24)}
	if !reflect.DeepEqual(after, before) {
		t.Errorf("merged report = %v, want %v", after, before)
	}

	fresh := filepath.Join(dir, "missing.json")
	if err := writeBenchRecord(fresh, "serve_tracing", map[string]int{"matrices": 1}); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(strings.Fields(string(data)), ""); got != `{"serve_tracing":{"matrices":1}}` {
		t.Errorf("fresh file = %s", got)
	}

	for _, bad := range []string{`[1, 2]`, `"report"`, `null`, `{"cut": `} {
		p := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(p, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := writeBenchRecord(p, "serve_tracing", map[string]int{}); err == nil {
			t.Errorf("merged into %s", bad)
		}
		if data, _ := os.ReadFile(p); string(data) != bad {
			t.Errorf("refused merge rewrote %s as %s", bad, data)
		}
	}
}

func TestTimeSidesInterleavesAndKeepsMinima(t *testing.T) {
	var mu sync.Mutex
	var order []string
	calls := map[string]int{}
	side := func(name string, n int) benchSide {
		return benchSide{n: n, do: func(i int) ([]byte, error) {
			mu.Lock()
			defer mu.Unlock()
			calls[name]++
			if i == 0 {
				order = append(order, name)
			}
			return []byte(fmt.Sprintf("%s/%d/%d", name, i, calls[name])), nil
		}}
	}
	times, err := timeSides(3, 2, side("a", 5), side("b", 3))
	if err != nil {
		t.Fatal(err)
	}
	// One warmup pass per side, then a, b in every round.
	if got := strings.Join(order, ""); got != "abababab" {
		t.Errorf("pass order %q, want warmups then interleaved rounds", got)
	}
	if calls["a"] != 4*5 || calls["b"] != 4*3 {
		t.Errorf("calls = %v, want every item once per pass", calls)
	}
	for s, n := range []int{5, 3} {
		st := times[s]
		if len(st.all) != 3*n || len(st.min) != n || len(st.answers) != n || len(st.passes) != 3 {
			t.Fatalf("side %d: %d timings, %d minima, %d answers, %d passes", s, len(st.all), len(st.min), len(st.answers), len(st.passes))
		}
		if st.best != slices.Min(st.passes) {
			t.Errorf("side %d: best pass %v is not the fastest of %v", s, st.best, st.passes)
		}
		for i, m := range st.min {
			if m <= 0 || m > st.best {
				t.Errorf("side %d item %d: minimum %v outside (0, best pass %v]", s, i, m, st.best)
			}
		}
	}
	if !strings.HasPrefix(string(times[0].answers[4]), "a/4/") {
		t.Errorf("answer of item 4 = %s", times[0].answers[4])
	}

	failing := benchSide{n: 4, do: func(i int) ([]byte, error) {
		if i == 2 {
			return nil, fmt.Errorf("refused")
		}
		return nil, nil
	}}
	if _, err := timeSides(1, 1, failing); err == nil || !strings.Contains(err.Error(), "item 2") {
		t.Errorf("failing item: error %v, want one naming item 2", err)
	}
}

func TestCmdBenchRejectsUnknownSuite(t *testing.T) {
	for _, args := range [][]string{nil, {"benchpar"}, {"serve", "parse"}} {
		if err := cmdBench(args); err == nil || !strings.Contains(err.Error(), "tracing") {
			t.Errorf("bench %q: error %v, want the suite list", args, err)
		}
	}
}

// TestThisHostRecordsGCSettings checks the fingerprint reads GOGC and
// GOMEMLIMIT as perfbench does: the value when set, else the default.
func TestThisHostRecordsGCSettings(t *testing.T) {
	t.Setenv("GOGC", "")
	t.Setenv("GOMEMLIMIT", "")
	if h := thisHost(); h.GOGC != "100 (default)" || h.GOMEMLIMIT != "off (default)" {
		t.Errorf("unset: gogc %q gomemlimit %q", h.GOGC, h.GOMEMLIMIT)
	}
	t.Setenv("GOGC", "50")
	t.Setenv("GOMEMLIMIT", "1GiB")
	if h := thisHost(); h.GOGC != "50" || h.GOMEMLIMIT != "1GiB" {
		t.Errorf("set: gogc %q gomemlimit %q", h.GOGC, h.GOMEMLIMIT)
	}
}
