package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarationLimits holds BENCHMARK.json to the limits a benchmark
// declaration must stay within.
func TestDeclarationLimits(t *testing.T) {
	decl, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(decl.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(decl.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", decl.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range decl.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if workloadByName(w.Name) == nil {
			t.Errorf("workload %s is declared but the harness does not have it", w.Name)
		}
	}
	if len(decl.Workloads) != len(allWorkloads) {
		t.Errorf("%d workloads declared, the harness has %d", len(decl.Workloads), len(allWorkloads))
	}
	setup := false
	for _, m := range decl.EndToEnd {
		name(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no end-to-end metric setup_s with unit s, better lower")
	}
	for _, m := range decl.PerLayer {
		name(m.Name)
		if m.Bound != nil {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
	for _, m := range append(append([]metricDecl(nil), decl.EndToEnd...), decl.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
}

// TestQuickSuite is the smoke test: the whole suite in quick mode — one
// repetition per workload on the tiny chain — must emit every declared
// metric exactly once per workload, pass its own correctness checks,
// write a trace whose spans nest, and agree with itself under -compare.
func TestQuickSuite(t *testing.T) {
	decl, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	e := &env{workers: 2, seed: 7, quick: true, size: quickSizing()}
	if err := checkFunctional(ctx, e); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out, traceOut := filepath.Join(dir, "result.json"), filepath.Join(dir, "trace.json")
	if err := runSuite(ctx, e, decl, time.Second, out, traceOut); err != nil {
		t.Fatal(err)
	}
	res, err := readResultFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seed != 7 || res.GoVersion == "" || res.Nproc < 1 || res.GitHead == "" {
		t.Errorf("result file header incomplete: %+v", res)
	}

	once := func(family string, decls []metricDecl, got []metricValue, nonZero bool) {
		t.Helper()
		count := map[string]int{}
		for _, v := range got {
			count[v.Workload+"/"+v.Name]++
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s %s on %s is %v", family, v.Name, v.Workload, v.Value)
			}
			if nonZero && v.Value == 0 {
				t.Errorf("%s %s on %s is 0", family, v.Name, v.Workload)
			}
		}
		for _, w := range decl.Workloads {
			for _, d := range decls {
				if n := count[w.Name+"/"+d.Name]; n != 1 {
					t.Errorf("%s %s emitted %d times on %s, want once", family, d.Name, n, w.Name)
				}
			}
		}
		if len(got) != len(decls)*len(decl.Workloads) {
			t.Errorf("%d %s values, want %d", len(got), family, len(decls)*len(decl.Workloads))
		}
	}
	once("end-to-end", decl.EndToEnd, res.EndToEnd, true)
	once("per-layer", decl.PerLayer, res.PerLayer, false)

	layer := map[string]float64{}
	for _, v := range res.PerLayer {
		layer[v.Workload+"/"+v.Name] = v.Value
	}
	for _, w := range decl.Workloads {
		if share := layer[w.Name+"/search.self_share"]; (share > 0) != (w.Name == "search-evo") {
			t.Errorf("search.self_share on %s = %v", w.Name, share)
		}
	}
	if layer["blackbox-conv/exec.self_share"] < 0.5 {
		t.Errorf("exec.self_share on blackbox-conv = %v, want the executor to dominate", layer["blackbox-conv/exec.self_share"])
	}
	if layer["blackbox-conv/costmodel.pick_ratio_min"] < pickRatioFloor {
		t.Errorf("pick ratio %v", layer["blackbox-conv/costmodel.pick_ratio_min"])
	}
	if layer["replay-warm/cache.hits"] == 0 || layer["tune-cold/cache.misses"] == 0 {
		t.Error("cache hit/miss counts do not tell the warm workload from the cold one")
	}

	// The trace: one entry per workload, every span closed and inside its
	// parent's operation.
	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var traces []traceFile
	if err := json.Unmarshal(data, &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != len(decl.Workloads) {
		t.Fatalf("%d traces, want %d", len(traces), len(decl.Workloads))
	}
	for _, tr := range traces {
		if len(tr.Spans) == 0 {
			t.Errorf("%s: no spans", tr.Workload)
		}
		for i, s := range tr.Spans {
			if s.End < s.Start || s.Parent >= i || s.Layer == "" || s.Name == "" {
				t.Fatalf("%s: malformed span %d: %+v", tr.Workload, i, s)
			}
			if s.Parent >= 0 && tr.Spans[s.Parent].OpID != s.OpID {
				t.Fatalf("%s: span %d belongs to another operation than its parent", tr.Workload, i)
			}
		}
	}

	// A run agrees with itself; one made worse beyond a bound does not.
	var buf bytes.Buffer
	if n := compareResults(&buf, decl, res, res); n != 0 {
		t.Errorf("a result file differs from itself:\n%s", buf.String())
	}
	worse := *res
	worse.EndToEnd = append([]metricValue(nil), res.EndToEnd...)
	for i := range worse.EndToEnd {
		switch worse.EndToEnd[i].Name {
		case "wall_ms_p50":
			worse.EndToEnd[i].Value *= 1.5
		case "ops_per_s":
			worse.EndToEnd[i].Value *= 0.5
		}
	}
	if n := compareResults(&buf, decl, res, &worse); n != 2*len(decl.Workloads) {
		t.Errorf("compare flagged %d regressions, want %d", n, 2*len(decl.Workloads))
	}

	// The driver's line.
	line, err := verdictLine(res.EndToEnd[:len(decl.EndToEnd)], 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	var verdict map[string]json.RawMessage
	if err := json.Unmarshal(line, &verdict); err != nil || len(verdict) != 4 {
		t.Fatalf("verdict line %s: %v", line, err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := verdict[k]; !ok {
			t.Errorf("verdict line lacks %q", k)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Layer: "infer", Start: 0, End: 100, Parent: -1},
		{Name: "a", Layer: "exec", Start: 10, End: 40, Parent: 0},
		{Name: "b", Layer: "exec", Start: 30, End: 60, Parent: 0}, // overlaps a: counted once
		{Name: "c", Layer: "cache", Start: 35, End: 38, Parent: 1},
		{Name: "d", Layer: layerBench, Start: 90, End: 120, Parent: 0}, // clipped to the parent
	}
	self := selfTimes(spans)
	want := []int64{40, 27, 30, 3, 30}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	byLayer, total := selfByLayer(spans)
	if byLayer["exec"] != 57 || byLayer[layerBench] != 0 || total != 100 {
		t.Errorf("by layer %v, total %d", byLayer, total)
	}
	if got := selfUnder(spans, "a"); got != 3 {
		t.Errorf("self time under a = %d, want 3", got)
	}
}

func TestStats(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles(v); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles = %v %v %v, median %v", q1, q2, q3, median(v))
	}
	if p := percentile(v, 0.9); p != 0 {
		t.Errorf("p90 of ten samples = %v, want unresolved (0)", p)
	}
	var many []float64
	for i := 1; i <= 200; i++ {
		many = append(many, float64(i))
	}
	if p := percentile(many, 0.9); p != 180 {
		t.Errorf("p90 of 1..200 = %v, want 180", p)
	}
}
