package infer

import (
	"context"
	"maps"
	"runtime"
	"sync"
	"testing"

	"swatop/internal/cache"
	"swatop/internal/conv"
	"swatop/internal/graph"
)

// timingsOf copies the engine's memo of fresh-machine timings.
func timingsOf(e *Engine) map[string]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return maps.Clone(e.timings)
}

// sameResult fails unless two runs agree bit for bit on everything
// fingerprint hashes of a Result: totals, counters, layers, groups, plan,
// timelines and output.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	g, w := fingerprint(t, got, nil, nil), fingerprint(t, want, nil, nil)
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("%s: section %q, want %q", what, g[i], w[i])
		}
	}
}

// TestWarmRunRetimesNothing: the first warm run on a fresh engine times
// every (operator, strategy) of the method sweep once; the second compares
// the remembered seconds — the same Result bit for bit, a memo that did not
// grow, and none of the scratch-pad backing store the re-timings allocated.
func TestWarmRunRetimesNothing(t *testing.T) {
	ctx := context.Background()
	g, err := convOnlyBuilder(2)
	if err != nil {
		t.Fatal(err)
	}
	lib := cache.NewLibrary()
	if _, err := newEngine(t).Run(ctx, g, Options{Workers: 2, Library: lib, SkipBaseline: true}); err != nil {
		t.Fatal(err)
	}
	// What a warm run has to time: every applicable method of every conv
	// shape (explicit + Winograd for c1, all three for c2).
	swept := 0
	for _, n := range g.Topo() {
		for _, m := range conv.Methods {
			if n.Kind == graph.Conv && conv.Applies(m, n.Conv) {
				swept++
			}
		}
	}
	if swept < 4 {
		t.Fatalf("the net sweeps %d (shape, method) pairs; the test needs >= 2 shapes x 2 methods", swept)
	}

	e := newEngine(t)
	opts := Options{Library: lib, SkipBaseline: true, NoTune: true}
	var ms runtime.MemStats
	warm := func() (*Result, uint64) {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		res, err := e.Run(ctx, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return res, ms.TotalAlloc - before
	}
	run1, bytes1 := warm()
	memo1 := timingsOf(e)
	run2, bytes2 := warm()
	sameResult(t, "warm run 2 vs 1", run2, run1)
	if run1.CachedOps != 2 || run1.TunedOps != 0 {
		t.Fatalf("warm run resolved %d cached / %d tuned, want 2 / 0", run1.CachedOps, run1.TunedOps)
	}
	if len(memo1) != swept {
		t.Fatalf("memo holds %d timings after run 1, want one per swept (operator, strategy) = %d: %v", len(memo1), swept, memo1)
	}
	if memo2 := timingsOf(e); !maps.Equal(memo1, memo2) {
		t.Fatalf("run 2 changed the memo:\n%v\n%v", memo1, memo2)
	}
	if float64(bytes2) > 0.65*float64(bytes1) {
		t.Fatalf("warm run 2 allocated %d B, run 1 %d B (ratio %.2f, want <= 0.65): it re-timed something",
			bytes2, bytes1, float64(bytes2)/float64(bytes1))
	}
	t.Logf("run 1 %d B, run 2 %d B (%.2f), %d timings remembered", bytes1, bytes2, float64(bytes2)/float64(bytes1), swept)
}

// TestEngineConcurrentRuns: the memo is the engine's only shared mutable
// state. Concurrent warm runs on one engine and one library — single path
// and a two-group fleet — give what a serial engine gives, and what the memo
// already holds never changes an answer: net A then B on one engine, B then
// A on another and a fresh engine per net all agree.
func TestEngineConcurrentRuns(t *testing.T) {
	ctx := context.Background()
	lib := cache.NewLibrary()
	builders := map[string]func(int) (*graph.Graph, error){"tiny": tinyBuilder, "convnet": convOnlyBuilder}
	run := func(e *Engine, net string, groups int) *Result {
		g, err := builders[net](4)
		if err != nil {
			t.Error(err)
			return nil
		}
		res, err := e.Run(ctx, g, Options{Workers: 2, Library: lib, Groups: groups, Builder: builders[net]})
		if err != nil {
			t.Errorf("%s groups=%d: %v", net, groups, err)
		}
		return res
	}
	// Fill the library, then take the warm serial references, each on a
	// fresh engine.
	want := map[string][2]*Result{}
	for range 2 {
		for net := range builders {
			want[net] = [2]*Result{run(newEngine(t), net, 0), run(newEngine(t), net, 2)}
		}
		if t.Failed() {
			t.FailNow()
		}
	}

	shared := newEngine(t)
	var wg sync.WaitGroup
	got := make([][3]*Result, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := range got[i] {
				got[i][rep] = run(shared, "tiny", 2*((i+rep)%2))
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := range got {
		for rep, res := range got[i] {
			sameResult(t, "concurrent vs serial", res, want["tiny"][(i+rep)%2])
		}
	}

	for _, order := range [][2]string{{"tiny", "convnet"}, {"convnet", "tiny"}} {
		e := newEngine(t)
		for _, net := range order {
			for gi, groups := range []int{0, 2} {
				sameResult(t, net+" after "+order[0], run(e, net, groups), want[net][gi])
			}
		}
	}
}

// TestBaselineFallbackNotRemembered: an operator none of whose baselines
// compiles reports its own tuned time as the baseline — each node its own,
// not the first such node's (the per-run memo used to store the fallback
// under the shape key).
func TestBaselineFallbackNotRemembered(t *testing.T) {
	e := newEngine(t)
	bad := conv.Shape{} // fails validation: neither swDNN nor the manual explicit conv compiles
	for i, tuned := range []float64{1.5, 2.5} {
		n := &graph.Node{Name: "c", Kind: graph.Conv, Conv: bad}
		if got := e.baselineSeconds(n, tuned); got != tuned {
			t.Fatalf("node %d: baseline %g, want its own tuned time %g", i, got, tuned)
		}
	}
	if memo := timingsOf(e); len(memo) != 0 {
		t.Fatalf("a fallback was remembered: %v", memo)
	}
	// A real baseline is remembered, once, and is not the tuned time.
	g := tinyChain(t, 2)
	for _, n := range g.Topo() {
		if n.Kind != graph.Conv {
			continue
		}
		first := e.baselineSeconds(n, -1)
		if first <= 0 || e.baselineSeconds(n, -2) != first {
			t.Fatalf("node %s: baseline %g is not a remembered measurement", n.Name, first)
		}
	}
	if memo := timingsOf(e); len(memo) != 3 {
		t.Fatalf("memo holds %d baselines for 3 conv shapes: %v", len(memo), memo)
	}
}
