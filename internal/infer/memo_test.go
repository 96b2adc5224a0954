package infer

import (
	"context"
	"errors"
	"maps"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"swatop/internal/autotune"
	"swatop/internal/cache"
	"swatop/internal/conv"
	"swatop/internal/dsl"
	"swatop/internal/exec"
	"swatop/internal/graph"
	"swatop/internal/metrics"
	"swatop/internal/schedule"
	"swatop/internal/workloads"
)

// timingsOf copies the engine's memo of fresh-machine timings.
func timingsOf(e *Engine) map[string]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return maps.Clone(e.timings)
}

// simulationsOf reads how many fresh-machine runs the engine has made.
func simulationsOf(e *Engine) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.simulations
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
// grow, and not one fresh-machine simulation.
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
	warm := func() (*Result, int) {
		before := simulationsOf(e)
		res, err := e.Run(ctx, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, simulationsOf(e) - before
	}
	run1, sims1 := warm()
	memo1 := timingsOf(e)
	run2, sims2 := warm()
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
	if sims1 != swept || sims2 != 0 {
		t.Fatalf("warm runs 1 and 2 simulated %d and %d times on a fresh machine, want %d and 0", sims1, sims2, swept)
	}
}

// allocCost counts the heap allocations and bytes of one call of run after
// a warm-up call, each the minimum over eight calls: the runtime's own
// goroutines occasionally allocate in between.
func allocCost(run func()) (allocs, bytes uint64) {
	run()
	allocs, bytes = math.MaxUint64, math.MaxUint64
	for range 8 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, bytes
}

// TestWarmRunAllocBudget: a warm run on an engine that has timed every
// method's cached schedule reads each (shape, method) entry exactly once
// and compiles only each shape's winner, so it stays within the measured
// allocation count and bytes — on one machine at batch 2, and as a 4-group
// data-parallel run at batch 8, whose groups each run that batch-2 shard.
// Compiling and re-timing every swept schedule, as the sweep did before it
// read the engine's remembered seconds first, made 2 369 allocations a
// single run; giving every kernel a new SPM store, before the machine kept
// its storage across ResetSPM, made 241 304 B (and 749 allocations: the
// walker a run's machine now keeps costs a few more than ir's pooled one
// did); running the per-call Winograd form, phase F included, made 768
// allocations and 200 672 B (1 709 and 827 768 B at dp-b8-g4); the packed
// form through main memory made 718 and 161 944 B (1 643 and 617 544 B).
// The fused form allocates fewer times but more bytes: its SPM region,
// which a run's machine materialises once, holds V and M tiles that the
// phases kept in main memory (a timed run keeps main-memory scratch
// virtual, but not SPM stores). Its SPM stores alone take 206 528 B of a
// single-b2 run; with no store materialised in a timed run, the fused form
// made 49 624 B (135 392 B at dp-b8-g4). With the ReLU stubs, before the
// ReLU became each operator's epilogue, a run made 592 allocations and
// 271 792 B (1 299 and 1 027 856 B at dp-b8-g4); with the fleet timeline
// regrown event by event as it merged, 1 230 and 1 012 352 B at dp-b8-g4.
// With the pad stubs, before each conv read its input through its halo,
// and each task's timeline grown by append, a run made 592 allocations and
// 268 760 B (1 225 and 1 001 584 B at dp-b8-g4); the halo's statements
// cost the two compiles as many allocations as the sized timelines save
// (592 and 268 032 B now; 1 180 and 992 752 B at dp-b8-g4 alone). The
// dp-b8-g4 caps sit a little above the largest count and bytes measured
// with other tests running, 1 182 and 993 016 B: its groups run on
// goroutines, which the runtime may have to allocate.
func TestWarmRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ctx := context.Background()
	shard, err := convOnlyBuilder(2)
	if err != nil {
		t.Fatal(err)
	}
	lib := cache.NewLibrary()
	if _, err := newEngine(t).Run(ctx, shard, Options{Workers: 2, Library: lib, SkipBaseline: true}); err != nil {
		t.Fatal(err)
	}
	swept := 0
	for _, n := range shard.Topo() {
		for _, m := range conv.Methods {
			if n.Kind == graph.Conv && conv.Applies(m, n.Conv) {
				swept++
			}
		}
	}

	cases := []struct {
		name          string
		batch, groups int
		budget        uint64
		bytesBudget   uint64
	}{
		{"single-b2", 2, 1, 592, 268032},
		{"dp-b8-g4", 8, 4, 1185, 993400},
	}
	for _, c := range cases {
		g, err := convOnlyBuilder(c.batch)
		if err != nil {
			t.Fatal(err)
		}
		e, reg := newEngine(t), metrics.NewRegistry()
		opts := Options{Library: lib, SkipBaseline: true, NoTune: true, Metrics: reg, Groups: c.groups, Builder: convOnlyBuilder}
		run := func() {
			if _, err := e.Run(ctx, g, opts); err != nil {
				t.Fatal(err)
			}
		}
		run() // times every method's cached schedule once
		hits, misses := reg.Counter("cache_hits_total"), reg.Counter("cache_misses_total")
		h0, m0, sims := hits.Value(), misses.Value(), simulationsOf(e)
		run()
		if dh, dm := hits.Value()-h0, misses.Value()-m0; dh != int64(swept) || dm != 0 {
			t.Fatalf("%s: a warm run made %d cache hits and %d misses, want one hit per swept (shape, method) = %d and 0",
				c.name, dh, dm, swept)
		}
		if n := simulationsOf(e) - sims; n != 0 {
			t.Fatalf("%s: a warm run simulated %d times on a fresh machine, want 0", c.name, n)
		}
		got, bytes := allocCost(run)
		t.Logf("%s: a warm run allocates %d times and %d B", c.name, got, bytes)
		if got > c.budget || bytes > c.bytesBudget {
			t.Fatalf("%s: a warm run allocates %d times and %d B, budget %d and %d B", c.name, got, bytes, c.budget, c.bytesBudget)
		}
	}
}

// TestEmptySpaceTunedOnce: a conv method whose space holds no valid point
// (a packed Winograd form none of whose frames fit the SPM region) is tuned
// once: the engine remembers the tuner's autotune.ErrNoSchedule under the
// operator's name, and two warm runs walk no space at all.
func TestEmptySpaceTunedOnce(t *testing.T) {
	s := conv.Shape{B: 2, Ni: 8, No: 8, Ro: 2, Co: 2048, Kr: 3, Kc: 3, ReLU: true}
	g := graph.New("wide", s.B)
	for _, tn := range []struct {
		name  string
		dims  []int
		param bool
	}{{"in", []int{s.Ni, s.Ri(), s.Ci(), s.B}, false}, {"w", []int{s.No, s.Ni, 3, 3}, true}, {"out", []int{s.No, s.Ro, s.Co, s.B}, false}} {
		if _, err := g.AddTensor(tn.name, tn.dims, tn.param); err != nil {
			t.Fatal(err)
		}
	}
	g.Input, g.Output = "in", "out"
	if err := g.AddNode(&graph.Node{Name: "c", Kind: graph.Conv, In: []string{"in", "w"}, Out: "out", Conv: s}); err != nil {
		t.Fatal(err)
	}
	e, reg := newEngine(t), metrics.NewRegistry()
	opts := Options{Library: cache.NewLibrary(), Metrics: reg, SkipBaseline: true}
	points := reg.Counter("autotune_space_points_total")
	for run := 0; run < 3; run++ {
		p0 := points.Value()
		res, err := e.Run(context.Background(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(res.Layers[0].Strategy, conv.Explicit) {
			t.Fatalf("run %d resolved %q, want the explicit method", run, res.Layers[0].Strategy)
		}
		if walked := points.Value() - p0; (run == 0) != (walked > 0) {
			t.Fatalf("run %d walked %d schedule points", run, walked)
		}
	}
	e.mu.Lock()
	err := e.unschedulable[conv.OpName(conv.Winograd, s)]
	e.mu.Unlock()
	if !errors.Is(err, autotune.ErrNoSchedule) {
		t.Fatalf("the engine remembers %v for the Winograd form, want autotune.ErrNoSchedule", err)
	}
}

// heapAfterGC is the live heap once two collections have run: the second
// frees what sync.Pools kept through the first.
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestRunLeavesNoHeap: a run's machine and its SPM storage (up to 4 MiB)
// live as long as the run, the tuning sessions' machines as long as their
// session. Once a cold Engine.Run has returned, the heap holds less than
// 1 MiB more than before it started, the engine's memo and the library's
// new entries included: no engine field, process-wide cache or pool keeps
// a machine.
func TestRunLeavesNoHeap(t *testing.T) {
	g, err := graph.Chain("wide", 1, []workloads.ConvLayer{{Net: "wide", Name: "c1", Ni: 128, No: 128, R: 28, K: 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, lib := newEngine(t), cache.NewLibrary()
	before := heapAfterGC()
	if _, err := e.Run(context.Background(), g, Options{Workers: 2, Library: lib, SkipBaseline: true}); err != nil {
		t.Fatal(err)
	}
	if grew := heapAfterGC() - before; grew >= 1<<20 {
		t.Fatalf("the heap grew by %d B across a network run, want under 1 MiB", grew)
	}
	runtime.KeepAlive(e)
	runtime.KeepAlive(lib)
}

// TestReplacedEntryTimedOnce: the memo key carries the strategy. When a
// losing method's library entry is replaced between two warm runs by
// another schedule of its space, with faster recorded seconds so that Put
// keeps it, the next run compiles and times exactly that schedule — one
// fresh-machine simulation — and the pick follows the engine's seconds for
// it, not the library's.
func TestReplacedEntryTimedOnce(t *testing.T) {
	ctx := context.Background()
	g, err := convOnlyBuilder(2)
	if err != nil {
		t.Fatal(err)
	}
	lib := cache.NewLibrary()
	if _, err := newEngine(t).Run(ctx, g, Options{Workers: 2, Library: lib, SkipBaseline: true}); err != nil {
		t.Fatal(err)
	}
	e := newEngine(t)
	opts := Options{Library: lib, SkipBaseline: true, NoTune: true}
	warm := func() (*Result, int) {
		before := simulationsOf(e)
		res, err := e.Run(ctx, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, simulationsOf(e) - before
	}
	warm()
	run1, _ := warm()

	// c2 sweeps all three methods; replace the first one that lost.
	var c2 graph.Node
	for _, n := range g.Topo() {
		if n.Name == "c2" {
			c2 = *n
		}
	}
	layer := run1.Layers[slices.IndexFunc(run1.Layers, func(l Layer) bool { return l.Name == "c2" })]
	winner, _, _ := strings.Cut(layer.Strategy, " ")
	loser := conv.Methods[slices.IndexFunc(conv.Methods, func(m string) bool { return m != winner })]
	op, err := conv.NewOp(loser, c2.Conv)
	if err != nil {
		t.Fatal(err)
	}
	old, ok := lib.Get(op.Name())
	if !ok {
		t.Fatalf("%s is not cached", op.Name())
	}

	// The replacement: the fastest other schedule of the loser's space, by
	// a fresh-machine timing of its own.
	dims, err := schedule.Describe(op.Seed(), op.Space())
	if err != nil {
		t.Fatal(err)
	}
	var repl dsl.Strategy
	replSecs := math.Inf(1)
	for i := range dims.Size() {
		st := dims.At(i)
		if st.String() == old.Strategy().String() {
			continue
		}
		prog, err := op.Compile(st)
		if err != nil {
			continue
		}
		res, err := exec.RunVirtual(prog, exec.Options{FastLoops: true})
		if err == nil && res.Seconds < replSecs {
			repl, replSecs = st, res.Seconds
		}
	}
	if math.IsInf(replSecs, 1) {
		t.Fatalf("%s has no other schedule that compiles", op.Name())
	}
	lib.Put(cache.FromStrategy(op.Name(), repl, old.SimulatedSeconds/2, old.SpaceSize))
	if got, _ := lib.Get(op.Name()); got.Strategy().String() != repl.String() {
		t.Fatalf("Put kept %s, want the replacement %s", got.Strategy(), repl)
	}

	// What the sweep must pick: the engine's seconds of every method's entry
	// in the fixed order, strict improvement.
	memo := timingsOf(e)
	want, wantSecs := "", 0.0
	for _, m := range conv.Methods {
		if !conv.Applies(m, c2.Conv) {
			continue
		}
		name := conv.OpName(m, c2.Conv)
		entry, _ := lib.Get(name)
		secs, ok := memo[name+" "+entry.Strategy().String()]
		if m == loser {
			secs, ok = replSecs, true
		}
		if !ok {
			t.Fatalf("%s: no remembered timing for the cached schedule", name)
		}
		if want == "" || secs < wantSecs {
			want, wantSecs = m+" "+entry.Strategy().String(), secs
		}
	}

	run2, sims := warm()
	if sims != 1 {
		t.Fatalf("the run after the replacement simulated %d times on a fresh machine, want 1", sims)
	}
	key := op.Name() + " " + repl.String()
	if got, ok := timingsOf(e)[key]; !ok || got != replSecs {
		t.Fatalf("memo[%q] = %v (present %v), want the replacement's %v", key, got, ok, replSecs)
	}
	c2Strategy := func(res *Result) string {
		return res.Layers[slices.IndexFunc(res.Layers, func(l Layer) bool { return l.Name == "c2" })].Strategy
	}
	if got := c2Strategy(run2); got != want {
		t.Fatalf("c2 picked %s, want %s", got, want)
	}

	// No schedule of a losing method beats the winner on this net, so the
	// pick above stays. The remembered seconds are all the sweep compares:
	// with the replacement's made the fastest, the next run picks it, times
	// nothing and executes the program it compiles for it.
	e.mu.Lock()
	e.timings[key] = wantSecs / 2
	e.mu.Unlock()
	run3, sims := warm()
	if got := c2Strategy(run3); sims != 0 || got != loser+" "+repl.String() {
		t.Fatalf("with the replacement remembered fastest, c2 picked %s after %d simulations, want %s after 0",
			got, sims, loser+" "+repl.String())
	}
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
		if got := e.baselineSeconds(n, true, tuned); got != tuned {
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
		first := e.baselineSeconds(n, g.Producer(n.In[0]) != "", -1)
		if first <= 0 || e.baselineSeconds(n, g.Producer(n.In[0]) != "", -2) != first {
			t.Fatalf("node %s: baseline %g is not a remembered measurement", n.Name, first)
		}
	}
	if memo := timingsOf(e); len(memo) != 3 {
		t.Fatalf("memo holds %d baselines for 3 conv shapes: %v", len(memo), memo)
	}
}

// TestTimelineRecordedOnce: the machine writes every event of a warm run
// once, straight into Result.Timeline, which runTask sized once from the
// event counts the engine remembers (no append growth), and execNodes
// stamps each layer's events with one shared {op, layer, strategy} map — no
// per-event maps, no per-layer copies.
func TestTimelineRecordedOnce(t *testing.T) {
	g, err := tinyBuilder(2)
	if err != nil {
		t.Fatal(err)
	}
	e, lib := newEngine(t), cache.NewLibrary()
	opts := Options{Workers: 2, Library: lib, SkipBaseline: true}
	var res *Result
	for range 2 { // the second run is warm: every operator is cached
		if res, err = e.Run(context.Background(), g, opts); err != nil {
			t.Fatal(err)
		}
	}
	if res.TunedOps != 0 || len(res.Timeline.Events) == 0 {
		t.Fatalf("warm run tuned %d ops, recorded %d events", res.TunedOps, len(res.Timeline.Events))
	}
	if n, c := len(res.Timeline.Events), cap(res.Timeline.Events); n != c {
		t.Fatalf("a warm run's timeline holds %d events in room for %d: it was not sized once", n, c)
	}
	owner := map[string]uintptr{} // layer index -> its one Args map
	for i, ev := range res.Timeline.Events {
		layer, op := ev.Args["layer"], ev.Args["op"]
		if layer == "" || op == "" {
			t.Fatalf("event %d (%s %q) lacks op/layer: %v", i, ev.Kind, ev.Label, ev.Args)
		}
		p := reflect.ValueOf(ev.Args).Pointer()
		if q, ok := owner[layer]; ok && q != p {
			t.Fatalf("layer %s (%s) stamps more than one Args map", layer, op)
		}
		owner[layer] = p
	}
	if len(owner) > len(res.Layers) {
		t.Fatalf("%d distinct Args maps for %d layers", len(owner), len(res.Layers))
	}
}
