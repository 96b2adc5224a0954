package infer

import (
	"context"
	"errors"
	"maps"
	"slices"
	"testing"

	"swatop/internal/cache"
	"swatop/internal/faults"
	"swatop/internal/graph"
	"swatop/internal/obsrv"
	"swatop/internal/tensor"
	"swatop/internal/workloads"
)

// tinyBuilder builds a small but structurally complete network: an
// explicit-GEMM first conv (Ni < MinNiImplicit, like every network's first
// layer), two implicit convs across a pooling transition, then a pooled +
// flattened fully-connected tail — every node kind the VGG16 graph uses, at
// sizes a functional run can afford. It doubles as the Options.Builder of
// the fleet tests.
func tinyBuilder(batch int) (*graph.Graph, error) {
	return graph.Chain("tiny", batch,
		[]workloads.ConvLayer{
			{Net: "tiny", Name: "c1", Ni: 3, No: 16, R: 8, K: 3},
			{Net: "tiny", Name: "c2", Ni: 16, No: 16, R: 8, K: 3},
			{Net: "tiny", Name: "c3", Ni: 16, No: 16, R: 4, K: 3},
		},
		[]workloads.FCLayer{
			{Net: "tiny", Name: "f1", In: 16 * 2 * 2, Out: 32},
			// Out must vectorize (tile % 4): the lowering has no scalar
			// epilogue for the M dimension.
			{Net: "tiny", Name: "f2", In: 32, Out: 12},
		})
}

func tinyChain(t *testing.T, batch int) *graph.Graph {
	t.Helper()
	g, err := tinyBuilder(batch)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestInferTinyFunctional executes the tiny network with real data: every
// tuned operator's output must match the single-operator reference oracle,
// feeding through the ping-pong arenas and the glue stubs in between.
func TestInferTinyFunctional(t *testing.T) {
	g := tinyChain(t, 2)
	e := newEngine(t)
	lib := cache.NewLibrary()
	res, err := e.Run(context.Background(), g, Options{
		Workers:    2,
		Library:    lib,
		Functional: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	relayouts := 0
	for _, l := range res.Layers {
		if l.Kind == KindRelayout {
			relayouts++
		}
	}
	if len(res.Layers) != g.NumNodes()+relayouts {
		t.Fatalf("%d layers, want %d nodes and %d relayouts", len(res.Layers), g.NumNodes(), relayouts)
	}
	ops := 0
	for _, l := range res.Layers {
		if l.Kind == graph.Conv || l.Kind == graph.Gemm {
			ops++
			if !l.Checked {
				t.Fatalf("layer %s not verified", l.Name)
			}
			if l.MaxAbsErr > 1e-3 {
				t.Fatalf("layer %s err %g", l.Name, l.MaxAbsErr)
			}
			if l.Strategy == "" {
				t.Fatalf("layer %s has no strategy", l.Name)
			}
		}
		if l.Seconds <= 0 {
			t.Fatalf("layer %s has non-positive seconds", l.Name)
		}
	}
	if ops != 5 {
		t.Fatalf("%d operator layers, want 5", ops)
	}
	if res.Seconds <= 0 {
		t.Fatal("non-positive network seconds")
	}
	if res.Output == nil {
		t.Fatal("functional run must return the output tensor")
	}
	if got := elemCount(res.Output.Dims); got != 12*2 {
		t.Fatalf("output has %d elements, want 24", got)
	}
	// Layer starts must march forward on the shared machine and the merged
	// timeline must stay within the network's span.
	prev := -1.0
	for _, l := range res.Layers {
		if l.Start < prev {
			t.Fatalf("layer %s starts at %g before previous start %g", l.Name, l.Start, prev)
		}
		prev = l.Start
	}
	if len(res.Timeline.Events) == 0 {
		t.Fatal("empty network timeline")
	}
	if end := res.Timeline.End(); end > res.Seconds*(1+1e-9) {
		t.Fatalf("timeline ends at %g, after the network's %g", end, res.Seconds)
	}
	if res.Speedup <= 0 {
		t.Fatalf("speedup %g, want positive", res.Speedup)
	}
	// Every conv caches one library entry per applicable lowering method
	// (the engine tunes them all and keeps the measured best), plus one
	// entry per distinct GEMM shape: at least the 5 operator nodes.
	if lib.Len() < 5 {
		t.Fatalf("library holds %d schedules, want >= 5", lib.Len())
	}
}

// TestInferDeterministic: the network's machine seconds are identical for
// every tuning worker count, and identical again when every schedule comes
// from the cache instead of a fresh search.
func TestInferDeterministic(t *testing.T) {
	g := tinyChain(t, 2)
	e := newEngine(t)

	lib1 := cache.NewLibrary()
	res1, err := e.Run(context.Background(), g, Options{Workers: 1, Library: lib1, SkipBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	res4, err := e.Run(context.Background(), g, Options{Workers: 4, Library: cache.NewLibrary(), SkipBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Seconds != res4.Seconds {
		t.Fatalf("workers change the network time: %g vs %g", res1.Seconds, res4.Seconds)
	}
	for i := range res1.Layers {
		if res1.Layers[i].Seconds != res4.Layers[i].Seconds {
			t.Fatalf("layer %s: %g (1 worker) vs %g (4 workers)",
				res1.Layers[i].Name, res1.Layers[i].Seconds, res4.Layers[i].Seconds)
		}
	}

	// Cached re-run: every operator resolves from the library, and because
	// the engine re-executes the compiled program rather than trusting
	// cached numbers, the total is bit-identical.
	cached, err := e.Run(context.Background(), g, Options{Workers: 4, Library: lib1, SkipBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if cached.CachedOps != 5 || cached.TunedOps != 0 {
		t.Fatalf("cached run resolved %d cached / %d tuned, want 5 / 0", cached.CachedOps, cached.TunedOps)
	}
	if cached.Seconds != res1.Seconds {
		t.Fatalf("cached run %g differs from fresh run %g", cached.Seconds, res1.Seconds)
	}
}

// TestDegradedReLUNodeIsCorrect: a node degraded to its baseline fallback
// still carries its ReLU epilogue and, a conv, reads its input through its
// halo. With every tuning measurement failing, a functional tiny net serves
// every operator from the manual schedules — the padded convs from the
// manual explicit conv, since neither swDNN nor the per-call Winograd reads
// a halo — and each one's output still matches max(0, reference) of the
// zero-padded input; no layer is a ReLU or a pad.
func TestDegradedReLUNodeIsCorrect(t *testing.T) {
	g := tinyChain(t, 2)
	in := faults.New(1)
	in.FailEveryNth(faults.Measure, 1, errors.New("injected measurement failure"))
	res, err := newEngine(t).Run(context.Background(), g, Options{
		Faults: in, Fallback: true, MaxCandidateFailures: 3, Functional: true, SkipBaseline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]*graph.Node{}
	for _, n := range g.Topo() {
		nodes[n.Name] = n
	}
	relus, padded, ran := 0, 0, 0
	for _, l := range res.Layers {
		if l.Kind == KindRelayout {
			continue
		}
		n := nodes[l.Name]
		if n == nil || n.Kind != l.Kind {
			t.Fatalf("layer %s (%s) is no node of the net", l.Name, l.Kind)
		}
		ran++
		if n.Conv.ReLU || n.Gemm.ReLU {
			relus++
			if n.Conv.Pad > 0 {
				padded++
			}
			if !l.Degraded || !l.Checked || l.MaxAbsErr > 1e-3 {
				t.Fatalf("ReLU node %s: degraded %v, checked %v, max abs error %g",
					l.Name, l.Degraded, l.Checked, l.MaxAbsErr)
			}
		}
	}
	if relus != 4 || padded != 3 || ran != g.NumNodes() {
		t.Fatalf("%d ReLU nodes, %d of them padded convs, of %d layers, want 4, 3 of %d", relus, padded, ran, g.NumNodes())
	}
}

// TestElementRuns: two concrete forms of one tensor share storage exactly
// when they place the logical flat order alike: a batch-1 GEMM output read
// row-major or column-major, or the explicit conv's row-major out2d read as
// the 4-D feature map; not its column-major out2d, nor a batch-2 C read as a
// row-major B.
func TestElementRuns(t *testing.T) {
	cases := []struct {
		aDims, aLayout, bDims, bLayout []int
		same                           bool
	}{
		{[]int{4096, 1}, []int{1, 0}, []int{4096, 1}, []int{0, 1}, true},
		{[]int{8, 12}, []int{0, 1}, []int{8, 3, 2, 2}, nil, true},
		{[]int{8, 12}, []int{1, 0}, []int{8, 3, 2, 2}, nil, false},
		{[]int{32, 2}, []int{1, 0}, []int{32, 2}, []int{0, 1}, false},
	}
	for _, c := range cases {
		a, err := tensor.NewVirtual("a", c.aDims, c.aLayout)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tensor.NewVirtual("b", c.bDims, c.bLayout)
		if err != nil {
			t.Fatal(err)
		}
		if got := slices.Equal(elementRuns(a), elementRuns(b)); got != c.same {
			t.Errorf("%v %v vs %v %v: same placement %v, want %v", c.aDims, c.aLayout, c.bDims, c.bLayout, got, c.same)
		}
	}
}

// TestInferFallbackUnderFaults: with every tuning measurement failing, the
// Fallback option serves the manual baseline schedules instead of failing
// the network — and never caches them.
func TestInferFallbackUnderFaults(t *testing.T) {
	g := tinyChain(t, 2)
	e := newEngine(t)
	in := faults.New(1)
	in.FailEveryNth(faults.Measure, 1, errors.New("injected measurement failure"))
	lib := cache.NewLibrary()
	res, err := e.Run(context.Background(), g, Options{
		Library:              lib,
		Faults:               in,
		Fallback:             true,
		MaxCandidateFailures: 3,
		SkipBaseline:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedOps != 5 {
		t.Fatalf("%d degraded operators, want 5", res.DegradedOps)
	}
	for _, l := range res.Layers {
		if (l.Kind == graph.Conv || l.Kind == graph.Gemm) && !l.Degraded {
			t.Fatalf("layer %s should be degraded", l.Name)
		}
	}
	if res.Seconds <= 0 {
		t.Fatal("degraded network must still report machine time")
	}
	if lib.Len() != 0 {
		t.Fatalf("degraded schedules were cached: %d entries", lib.Len())
	}

	// Without the fallback the same environment is a hard error.
	if _, err := e.Run(context.Background(), g, Options{
		Faults:               in,
		MaxCandidateFailures: 3,
		SkipBaseline:         true,
	}); err == nil {
		t.Fatal("tuning failure without fallback must error")
	}
}

// TestMemoHoldsOnlyCleanTunedTimings: "degraded is never cached" extends to
// the engine's memo of fresh-machine timings, and the tuner's fault injector
// never reaches it. A run whose every layer degrades remembers nothing and
// degrades again on every repetition; a run tuned under compute stalls
// remembers, per (operator, strategy), exactly the seconds a fault-free
// engine measures for the library that run filled.
func TestMemoHoldsOnlyCleanTunedTimings(t *testing.T) {
	ctx := context.Background()
	stall := faults.New(1)
	stall.StallEveryNth(faults.ComputeStall, 3, 1e-3)
	cases := []struct {
		name     string
		opts     Options
		reps     int
		degraded int
	}{
		{"every layer degraded", Options{NoTune: true, Fallback: true}, 3, 5},
		{"tuned under compute stalls", Options{Workers: 2, Faults: stall}, 1, 0},
	}
	for _, c := range cases {
		e, lib := newEngine(t), cache.NewLibrary()
		c.opts.Library, c.opts.SkipBaseline = lib, true
		for rep := 0; rep < c.reps; rep++ {
			res, err := e.Run(ctx, tinyChain(t, 2), c.opts)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if res.DegradedOps != c.degraded {
				t.Fatalf("%s, repetition %d: %d degraded operators, want %d", c.name, rep, res.DegradedOps, c.degraded)
			}
			for _, l := range res.Layers {
				if op := l.Kind == graph.Conv || l.Kind == graph.Gemm; op && l.Degraded != (c.degraded > 0) {
					t.Fatalf("%s, repetition %d: layer %s degraded = %v", c.name, rep, l.Name, l.Degraded)
				}
			}
		}
		if c.opts.Faults != nil && c.opts.Faults.Fired(faults.ComputeStall) == 0 {
			t.Fatalf("%s: no stall fired while tuning", c.name)
		}
		memo := timingsOf(e)
		if (len(memo) == 0) != (c.degraded > 0) {
			t.Fatalf("%s: memo holds %d timings: %v", c.name, len(memo), memo)
		}
		clean := newEngine(t)
		if _, err := clean.Run(ctx, tinyChain(t, 2), Options{Library: lib, NoTune: true, Fallback: true, SkipBaseline: true}); err != nil {
			t.Fatalf("%s: fault-free reference: %v", c.name, err)
		}
		if want := timingsOf(clean); !maps.Equal(memo, want) {
			t.Fatalf("%s: memo differs from a fault-free engine's:\n got %v\nwant %v", c.name, memo, want)
		}
	}
}

// TestInferCancellation: a canceled context stops the run with the
// context's error even when fallback is enabled (the caller asked the work
// to stop, not to degrade).
func TestInferCancellation(t *testing.T) {
	g := tinyChain(t, 2)
	e := newEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx, g, Options{Fallback: true, SkipBaseline: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPlanPingPong: the buffer planner alternates consecutive activations
// between the two arenas, pins nothing in a straight chain, excludes
// parameters and the graph input/output, and beats the naive footprint.
func TestPlanPingPong(t *testing.T) {
	g, err := graph.VGG16(4)
	if err != nil {
		t.Fatal(err)
	}
	p := planBuffers(g)
	nodes := g.Topo()
	for i, n := range nodes {
		if n.Out == g.Output {
			continue
		}
		slot, ok := p.Slot[n.Out]
		if !ok {
			t.Fatalf("activation %s not planned", n.Out)
		}
		if slot != i%2 {
			t.Fatalf("activation %s in slot %d, want %d", n.Out, slot, i%2)
		}
	}
	for _, tn := range g.Tensors() {
		if _, ok := p.Slot[tn.Name]; ok && (tn.Param || tn.Name == g.Input || tn.Name == g.Output) {
			t.Fatalf("%s must not enter the arenas", tn.Name)
		}
	}
	if p.DedicatedBytes != 0 {
		t.Fatalf("straight chain pinned %d bytes", p.DedicatedBytes)
	}
	if p.ArenaBytes() >= p.NaiveBytes {
		t.Fatalf("arenas (%d B) do not beat naive allocation (%d B)", p.ArenaBytes(), p.NaiveBytes)
	}
	// VGG16's two largest adjacent feature maps are conv1-sized; the naive
	// sum is over 2.35× larger (3.5× while a padded copy of each conv's input
	// was an activation of its own).
	if 100*p.NaiveBytes < 235*p.ArenaBytes() {
		t.Fatalf("expected a big reuse win, got arenas %d B vs naive %d B", p.ArenaBytes(), p.NaiveBytes)
	}
}

// TestNetFailTerminalEvent: every started run ends in exactly one terminal
// event. A run that fails during execution (a layer's oracle error above
// the tolerance), one that fails during resolution (a library miss with
// tuning disabled) and a failed fleet run each emit one net.fail and no
// net.finish.
func TestNetFailTerminalEvent(t *testing.T) {
	e := newEngine(t)
	lib := cache.NewLibrary()
	ctx := context.Background()
	ok, err := e.Run(ctx, tinyChain(t, 2), Options{Workers: 2, Library: lib, Functional: true, SkipBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, l := range ok.Layers {
		worst = max(worst, l.MaxAbsErr)
	}
	if worst <= 0 {
		t.Fatal("no layer reports an oracle error to set the tolerance below")
	}

	cases := []struct {
		name string
		opts Options
	}{
		{"execution", Options{Library: lib, Functional: true, SkipBaseline: true, Tolerance: worst / 2}},
		{"resolution", Options{NoTune: true, SkipBaseline: true}},
		{"fleet", Options{Library: lib, Groups: 2, Builder: tinyBuilder, Functional: true, Tolerance: worst / 2}},
		{"fleet validation", Options{Library: lib, Groups: 2}},
	}
	for _, c := range cases {
		obs := obsrv.New()
		c.opts.Observer = obs
		if _, err := e.Run(ctx, tinyChain(t, 2), c.opts); err == nil {
			t.Fatalf("%s: run should fail", c.name)
		}
		kinds := map[string]int{}
		for _, ev := range obs.Flight().Snapshot() {
			kinds[ev.Kind]++
		}
		if kinds["net.start"] != 1 || kinds["net.fail"] != 1 || kinds["net.finish"] != 0 {
			t.Errorf("%s failure: %d net.start, %d net.fail, %d net.finish; want 1, 1, 0",
				c.name, kinds["net.start"], kinds["net.fail"], kinds["net.finish"])
		}
		for _, j := range obs.Jobs().Snapshot() {
			if j.Kind == "infer" && j.State != "failed" {
				t.Errorf("%s failure: infer job state %q", c.name, j.State)
			}
		}
	}
}
