package infer

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"swatop/internal/cache"
	"swatop/internal/cluster"
	"swatop/internal/graph"
	"swatop/internal/metrics"
	"swatop/internal/sw26010"
	"swatop/internal/workloads"
)

// fleetOpts is the shared fleet configuration of these tests: batches
// shard through tinyBuilder, baselines are skipped (forced in fleet mode
// anyway) and schedules come from the shared library.
func fleetOpts(lib *cache.Library, groups int) Options {
	return Options{
		Workers: 2,
		Library: lib,
		Groups:  groups,
		Builder: tinyBuilder,
	}
}

// TestFleetDataParallelDeterministic is the scale-out acceptance test at
// tiny size: per-group and aggregate machine seconds must be bit-identical
// across repeated concurrent runs, worker counts and the serial reference,
// groups=1 must reproduce the single-machine path, and four groups must
// actually run the batch faster than one.
func TestFleetDataParallelDeterministic(t *testing.T) {
	e := newEngine(t)
	lib := cache.NewLibrary()
	ctx := context.Background()
	g := tinyChain(t, 8)

	single, err := e.Run(ctx, g, Options{Workers: 2, Library: lib, SkipBaseline: true, Groups: 1})
	if err != nil {
		t.Fatal(err)
	}
	if single.Mode != ModeSingle || single.Groups != nil {
		t.Fatalf("groups=1 must take the single path: mode %q, groups %v", single.Mode, single.Groups)
	}

	for _, G := range []int{2, 4} {
		opts := fleetOpts(lib, G)
		a, err := e.Run(ctx, tinyChain(t, 8), opts)
		if err != nil {
			t.Fatalf("groups=%d: %v", G, err)
		}
		if a.Mode != ModeDataParallel {
			t.Fatalf("mode = %q", a.Mode)
		}
		if len(a.Groups) != G {
			t.Fatalf("groups=%d: %d group results", G, len(a.Groups))
		}
		if a.CommSeconds <= 0 || a.Seconds <= a.CommSeconds {
			t.Fatalf("groups=%d: seconds %g, comm %g", G, a.Seconds, a.CommSeconds)
		}
		if a.Timeline.Groups() != G {
			t.Fatalf("groups=%d: timeline has %d group rows", G, a.Timeline.Groups())
		}
		if !strings.Contains(a.Timeline.Gantt(60), "group1") {
			t.Fatalf("groups=%d: gantt missing group rows:\n%s", G, a.Timeline.Gantt(60))
		}
		batchSum := 0
		for i, gr := range a.Groups {
			if gr.Group != i || gr.Seconds <= 0 {
				t.Fatalf("group result %d wrong: %+v", i, gr)
			}
			batchSum += gr.Batch
		}
		if batchSum != 8 {
			t.Fatalf("groups=%d: shards sum to %d", G, batchSum)
		}
		// Each group runs a quarter (half) of the batch: the fleet must
		// finish the batch faster than the single machine.
		if a.Seconds >= single.Seconds {
			t.Fatalf("groups=%d: fleet %g s not faster than single %g s", G, a.Seconds, single.Seconds)
		}

		// Repeat with a different worker count, and serially: everything
		// must be bit-identical.
		b, err := e.Run(ctx, tinyChain(t, 8), Options{Workers: 4, Library: lib, Groups: G, Builder: tinyBuilder})
		if err != nil {
			t.Fatal(err)
		}
		sOpts := fleetOpts(lib, G)
		sOpts.serialFleet = true
		c, err := e.Run(ctx, tinyChain(t, 8), sOpts)
		if err != nil {
			t.Fatal(err)
		}
		for _, other := range []*Result{b, c} {
			if other.Seconds != a.Seconds || other.CommSeconds != a.CommSeconds {
				t.Fatalf("groups=%d: aggregate drifted: %g/%g vs %g/%g",
					G, other.Seconds, other.CommSeconds, a.Seconds, a.CommSeconds)
			}
			for i := range a.Groups {
				if other.Groups[i].Seconds != a.Groups[i].Seconds {
					t.Fatalf("groups=%d: group %d seconds drifted: %g vs %g",
						G, i, other.Groups[i].Seconds, a.Groups[i].Seconds)
				}
				if other.Groups[i].Counters != a.Groups[i].Counters {
					t.Fatalf("groups=%d: group %d counters drifted", G, i)
				}
			}
		}
	}
}

// TestFleetSnapshotBitIdentical is the -race stress test: four groups
// executing concurrently must leave the shared registry in exactly the
// state the serial reference produces — per-group namespaces make every
// concurrent write land on a disjoint name, and aggregation happens after
// the join.
func TestFleetSnapshotBitIdentical(t *testing.T) {
	e := newEngine(t)
	lib := cache.NewLibrary()
	ctx := context.Background()

	// Warm the library so every compared run resolves fully cached.
	if _, err := e.Run(ctx, tinyChain(t, 8), fleetOpts(lib, 4)); err != nil {
		t.Fatal(err)
	}

	snapshotJSON := func(serial bool) []byte {
		reg := metrics.NewRegistry()
		opts := fleetOpts(lib, 4)
		opts.Metrics = reg
		opts.serialFleet = serial
		if _, err := e.Run(ctx, tinyChain(t, 8), opts); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	want := snapshotJSON(true)
	if !bytes.Contains(want, []byte("group3_machine_dma_ops_total")) ||
		!bytes.Contains(want, []byte("group2_exec_runs_total")) {
		t.Fatalf("snapshot missing per-group namespaces:\n%s", want)
	}
	for i := 0; i < 3; i++ {
		if got := snapshotJSON(false); !bytes.Equal(got, want) {
			t.Fatalf("concurrent snapshot %d differs from serial reference.\ngot:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

// TestFleetFunctionalMerge runs the fleet with real data: each group
// computes its true slice of the whole batch and the gathered output must
// match the single-machine whole-batch run (both are within the oracle
// tolerance of the same reference, so they agree to twice that).
func TestFleetFunctionalMerge(t *testing.T) {
	e := newEngine(t)
	lib := cache.NewLibrary()
	ctx := context.Background()

	single, err := e.Run(ctx, tinyChain(t, 4), Options{
		Workers: 2, Library: lib, Functional: true, SkipBaseline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := fleetOpts(lib, 2)
	opts.Functional = true
	fleet, err := e.Run(ctx, tinyChain(t, 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Output == nil || fleet.Output.Len() != single.Output.Len() {
		t.Fatalf("fleet output missing or mis-sized: %v vs %v", fleet.Output, single.Output)
	}
	maxErr := 0.0
	for f := 0; f < single.Output.Len(); f++ {
		d := math.Abs(float64(atFlat(single.Output, f)) - float64(atFlat(fleet.Output, f)))
		if d > maxErr {
			maxErr = d
		}
	}
	if maxErr > 2e-3 {
		t.Fatalf("merged fleet output drifts %g from the single-machine run", maxErr)
	}
}

// TestFleetPipeline checks the layer-pipelined mode: balanced contiguous
// stages covering every node, a deterministic schedule with a reported
// bubble fraction, and per-group rows on the merged timeline.
func TestFleetPipeline(t *testing.T) {
	e := newEngine(t)
	lib := cache.NewLibrary()
	ctx := context.Background()

	opts := fleetOpts(lib, 2)
	opts.Pipeline = true
	a, err := e.Run(ctx, tinyChain(t, 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mode != ModePipeline || a.Pipeline == nil {
		t.Fatalf("mode %q, pipeline %v", a.Mode, a.Pipeline)
	}
	if a.Pipeline.MicroBatches != 4 {
		t.Fatalf("micro-batches = %d", a.Pipeline.MicroBatches)
	}
	if len(a.Pipeline.Stages) != 2 {
		t.Fatalf("stages = %d", len(a.Pipeline.Stages))
	}
	nodeCount := 0
	for s, st := range a.Pipeline.Stages {
		if st.Group != s || len(st.Layers) == 0 || st.Seconds <= 0 {
			t.Fatalf("stage %d wrong: %+v", s, st)
		}
		nodeCount += len(st.Layers)
	}
	topoLen := len(tinyChain(t, 1).Topo())
	if nodeCount != topoLen {
		t.Fatalf("stages cover %d nodes, graph has %d", nodeCount, topoLen)
	}
	if a.Pipeline.Stages[0].TransferSeconds <= 0 {
		t.Fatal("stage 0 must report a hand-off cost")
	}
	if a.Pipeline.BubbleFraction <= 0 || a.Pipeline.BubbleFraction >= 1 {
		t.Fatalf("bubble fraction = %g", a.Pipeline.BubbleFraction)
	}
	if a.CommSeconds <= 0 {
		t.Fatalf("comm seconds = %g", a.CommSeconds)
	}
	// The makespan covers every stage's busy time plus fill/drain.
	for s, gr := range a.Groups {
		if a.Seconds < gr.Seconds {
			t.Fatalf("makespan %g shorter than stage %d busy %g", a.Seconds, s, gr.Seconds)
		}
	}
	if a.Timeline.Groups() != 2 {
		t.Fatalf("timeline has %d group rows", a.Timeline.Groups())
	}
	// Micro-batch-0 layer views cover the whole net on the fleet clock.
	if len(a.Layers) != topoLen {
		t.Fatalf("%d layers, want %d", len(a.Layers), topoLen)
	}

	// Deterministic: concurrent and serial stages agree bit for bit.
	sOpts := fleetOpts(lib, 2)
	sOpts.Pipeline = true
	sOpts.serialFleet = true
	b, err := e.Run(ctx, tinyChain(t, 4), sOpts)
	if err != nil {
		t.Fatal(err)
	}
	if b.Seconds != a.Seconds || b.CommSeconds != a.CommSeconds ||
		b.Pipeline.BubbleFraction != a.Pipeline.BubbleFraction {
		t.Fatalf("pipeline schedule drifted: %g/%g/%g vs %g/%g/%g",
			b.Seconds, b.CommSeconds, b.Pipeline.BubbleFraction,
			a.Seconds, a.CommSeconds, a.Pipeline.BubbleFraction)
	}
}

// TestFleetEmptyShards is the groups > batch regression test: zero shards
// are skipped, not executed — the run succeeds, idle groups appear in the
// report with zero batch and zero seconds, the functional output still
// matches the single-machine run, and the result stays deterministic.
func TestFleetEmptyShards(t *testing.T) {
	e := newEngine(t)
	lib := cache.NewLibrary()
	ctx := context.Background()

	// Hybrid path (tiny has an fc tail): batch 2 across 4 groups leaves two
	// groups with no head work; they still take their fc column shards.
	single, err := e.Run(ctx, tinyChain(t, 2), Options{
		Workers: 2, Library: lib, SkipBaseline: true, Functional: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := fleetOpts(lib, 4)
	opts.Functional = true
	fleet, err := e.Run(ctx, tinyChain(t, 2), opts)
	if err != nil {
		t.Fatalf("batch 2 on 4 groups: %v", err)
	}
	if fleet.Mode != ModeDataParallel || len(fleet.Groups) != 4 {
		t.Fatalf("mode %q with %d group rows", fleet.Mode, len(fleet.Groups))
	}
	batchSum := 0
	for _, gr := range fleet.Groups {
		batchSum += gr.Batch
	}
	if batchSum != 2 {
		t.Fatalf("group batches sum to %d, want 2: %+v", batchSum, fleet.Groups)
	}
	if fleet.Groups[2].Batch != 0 || fleet.Groups[3].Batch != 0 {
		t.Fatalf("trailing groups should be idle: %+v", fleet.Groups)
	}
	if fleet.Seconds <= 0 {
		t.Fatalf("fleet seconds %g", fleet.Seconds)
	}
	maxErr := 0.0
	for f := 0; f < single.Output.Len(); f++ {
		d := math.Abs(float64(atFlat(single.Output, f)) - float64(atFlat(fleet.Output, f)))
		if d > maxErr {
			maxErr = d
		}
	}
	if maxErr > 2e-3 {
		t.Fatalf("output drifts %g from the single-machine run", maxErr)
	}
	again, err := e.Run(ctx, tinyChain(t, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Seconds != fleet.Seconds {
		t.Fatalf("nondeterministic: %.17g vs %.17g", again.Seconds, fleet.Seconds)
	}

	// Pure data-parallel path (no fc tail): the idle group's machine never
	// runs, and the comm model gathers only from the groups that did.
	convOnly := func(batch int) (*graph.Graph, error) {
		return graph.Chain("convnet", batch,
			[]workloads.ConvLayer{
				{Net: "convnet", Name: "c1", Ni: 3, No: 16, R: 8, K: 3},
			}, nil)
	}
	g, err := convOnly(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(ctx, g, Options{
		Workers: 2, Library: lib, Groups: 3, Builder: convOnly, SkipBaseline: true,
	})
	if err != nil {
		t.Fatalf("conv-only batch 2 on 3 groups: %v", err)
	}
	if len(res.Groups) != 3 || res.Groups[2].Batch != 0 || res.Groups[2].Seconds != 0 {
		t.Fatalf("idle group row wrong: %+v", res.Groups)
	}
	if res.Seconds <= 0 {
		t.Fatalf("fleet seconds %g", res.Seconds)
	}
}

// TestFleetValidation pins the fleet's error surface.
func TestFleetValidation(t *testing.T) {
	e := newEngine(t)
	lib := cache.NewLibrary()
	ctx := context.Background()

	cases := []struct {
		name  string
		batch int
		mut   func(*Options)
		want  string
	}{
		{"pipeline without groups", 4, func(o *Options) { o.Groups = 1; o.Pipeline = true }, "at least 2 groups"},
		{"functional pipeline", 4, func(o *Options) { o.Pipeline = true; o.Functional = true }, "timed-only"},
		{"too many groups", 8, func(o *Options) { o.Groups = sw26010.NumCG + 1 }, "core groups"},
		{"missing builder", 8, func(o *Options) { o.Builder = nil }, "Builder"},
	}
	for _, c := range cases {
		opts := fleetOpts(lib, 2)
		c.mut(&opts)
		_, err := e.Run(ctx, tinyChain(t, c.batch), opts)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

// TestCommAfterRule pins the one transfer rule case by case on hand-built
// placements of four groups: commAfter reads who holds what, never the mode.
func TestCommAfterRule(t *testing.T) {
	const bytes = 1 << 20
	on := func(groups ...int) []*task {
		tasks := make([]*task, 4)
		for _, g := range groups {
			tasks[g] = &task{}
		}
		return tasks
	}
	cases := []struct {
		name  string
		steps []*step
		i     int
		want  comm
	}{
		{"sliced on 2 of 4, another step follows",
			[]*step{{tasks: on(0, 1), cut: byBatch, name: "x", bytes: bytes}, {tasks: on(0, 1, 2, 3), cut: byRows}}, 0,
			comm{"allgather x", "all groups", []int{0, 1}, cluster.CollectiveSeconds(bytes, 2)}},
		{"whole on one group, the next step on another",
			[]*step{{tasks: on(0), bytes: bytes}, {tasks: on(1)}}, 0,
			comm{"stage 0->1", "group1", []int{0}, cluster.StageTransferSeconds(bytes)}},
		{"whole on every group",
			[]*step{{tasks: on(0, 1, 2, 3), bytes: bytes}, {tasks: on(0, 1, 2), cut: byRows}}, 0,
			comm{}},
		{"last step sliced",
			[]*step{{tasks: on(0, 1, 2, 3), bytes: bytes}, {tasks: on(0, 1, 2), cut: byRows, name: "fc", bytes: bytes}}, 1,
			comm{"gather fc", "group0", []int{0, 1, 2}, cluster.CollectiveSeconds(bytes, 3)}},
	}
	for _, c := range cases {
		p := &placement{mode: ModeDataParallel, steps: c.steps}
		if got := p.commAfter(c.i); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: commAfter(%d) = %+v, want %+v", c.name, c.i, got, c.want)
		}
	}
}
