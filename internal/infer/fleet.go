package infer

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"swatop/internal/cluster"
	"swatop/internal/gemm"
	"swatop/internal/graph"
	"swatop/internal/sw26010"
	"swatop/internal/tensor"
	"swatop/internal/trace"
)

// This file is the core-group fleet runtime: the scale-out path of Run when
// Options.Groups > 1. Both modes keep the repo's determinism invariant by
// construction — schedules resolve sequentially up front, every group
// executes on its own machine with its own tensor table, concurrent groups
// write metrics only under disjoint cluster.GroupPrefix names, and all
// aggregation (counters, timelines, the fleet clock) happens after the
// groups join, in fixed group order.

// runFleet validates the fleet configuration and dispatches to the mode.
func (e *Engine) runFleet(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	if opts.Groups > sw26010.NumCG {
		return nil, fmt.Errorf("infer %s: %d groups, but one SW26010 node has %d core groups",
			g.Name, opts.Groups, sw26010.NumCG)
	}
	if opts.Builder == nil {
		return nil, fmt.Errorf("infer %s: fleet mode needs Options.Builder to rebuild the net at shard batch sizes", g.Name)
	}
	if opts.Pipeline {
		return e.runPipeline(ctx, g, opts)
	}
	return e.runDataParallel(ctx, g, opts)
}

// buildShard rebuilds and validates the network at a shard batch size.
func buildShard(g *graph.Graph, opts Options, batch int) (*graph.Graph, error) {
	sg, err := opts.Builder(batch)
	if err != nil {
		return nil, fmt.Errorf("infer %s: building batch-%d shard: %w", g.Name, batch, err)
	}
	if err := sg.Validate(); err != nil {
		return nil, fmt.Errorf("infer %s: batch-%d shard: %w", g.Name, batch, err)
	}
	if sg.Batch != batch {
		return nil, fmt.Errorf("infer %s: Builder(%d) built a batch-%d graph", g.Name, batch, sg.Batch)
	}
	return sg, nil
}

// checkBatchLast checks the repo-wide batch-last convention the fleet's
// shard/merge copies rely on.
func checkBatchLast(dims []int, batch int) error {
	if len(dims) == 0 || dims[len(dims)-1] != batch {
		return fmt.Errorf("tensor dims %v do not end in the batch extent %d", dims, batch)
	}
	return nil
}

// copyBatchSlice copies src's batch columns [off, off+n) into dst's batch
// columns [0, n) — or the reverse offsets when gathering (dstOff). Both
// tensors share the same logical flat order with batch as the fastest
// dimension, so the copy is layout- and reshape-agnostic.
func copyBatchSlice(dst *tensor.Tensor, dstB, dstOff int, src *tensor.Tensor, srcB, srcOff, n int) {
	outer := src.Len() / srcB
	for o := 0; o < outer; o++ {
		for b := 0; b < n; b++ {
			setFlat(dst, atFlat(src, o*srcB+srcOff+b), o*dstB+dstOff+b)
		}
	}
}

// copyRows copies n rows of width cols from src (starting at srcRow) into
// dst (starting at dstRow) through the logical flat order — an fc column
// shard's rows of the full [M,K] weight on the way in, its [w,B] output
// into the full [M,B] activation on the way out.
func copyRows(dst *tensor.Tensor, dstRow int, src *tensor.Tensor, srcRow, n, cols int) {
	copyBatchSlice(dst, dst.Len(), dstRow*cols, src, src.Len(), srcRow*cols, n*cols)
}

// offsets returns where each of the consecutive shards starts: the running
// sum of the sizes before it.
func offsets(sizes []int) []int {
	offs := make([]int, len(sizes))
	for i := 1; i < len(sizes); i++ {
		offs[i] = offs[i-1] + sizes[i-1]
	}
	return offs
}

// fullInput builds the whole-batch input tensor a functional data-parallel
// run shards from, filled exactly like fillInputs fills the single-machine
// input.
func fullInput(g *graph.Graph) *tensor.Tensor {
	in := tensor.New(g.Input, mustDims(g, g.Input)...)
	fillActivation(in)
	return in
}

// runGroups executes fn(0..G-1), concurrently unless the serial
// determinism reference is requested.
func runGroups(G int, serial bool, fn func(int)) {
	if serial {
		for i := 0; i < G; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < G; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// runStep executes tasks[i] on core group i — nil tasks sit the step out,
// their machine clocks untouched — and joins the groups. Every group runs
// on its own machine with a scoped registry (cluster.GroupPrefix), so
// concurrent groups touch disjoint metric names; the first error in group
// order wins.
func (e *Engine) runStep(ctx context.Context, opts Options, fleet *cluster.Fleet, tasks []*task) ([]*taskResult, error) {
	outs := make([]*taskResult, len(tasks))
	errs := make([]error, len(tasks))
	runGroups(len(tasks), opts.serialFleet, func(i int) {
		if tasks[i] == nil {
			return
		}
		outs[i], errs[i] = e.runTask(ctx, *tasks[i], execEnv{
			m:            fleet.Machine(i),
			reg:          opts.Metrics.Scope(cluster.GroupPrefix(i)),
			obs:          opts.Observer,
			spans:        opts.Spans,
			group:        i,
			functional:   opts.Functional,
			tolerance:    opts.Tolerance,
			skipBaseline: true,
		})
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// lockstep is the fleet clock of a data-parallel run: every step starts at
// a barrier and the clock advances by the slowest group, then by each
// modeled collective. It is computed after the groups join, in fixed group
// order, from per-machine simulated quantities — bit-identical across
// worker counts and goroutine interleavings.
type lockstep struct {
	clock, comm float64
	timeline    *trace.Log
	res         *Result // accumulates resolution counts
}

// join places a finished step at the barrier: each group's segment is
// rebased from its machine clock to the step's start, the clock moves to
// the slowest group's finish, and the step's start is returned.
func (c *lockstep) join(outs []*taskResult) float64 {
	start := c.clock
	for i, o := range outs {
		if o == nil {
			continue
		}
		seg := o.segs[0]
		c.clock = max(c.clock, start+seg.dur)
		c.timeline.MergeGroup(i, start-seg.start, seg.log)
		c.res.TunedOps += o.res.TunedOps
		c.res.CachedOps += o.res.CachedOps
		c.res.DegradedOps += o.res.DegradedOps
	}
	return start
}

// collective charges one modeled cross-group transfer to the clock and
// stamps it on every group's timeline row, each event labeled with its own
// group as the source and the collective's destination ("all groups" for an
// all-gather, a specific group for a gather) so overlapping collectives
// stay distinguishable in the Gantt legend.
func (c *lockstep) collective(groups int, name, dst string, secs float64) {
	for i := 0; i < groups && secs > 0; i++ {
		c.timeline.AddGroupArgs(i, trace.KindComm, name, c.clock, secs,
			map[string]string{"src": fmt.Sprintf("group%d", i), "dst": dst})
	}
	c.charge(secs)
}

func (c *lockstep) charge(secs float64) {
	c.clock += secs
	c.comm += secs
}

// runDataParallel shards the batch across the groups as a sequence of
// lockstep steps. The head — everything before the fully-connected tail —
// runs batch-sharded, each group on its slice of the batch. Networks whose
// graph ends in an fc tail (hybridTail) then all-gather the activations and
// run the tail column-sharded at the full batch, one step per layer, each
// group loading only 1/G of the fc weights (swCaffe's split); everything
// else is the same run with an empty tail, closed by the modeled gather of
// the shard outputs.
func (e *Engine) runDataParallel(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	G, B := opts.Groups, g.Batch
	shards, err := cluster.ShardBatch(B, G)
	if err != nil {
		return nil, fmt.Errorf("infer %s: %w", g.Name, err)
	}
	fleet, err := cluster.New(G)
	if err != nil {
		return nil, fmt.Errorf("infer %s: %w", g.Name, err)
	}
	topo := g.Topo()
	tailStart := hybridTail(g, topo)
	hybrid := tailStart < len(topo)
	// headOut is what the head hands on: the graph output when there is no
	// tail, else the activations feeding it.
	headOut, spanFmt, detail := g.Output, "exec shard b%d", ""
	if hybrid {
		headOut, spanFmt, detail = g.Input, "exec conv head b%d", " (hybrid fc tail)"
		if tailStart > 0 {
			headOut = topo[tailStart-1].Out
		}
	}

	// Resolve schedules once per distinct shard size, sequentially — the
	// library and tuner are never touched while groups execute. Only the
	// head resolves at shard batch; the tail executes as full-batch column
	// shards planned separately. A zero shard (batch < groups) has no graph
	// to build: that group sits the head out.
	plans := map[int]*shardPlan{}
	for _, b := range shards {
		if b == 0 || plans[b] != nil {
			continue
		}
		sg, err := buildShard(g, opts, b)
		if err != nil {
			return nil, err
		}
		st := sg.Topo()
		if len(st) != len(topo) {
			return nil, fmt.Errorf("infer %s: batch-%d shard has %d nodes, the full graph %d",
				g.Name, b, len(st), len(topo))
		}
		if plans[b], err = e.planShard(ctx, sg, st[:tailStart], opts); err != nil {
			return nil, err
		}
	}
	tails, err := e.planTail(ctx, g, opts, topo[tailStart:])
	if err != nil {
		return nil, err
	}
	opts.job.SetDetail(fmt.Sprintf("executing on %d groups%s", G, detail))

	var fullIn *tensor.Tensor
	if opts.Functional {
		for _, name := range []string{g.Input, headOut} {
			if err := checkBatchLast(mustDims(g, name), B); err != nil {
				return nil, fmt.Errorf("infer %s: tensor %s: %w", g.Name, name, err)
			}
		}
		fullIn = fullInput(g)
	}
	offs := offsets(shards)

	res := &Result{
		Net: g.Name, Batch: B, FLOPs: g.FLOPs(),
		Plan: plans[shards[0]].plan, Mode: ModeDataParallel,
	}
	clk := &lockstep{timeline: &trace.Log{}, res: res}

	// Head step. Every shard sees its true slice of the whole-batch input,
	// so the gathered activations are the whole-batch answer.
	tasks := make([]*task, G)
	active := make([]string, 0, G)
	for i, b := range shards {
		if b == 0 {
			continue
		}
		sp := plans[b]
		tasks[i] = &task{
			sp: sp, nodes: sp.g.Topo()[:tailStart], reps: 1, span: fmt.Sprintf(spanFmt, b),
			prep: func(ts map[string]*tensor.Tensor) {
				copyBatchSlice(ts[sp.g.Input], b, 0, fullIn, B, offs[i], b)
			},
		}
		active = append(active, fmt.Sprintf("group%d", i))
	}
	outs, err := e.runStep(ctx, opts, fleet, tasks)
	if err != nil {
		return nil, err
	}
	clk.join(outs)
	res.Layers = outs[0].res.Layers
	var fullAct *tensor.Tensor
	if opts.Functional {
		fullAct = tensor.New(headOut, mustDims(g, headOut)...)
		for i, o := range outs {
			if o != nil {
				copyBatchSlice(fullAct, B, offs[i], o.ts[headOut], shards[i], 0, shards[i])
			}
		}
	}
	headBytes := int64(elemCount(mustDims(g, headOut))) * 4
	switch {
	case !hybrid:
		// The closing gather of a tail-less run is one event on the lead
		// group's row, fed only by the groups that ran.
		secs := cluster.GatherSeconds(headBytes, len(active))
		clk.timeline.AddGroupArgs(0, trace.KindComm, "gather outputs", clk.clock, secs,
			map[string]string{"src": strings.Join(active, ","), "dst": "group0"})
		clk.charge(secs)
	case tailStart > 0:
		clk.collective(G, "allgather "+headOut, "all groups", cluster.AllGatherSeconds(headBytes, G))
	}

	// Tail steps: shard gemms (or the redundant full elementwise op),
	// barrier, then the modeled collective — all-gather between layers, a
	// plain gather onto the lead group for the final output.
	for ti, tp := range tails {
		n := tp.node
		in := fullAct
		for i := range tasks {
			mp := tp.minis[tp.widths[i]]
			if mp == nil {
				tasks[i] = nil // a gemm shard with zero columns sits the step out
				continue
			}
			tasks[i] = &task{
				sp: mp, nodes: mp.g.Topo(), reps: 1, span: "exec fc " + n.Name,
				prep: func(ts map[string]*tensor.Tensor) {
					copyFlat(ts["input"], in)
					if tp.fullW != nil {
						copyRows(ts["weight"], 0, tp.fullW, tp.offs[i], tp.widths[i], n.Gemm.K)
					}
				},
			}
		}
		if outs, err = e.runStep(ctx, opts, fleet, tasks); err != nil {
			return nil, err
		}
		// One report line per net layer: the lead group's shard run,
		// restamped onto the fleet clock, carrying the whole layer's FLOPs.
		layer := outs[0].res.Layers[0]
		layer.Start = clk.join(outs)
		if opts.Functional {
			fullAct = outs[0].ts["out"]
		}
		if n.Kind == graph.Gemm {
			layer.FLOPs = n.Gemm.FLOPs()
			bytes := int64(elemCount(mustDims(g, n.Out))) * 4
			if ti == len(tails)-1 {
				clk.collective(G, "gather "+n.Name, "group0", cluster.GatherSeconds(bytes, G))
			} else {
				clk.collective(G, "allgather "+n.Name, "all groups", cluster.AllGatherSeconds(bytes, G))
			}
			if opts.Functional {
				fullAct = tensor.New(n.Out, mustDims(g, n.Out)...)
				for i, o := range outs {
					if o != nil {
						copyRows(fullAct, tp.offs[i], o.ts["out"], 0, tp.widths[i], B)
					}
				}
			}
		}
		res.Layers = append(res.Layers, layer)
	}

	res.Seconds = clk.clock
	res.CommSeconds = clk.comm
	for i := 0; i < G; i++ {
		// A group that never ran (zero shard, no tail) still appears, with
		// zero batch and zero seconds, keeping the scale-out story honest.
		c := fleet.Machine(i).Counters
		res.Counters.Accumulate(c)
		res.Groups = append(res.Groups, GroupResult{
			Group: i, Batch: shards[i], Seconds: fleet.Machine(i).Elapsed(), Counters: c,
		})
	}
	res.Timeline = clk.timeline
	res.Output = fullAct
	publishFleet(opts, fleet, res)
	return res, nil
}

// hybridTail returns the topo index where the fully-connected tail of a
// graph starts, or len(topo) — an empty tail — when the hybrid
// data-parallel split does not apply. The tail is a suffix of the topo
// order, starting at the first Gemm node, forming a single chain of Gemm
// and ReLU nodes whose output features vectorize. This is swCaffe's hybrid
// parallelism: convolutions are compute-bound and shard well by batch, but
// fully-connected layers are weight-DMA-bound — running them whole on
// every group would reload the full weight matrices G times and cap the
// fleet speedup, so they shard by output columns instead.
func hybridTail(g *graph.Graph, topo []*graph.Node) int {
	start := 0
	for start < len(topo) && topo[start].Kind != graph.Gemm {
		start++
	}
	cur := g.Input
	if start > 0 {
		cur = topo[start-1].Out
	}
	for _, n := range topo[start:] {
		switch n.Kind {
		case graph.Gemm:
			if len(n.In) != 2 || n.In[0] != cur || n.Gemm.M%sw26010.VectorWidth != 0 {
				return len(topo)
			}
		case graph.ReLU:
			if len(n.In) != 1 || n.In[0] != cur {
				return len(topo)
			}
		default:
			return len(topo)
		}
		cur = n.Out
	}
	return start
}

// shardCols splits m output features across G groups in whole vector
// blocks, extras to the leading groups — every shard stays vectorizable
// and a trailing group may legitimately receive zero columns of a tiny
// layer (it just sits that phase out).
func shardCols(m, G int) []int {
	blocks := m / sw26010.VectorWidth
	base, extra := blocks/G, blocks%G
	w := make([]int, G)
	for i := range w {
		w[i] = base * sw26010.VectorWidth
		if i < extra {
			w[i] += sw26010.VectorWidth
		}
	}
	return w
}

// buildGemmShard builds the single-node graph of one group's column shard
// of a fully-connected layer: out[width×B] = weight[width×K] × in[K×B].
func buildGemmShard(net string, n *graph.Node, width, batch int) (*graph.Graph, error) {
	sg := graph.New(fmt.Sprintf("%s_%s_w%d", net, n.Name, width), batch)
	if _, err := sg.AddTensor("input", []int{n.Gemm.K, batch}, false); err != nil {
		return nil, err
	}
	sg.Input = "input"
	if _, err := sg.AddTensor("weight", []int{width, n.Gemm.K}, true); err != nil {
		return nil, err
	}
	if _, err := sg.AddTensor("out", []int{width, batch}, false); err != nil {
		return nil, err
	}
	if err := sg.AddNode(&graph.Node{
		Name: n.Name, Kind: graph.Gemm, In: []string{"input", "weight"}, Out: "out",
		Gemm: gemm.Params{M: width, N: batch, K: n.Gemm.K},
	}); err != nil {
		return nil, err
	}
	sg.Output = "out"
	return sg, sg.Validate()
}

// buildEltwiseShard builds the single-node graph of a tail elementwise op
// over the full activation (every group runs it redundantly after the
// all-gather, like the duplicated activations of tensor parallelism).
func buildEltwiseShard(net string, n *graph.Node, feats, batch int) (*graph.Graph, error) {
	sg := graph.New(fmt.Sprintf("%s_%s_full", net, n.Name), batch)
	if _, err := sg.AddTensor("input", []int{feats, batch}, false); err != nil {
		return nil, err
	}
	sg.Input = "input"
	if _, err := sg.AddTensor("out", []int{feats, batch}, false); err != nil {
		return nil, err
	}
	if err := sg.AddNode(&graph.Node{
		Name: n.Name, Kind: n.Kind, In: []string{"input"}, Out: "out",
	}); err != nil {
		return nil, err
	}
	sg.Output = "out"
	return sg, sg.Validate()
}

// tailPlan is one fc-tail node's sharding: per-group column widths and row
// offsets, and the planned single-node graph per distinct width. An
// elementwise op has all-zero widths and its one full-activation graph
// under key 0, so minis[widths[i]] is group i's work either way — nil when
// a gemm shard has no columns. fullW carries the functional-mode full
// weight values the gemm shards slice their rows from.
type tailPlan struct {
	node   *graph.Node
	widths []int
	offs   []int
	minis  map[int]*shardPlan
	fullW  *tensor.Tensor
}

// planTail shards every node of the fully-connected tail across the groups
// and resolves the shard graphs — sequentially, like all schedule
// resolution.
func (e *Engine) planTail(ctx context.Context, g *graph.Graph, opts Options, tail []*graph.Node) ([]*tailPlan, error) {
	G, B := opts.Groups, g.Batch
	tails := make([]*tailPlan, 0, len(tail))
	for _, n := range tail {
		tp := &tailPlan{node: n, widths: make([]int, G), minis: map[int]*shardPlan{}}
		tails = append(tails, tp)
		if n.Kind != graph.Gemm {
			mg, err := buildEltwiseShard(g.Name, n, elemCount(mustDims(g, n.Out))/B, B)
			if err != nil {
				return nil, fmt.Errorf("infer %s: node %s: %w", g.Name, n.Name, err)
			}
			tp.minis[0] = &shardPlan{g: mg, resolved: map[string]*resolvedOp{}, plan: planBuffers(mg)}
			continue
		}
		tp.widths = shardCols(n.Gemm.M, G)
		tp.offs = offsets(tp.widths)
		for _, w := range tp.widths {
			if w == 0 || tp.minis[w] != nil {
				continue
			}
			mg, err := buildGemmShard(g.Name, n, w, B)
			if err != nil {
				return nil, fmt.Errorf("infer %s: node %s: %w", g.Name, n.Name, err)
			}
			if tp.minis[w], err = e.planShard(ctx, mg, mg.Topo(), opts); err != nil {
				return nil, err
			}
		}
		if opts.Functional {
			tp.fullW = tensor.New(n.In[1], mustDims(g, n.In[1])...)
			fillWeight(tp.fullW, n.Gemm.K)
		}
	}
	return tails, nil
}

// runPipeline partitions the net into Groups balanced stages by per-layer
// tuned cost and streams Batch micro-batches of size 1 through them: a
// placement (probe, partition, one task per stage with reps = micro-batch
// count) executed as a single step, then rebased from the stages' machine
// clocks onto the pipeline schedule over measured per-stage micro-batch
// durations and modeled stage hand-offs. Timed-only.
func (e *Engine) runPipeline(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	if opts.Functional {
		return nil, fmt.Errorf("infer %s: pipeline mode is timed-only (activations stream between groups; use data parallelism for functional runs)", g.Name)
	}
	G := opts.Groups
	M := g.Batch // micro-batch size 1: one micro-batch per sample
	mg, err := buildShard(g, opts, 1)
	if err != nil {
		return nil, err
	}
	topo := mg.Topo()
	if len(topo) < G {
		return nil, fmt.Errorf("infer %s: %d nodes cannot fill %d pipeline stages", g.Name, len(topo), G)
	}
	sp, err := e.planShard(ctx, mg, topo, opts)
	if err != nil {
		return nil, err
	}

	// Probe pass: one sequential micro-batch on a scratch machine yields
	// the per-layer tuned costs the partitioner balances. Purely simulated
	// quantities, so the partition is deterministic.
	opts.job.SetDetail("partitioning pipeline stages")
	probe, err := e.runTask(ctx, task{sp: sp, nodes: topo, reps: 1},
		execEnv{m: sw26010.NewMachine(), group: -1, skipBaseline: true})
	if err != nil {
		return nil, err
	}
	costs := make([]float64, len(probe.res.Layers))
	for i, l := range probe.res.Layers {
		costs[i] = l.Seconds
	}
	stages, err := cluster.PartitionBalanced(costs, G)
	if err != nil {
		return nil, fmt.Errorf("infer %s: %w", g.Name, err)
	}
	xfer := make([]float64, G-1)
	for s := 0; s < G-1; s++ {
		xfer[s] = cluster.StageTransferSeconds(cutBytes(mg, topo, stages[s][1]))
	}

	// Execute: stage s runs its node range M times on group s's machine.
	// Stages are independent machines, so they run concurrently; the
	// schedule joins them afterwards in fixed order.
	opts.job.SetDetail(fmt.Sprintf("executing %d stages x %d micro-batches", G, M))
	fleet, err := cluster.New(G)
	if err != nil {
		return nil, fmt.Errorf("infer %s: %w", g.Name, err)
	}
	tasks := make([]*task, G)
	for s := range tasks {
		tasks[s] = &task{sp: sp, nodes: topo[stages[s][0]:stages[s][1]], reps: M,
			span: fmt.Sprintf("exec stage %d x%d", s, M)}
	}
	outs, err := e.runStep(ctx, opts, fleet, tasks)
	if err != nil {
		return nil, err
	}
	d := make([][]float64, G)
	for s, o := range outs {
		for _, seg := range o.segs {
			d[s] = append(d[s], seg.dur)
		}
	}
	sched, err := cluster.SchedulePipeline(d, xfer)
	if err != nil {
		return nil, fmt.Errorf("infer %s: %w", g.Name, err)
	}

	// Resolution counts describe the net once, not once per micro-batch:
	// they come from the probe pass.
	res := &Result{
		Net: g.Name, Batch: g.Batch, FLOPs: g.FLOPs(), Plan: sp.plan,
		Mode:        ModePipeline,
		Seconds:     sched.TotalSeconds,
		CommSeconds: sched.CommSeconds,
		TunedOps:    probe.res.TunedOps, CachedOps: probe.res.CachedOps, DegradedOps: probe.res.DegradedOps,
		Timeline: &trace.Log{},
		Pipeline: &PipelineReport{
			MicroBatches:   M,
			BubbleFraction: sched.BubbleFraction,
		},
	}
	for s, o := range outs {
		// Rebase each micro-run from its machine-local clock onto the
		// fleet-schedule clock; intra-run structure shifts rigidly.
		for mi, seg := range o.segs {
			res.Timeline.MergeGroup(s, sched.Start[s][mi]-seg.start, seg.log)
			if s < G-1 && xfer[s] > 0 {
				res.Timeline.AddGroupArgs(s, trace.KindComm,
					fmt.Sprintf("stage %d->%d", s, s+1), sched.Finish[s][mi], xfer[s],
					map[string]string{
						"src": fmt.Sprintf("group%d", s),
						"dst": fmt.Sprintf("group%d", s+1),
					})
			}
		}
		res.Counters.Accumulate(fleet.Machine(s).Counters)
		stage := StageReport{Group: s, Seconds: d[s][0]}
		for _, n := range tasks[s].nodes {
			stage.Nodes = append(stage.Nodes, n.Name)
		}
		if s < G-1 {
			stage.TransferSeconds = xfer[s]
		}
		res.Pipeline.Stages = append(res.Pipeline.Stages, stage)
		res.Groups = append(res.Groups, GroupResult{
			Group: s, Batch: 1, Seconds: sched.BusySeconds[s],
			Counters: fleet.Machine(s).Counters,
		})
		// Fleet-clock layer views for micro-batch 0.
		for _, l := range o.res.Layers {
			l.Start += sched.Start[s][0] - o.segs[0].start
			res.Layers = append(res.Layers, l)
		}
	}
	publishFleet(opts, fleet, res)
	return res, nil
}

// cutBytes sums the bytes of intermediate activations crossing the stage
// boundary before topo index cut: tensors produced by a node before the cut
// and read by a node at or after it. Parameters and the graph input stay
// resident on their stage's group and do not transfer.
func cutBytes(g *graph.Graph, topo []*graph.Node, cut int) int64 {
	producer := map[string]int{}
	for i, n := range topo {
		producer[n.Out] = i
	}
	seen := map[string]bool{}
	var bytes int64
	for j := cut; j < len(topo); j++ {
		for _, in := range topo[j].In {
			p, ok := producer[in]
			if !ok || p >= cut || seen[in] {
				continue
			}
			seen[in] = true
			bytes += int64(elemCount(mustDims(g, in))) * 4
		}
	}
	return bytes
}

// mustDims returns a graph tensor's logical dims (validated graphs always
// have their tensors declared).
func mustDims(g *graph.Graph, name string) []int {
	t, _ := g.Tensor(name)
	return t.Dims
}

// publishFleet writes a fleet run's instrumentation: per-group and
// aggregate machine counters (cluster.Fleet.Publish), the aggregate run
// gauges and the modeled communication time. Called after the groups join,
// sequentially — metric values are pure simulated-machine quantities, so
// snapshots stay bit-identical across worker counts and interleavings.
func publishFleet(opts Options, fleet *cluster.Fleet, res *Result) {
	if opts.Metrics == nil {
		return
	}
	fleet.Publish(opts.Metrics)
	publishRun(opts.Metrics, res)
	opts.Metrics.Gauge("infer_comm_seconds").Set(res.CommSeconds)
}
