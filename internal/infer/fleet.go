package infer

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"swatop/internal/cluster"
	"swatop/internal/graph"
	"swatop/internal/sw26010"
	"swatop/internal/tensor"
	"swatop/internal/trace"
)

// This file is the core-group fleet runtime: the scale-out path of Run when
// Options.Groups > 1. Every placement keeps the repo's determinism invariant
// by construction — schedules resolve sequentially up front, every group
// executes on its own machine with its own tensor table, concurrent groups
// write metrics only under disjoint cluster.GroupPrefix names, and all
// aggregation (counters, timelines, the fleet clock) happens after the
// groups join, in fixed group order.

// runFleet validates the fleet configuration, describes the run as a
// placement — data-parallel or pipelined — and executes it.
func (e *Engine) runFleet(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	if opts.Groups > sw26010.NumCG {
		return nil, fmt.Errorf("infer %s: %d groups, but one SW26010 node has %d core groups",
			g.Name, opts.Groups, sw26010.NumCG)
	}
	if opts.Builder == nil {
		return nil, fmt.Errorf("infer %s: fleet mode needs Options.Builder to rebuild the net at shard batch sizes", g.Name)
	}
	place := e.dataParallel
	if opts.Pipeline {
		place = e.pipeline
	}
	p, err := place(ctx, g, opts)
	if err != nil {
		return nil, err
	}
	return e.runPlacement(ctx, g, opts, p)
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
	if sg.NumNodes() != g.NumNodes() {
		return nil, fmt.Errorf("infer %s: batch-%d shard has %d nodes, the full graph %d",
			g.Name, batch, sg.NumNodes(), g.NumNodes())
	}
	return sg, nil
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

// runSteps executes steps on the fleet in one pass: core group i runs its
// task of each step in step order — a nil task sits the step out, its
// machine clock untouched — on its own goroutine, or in group order for the
// serial determinism reference, and the groups join once. Each group runs on
// its own machine with a scoped registry (cluster.GroupPrefix), so
// concurrent groups touch disjoint metric names. A group stops at its first
// error; the first error in group order wins. outs[s][i] is group i's result
// of steps[s].
func (e *Engine) runSteps(ctx context.Context, opts Options, fleet *cluster.Fleet, steps []*step) ([][]*taskResult, error) {
	outs, errs := make([][]*taskResult, len(steps)), make([]error, fleet.Size())
	for s := range outs {
		outs[s] = make([]*taskResult, fleet.Size())
	}
	run := func(i int) {
		env := execEnv{m: fleet.Machine(i), reg: opts.Metrics.Scope(cluster.GroupPrefix(i)), obs: opts.Observer,
			spans: opts.Spans, group: i, functional: opts.Functional, tolerance: opts.Tolerance, skipBaseline: true}
		for s, st := range steps {
			if t := st.tasks[i]; t != nil && errs[i] == nil {
				outs[s][i], errs[i] = e.runTask(ctx, *t, env)
			}
		}
	}
	var wg sync.WaitGroup
	for i := range errs {
		if opts.serialFleet {
			run(i)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(i)
		}()
	}
	wg.Wait()
	return outs, cmp.Or(errs...)
}

// placement is a fleet run described as data: its steps in topo order and
// what each core group runs of each. dataParallel and pipeline build one;
// runPlacement executes any.
type placement struct {
	mode   string // ModeDataParallel or ModePipeline
	detail string // the live job's detail while it executes
	batch  []int  // each group's GroupResult.Batch
	reps   int    // every task's repetitions: a pipeline's micro-batches, or 1
	steps  []*step
}

// cut is how the groups running a step divide its activation.
type cut int

const (
	whole   cut = iota // every running group holds all of it
	byBatch            // each group holds a slice of the batch columns
	byRows             // each group holds a slice of a gemm's output features
)

// step is one topo-order node slice of a placement. tasks[i] is group i's
// share — its shard plan, nodes and repetitions — or nil when the group sits
// the step out; in a sliced step group i holds [offs[i], offs[i]+sizes[i]).
// out names the tensor the step writes (every task's graph shares the full
// graph's names), bytes what the step hands on.
type step struct {
	nodes       []*graph.Node
	tasks       []*task
	cut         cut
	sizes, offs []int
	out         string
	name        string // the subject of the collective's label
	bytes       int64
	weight      *tensor.Tensor // a functional byRows step's full weight
}

// dataParallel places a run across the batch. The head of the net runs
// batch-sharded, each group on its slice of the batch. A net ending in an fc
// tail (hybridTail) then runs the tail one step per layer at the full batch:
// each gemm column-sharded, each group loading only 1/G of its weights
// (swCaffe's split) and clamping its own columns when it carries the ReLU.
func (e *Engine) dataParallel(ctx context.Context, g *graph.Graph, opts Options) (*placement, error) {
	G, B := opts.Groups, g.Batch
	shards, err := cluster.ShardBatch(B, G)
	if err != nil {
		return nil, fmt.Errorf("infer %s: %w", g.Name, err)
	}
	topo := g.Topo()
	tailStart := hybridTail(topo)
	p := &placement{mode: ModeDataParallel, batch: shards, reps: 1, detail: fmt.Sprintf("executing on %d groups", G)}
	head := &step{nodes: topo[:tailStart], cut: byBatch, sizes: shards, out: g.Output, name: "outputs"}
	span := "exec shard b%d"
	if tailStart < len(topo) {
		p.detail += " (hybrid fc tail)"
		span, head.out = "exec conv head b%d", topo[tailStart-1].Out
		head.name = head.out
	}
	for _, name := range []string{g.Input, head.out} {
		// The functional batch copies rely on the repo-wide batch-last
		// convention.
		if dims := mustDims(g, name); opts.Functional && (len(dims) == 0 || dims[len(dims)-1] != B) {
			return nil, fmt.Errorf("infer %s: tensor %s: tensor dims %v do not end in the batch extent %d",
				g.Name, name, dims, B)
		}
	}
	p.steps = append(p.steps, head)
	for _, n := range topo[tailStart:] {
		st := &step{nodes: []*graph.Node{n}, cut: byRows, out: n.Out, name: n.Name}
		// Columns go out in whole vector blocks, extras to the leading
		// groups: every shard stays vectorizable, and a trailing group may
		// receive no columns of a tiny layer.
		if st.sizes, err = cluster.ShardBatch(n.Gemm.M/sw26010.VectorWidth, G); err != nil {
			return nil, fmt.Errorf("infer %s: node %s: %w", g.Name, n.Name, err)
		}
		for i := range st.sizes {
			st.sizes[i] *= sw26010.VectorWidth
		}
		if opts.Functional {
			st.weight = tensor.New(n.In[1], mustDims(g, n.In[1])...)
			fillWeight(st.weight, n.Gemm.K)
		}
		p.steps = append(p.steps, st)
	}

	// Schedules resolve sequentially, once per distinct slice of a step — the
	// library and tuner are never touched while groups execute. A group with
	// an empty slice (a zero shard of a batch smaller than the fleet, a gemm
	// shard without columns) sits the step out.
	for _, st := range p.steps {
		st.tasks, st.offs = make([]*task, G), make([]int, G)
		st.bytes = int64(elemCount(mustDims(g, st.out))) * 4
		plans, off := map[int]*shardPlan{}, 0
		for i, size := range st.sizes {
			st.offs[i], off = off, off+size
			if size == 0 {
				continue
			}
			if plans[size] == nil {
				var sg *graph.Graph
				if st.cut == byBatch {
					sg, err = buildShard(g, opts, size)
				} else if sg, err = buildNodeShard(g.Name, st.nodes[0], size, B); err != nil {
					err = fmt.Errorf("infer %s: node %s: %w", g.Name, st.nodes[0].Name, err)
				}
				if err != nil {
					return nil, err
				}
				if plans[size], err = e.planShard(ctx, sg, sg.Topo()[:len(st.nodes)], opts); err != nil {
					return nil, err
				}
			}
			name := "exec fc " + st.nodes[0].Name
			if st.cut == byBatch {
				name = fmt.Sprintf(span, size)
			}
			st.tasks[i] = &task{sp: plans[size], nodes: plans[size].g.Topo()[:len(st.nodes)], reps: 1, span: name}
		}
	}
	return p, nil
}

// hybridTail returns the topo index where the fully-connected tail of a
// graph starts, or len(topo) — an empty tail — when the hybrid
// data-parallel split does not apply. The tail is a suffix of the topo
// order, starting at the first Gemm node after the first node, forming a
// single chain of Gemm nodes whose output features vectorize. This
// is swCaffe's hybrid parallelism: convolutions are compute-bound and shard
// well by batch, but fully-connected layers are weight-DMA-bound — running
// them whole on every group would reload the full weight matrices G times
// and cap the fleet speedup, so they shard by output columns instead.
func hybridTail(topo []*graph.Node) int {
	start := 1 // the head holds at least the first node
	for start < len(topo) && topo[start].Kind != graph.Gemm {
		start++
	}
	cur := topo[start-1].Out
	for _, n := range topo[start:] {
		if n.Kind != graph.Gemm || len(n.In) != 2 || n.In[0] != cur || n.Gemm.M%sw26010.VectorWidth != 0 {
			return len(topo)
		}
		cur = n.Out
	}
	return start
}

// buildNodeShard builds the single-node graph one group runs of an fc-tail
// gemm, under the node's own tensor names, at the full batch: its column
// shard of rows output features, out[rows×B] = weight[rows×K] × in[K×B],
// ReLU epilogue included, so each group clamps its own rows.
func buildNodeShard(net string, n *graph.Node, rows, batch int) (*graph.Graph, error) {
	sg := graph.New(fmt.Sprintf("%s_%s_w%d", net, n.Name, rows), batch)
	node := *n
	node.Gemm.M = rows
	if _, err := sg.AddTensor(n.In[1], []int{rows, n.Gemm.K}, true); err != nil {
		return nil, err
	}
	if _, err := sg.AddTensor(n.In[0], []int{n.Gemm.K, batch}, false); err != nil {
		return nil, err
	}
	if _, err := sg.AddTensor(n.Out, []int{rows, batch}, false); err != nil {
		return nil, err
	}
	sg.Input, sg.Output = n.In[0], n.Out
	if err := sg.AddNode(&node); err != nil {
		return nil, err
	}
	return sg, sg.Validate()
}

// pipeline places a run as Groups balanced stages streaming Batch
// micro-batches of size 1: stage s runs its node range once per micro-batch
// on group s. The cut comes from a probe — one micro-batch on a scratch
// machine — whose per-layer tuned costs PartitionBalanced balances; they are
// simulated quantities, so the partition is deterministic. Timed-only.
func (e *Engine) pipeline(ctx context.Context, g *graph.Graph, opts Options) (*placement, error) {
	if opts.Functional {
		return nil, fmt.Errorf("infer %s: pipeline mode is timed-only (activations stream between groups; use data parallelism for functional runs)", g.Name)
	}
	G, M := opts.Groups, g.Batch
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
	opts.job.SetDetail("partitioning pipeline stages")
	probe, err := e.runTask(ctx, task{sp: sp, nodes: topo, reps: 1},
		execEnv{m: sw26010.NewMachine(), group: -1, skipBaseline: true})
	if err != nil {
		return nil, err
	}
	// One cost per node: a relayout runs with, and is charged to, its reader.
	costs := make([]float64, 0, len(topo))
	relayouts := 0.0
	for _, l := range probe.res.Layers {
		if l.Kind == KindRelayout {
			relayouts += l.Seconds
			continue
		}
		costs, relayouts = append(costs, l.Seconds+relayouts), 0
	}
	stages, err := cluster.PartitionBalanced(costs, G)
	if err != nil {
		return nil, fmt.Errorf("infer %s: %w", g.Name, err)
	}
	p := &placement{mode: ModePipeline, batch: make([]int, G), reps: M, detail: fmt.Sprintf("executing %d stages x %d micro-batches", G, M)}
	for s, r := range stages {
		st := &step{nodes: topo[r[0]:r[1]], tasks: make([]*task, G), bytes: cutBytes(mg, topo, r[1])}
		st.tasks[s] = &task{sp: sp, nodes: st.nodes, reps: M, span: fmt.Sprintf("exec stage %d x%d", s, M)}
		p.steps = append(p.steps, st)
		p.batch[s] = 1
	}
	return p, nil
}

// comm is a modeled cross-group transfer, stamped as one timeline event on
// each group in from.
type comm struct {
	label, dst string
	from       []int
	secs       float64
}

// commAfter is the one transfer rule, read off the placement: a transfer is
// charged wherever step i and what follows it are held differently. A sliced
// step all-gathers when another step follows, since that one needs it whole,
// and gathers onto group 0 when it ends the net; either collective takes in
// the groups holding a slice (cluster.CollectiveSeconds' n). A step run
// whole hands its boundary to a group of the next step that did not run it —
// a pipeline stage to the next stage's group. A whole step whose successor
// runs only where it ran, and a last whole step, hand nothing on.
func (p *placement) commAfter(i int) comm {
	st, last := p.steps[i], i == len(p.steps)-1
	var holders []int
	for gi, t := range st.tasks {
		if t != nil {
			holders = append(holders, gi)
		}
	}
	switch {
	case st.cut != whole && !last:
		return comm{"allgather " + st.name, "all groups", holders, cluster.CollectiveSeconds(st.bytes, len(holders))}
	case st.cut != whole:
		return comm{"gather " + st.name, "group0", holders, cluster.CollectiveSeconds(st.bytes, len(holders))}
	case !last:
		for gi, t := range p.steps[i+1].tasks {
			if t != nil && st.tasks[gi] == nil {
				return comm{fmt.Sprintf("stage %d->%d", i, i+1), fmt.Sprintf("group%d", gi), holders,
					cluster.StageTransferSeconds(st.bytes)}
			}
		}
	}
	return comm{}
}

// runPlacement executes p on a fresh fleet and assembles the Result. Every
// placement runs the same way: the groups run their tasks in step order
// (runSteps), in one pass on a timed run, while a functional run joins after
// each step to scatter and gather the activation. After the join, one clock
// places every task repetition on the fleet timeline: cluster.SchedulePipeline
// over the steps, each repetition lasting as long as its slowest group's and
// each step's transfer (commAfter) between it and the next; the last step's
// collective follows the schedule. Lockstep data parallelism is the
// one-repetition case. Each group reports its machine's own Elapsed().
func (e *Engine) runPlacement(ctx context.Context, g *graph.Graph, opts Options, p *placement) (*Result, error) {
	fleet, err := cluster.New(opts.Groups)
	if err != nil {
		return nil, fmt.Errorf("infer %s: %w", g.Name, err)
	}
	opts.job.SetDetail(p.detail)
	// The buffer plan reported is group 0's for the first step.
	res := &Result{Net: g.Name, Batch: g.Batch, FLOPs: g.FLOPs(), Plan: p.steps[0].tasks[0].sp.plan,
		Mode: p.mode, Timeline: &trace.Log{}}
	var outs [][]*taskResult
	if opts.Functional {
		act := tensor.New(g.Input, mustDims(g, g.Input)...)
		fillActivation(act)
		for _, st := range p.steps {
			st.scatter(act, g.Batch)
			ran, err := e.runSteps(ctx, opts, fleet, []*step{st})
			if err != nil {
				return nil, err
			}
			outs, act = append(outs, ran[0]), st.gather(g, ran[0])
		}
		res.Output = act
	} else if outs, err = e.runSteps(ctx, opts, fleet, p.steps); err != nil {
		return nil, err
	}

	last := len(p.steps) - 1
	d, comms, xfer := make([][]float64, len(p.steps)), make([]comm, len(p.steps)), make([]float64, last)
	for i := range p.steps {
		comms[i], d[i] = p.commAfter(i), make([]float64, p.reps)
		if i < last {
			xfer[i] = comms[i].secs
		}
		for _, o := range outs[i] {
			for m := 0; o != nil && m < p.reps; m++ {
				d[i][m] = max(d[i][m], o.segs[m].dur)
			}
		}
	}
	sched, err := cluster.SchedulePipeline(d, xfer)
	if err != nil {
		return nil, fmt.Errorf("infer %s: %w", g.Name, err)
	}
	res.Seconds = sched.TotalSeconds + comms[last].secs
	res.CommSeconds = sched.CommSeconds + comms[last].secs
	if p.mode == ModePipeline {
		res.Pipeline = &PipelineReport{MicroBatches: p.reps, BubbleFraction: sched.BubbleFraction}
	}

	// The merged timeline holds every repetition's events and one comm
	// event per holder: sized once, it is not regrown event by event.
	events := 0
	for i := range p.steps {
		for _, o := range outs[i] {
			for j := 0; o != nil && j < len(o.segs); j++ {
				events += len(o.segs[j].log.Events)
			}
		}
		events += p.reps * len(comms[i].from)
	}
	res.Timeline.Events = make([]trace.Event, 0, events)
	for i, st := range p.steps {
		// One report line per layer: the first running group's first
		// repetition on the fleet clock; a column-sharded gemm's line
		// carries the whole layer's FLOPs.
		lead := slices.IndexFunc(outs[i], func(o *taskResult) bool { return o != nil })
		for _, l := range outs[i][lead].res.Layers {
			l.Start = sched.Start[i][0] + (l.Start - outs[i][lead].segs[0].start)
			if st.cut == byRows {
				l.FLOPs = st.nodes[0].Gemm.FLOPs()
			}
			res.Layers = append(res.Layers, l)
		}
		if res.Pipeline != nil {
			stage := StageReport{Group: lead, Seconds: d[i][0], TransferSeconds: comms[i].secs}
			for _, n := range st.nodes {
				stage.Layers = append(stage.Layers, n.Name)
			}
			res.Pipeline.Stages = append(res.Pipeline.Stages, stage)
		}
		// Each repetition shifts rigidly onto the fleet clock; its transfer
		// follows. Resolutions count once per task.
		c := comms[i]
		for m, at := range sched.Start[i] {
			for gi, o := range outs[i] {
				if o != nil {
					res.Timeline.MergeGroup(gi, at-o.segs[m].start, o.segs[m].log)
				}
				if o != nil && m == 0 {
					res.TunedOps += o.res.TunedOps
					res.CachedOps += o.res.CachedOps
					res.DegradedOps += o.res.DegradedOps
				}
			}
			for _, gi := range c.from {
				if c.secs > 0 {
					res.Timeline.AddGroupArgs(gi, trace.KindComm, c.label, sched.Finish[i][m], c.secs,
						map[string]string{"src": fmt.Sprintf("group%d", gi), "dst": c.dst})
				}
			}
		}
	}
	for i, b := range p.batch {
		// A group that never ran (zero shard, no tail) still appears, with
		// zero seconds, keeping the scale-out story honest.
		m := fleet.Machine(i)
		res.Counters.Accumulate(m.Counters)
		res.Groups = append(res.Groups, GroupResult{Group: i, Batch: b, Seconds: m.Elapsed(), Counters: m.Counters})
	}
	if opts.Metrics != nil {
		// Machine counters per group and in aggregate, the run gauges and
		// the modeled communication time, written after the join.
		fleet.Publish(opts.Metrics)
		publishRun(opts.Metrics, res)
		opts.Metrics.Gauge("infer_comm_seconds").Set(res.CommSeconds)
	}
	return res, nil
}

// scatter sets each running group's functional input fill from the whole
// activation act: a batch shard's slice of it, or all of it — plus a column
// shard's rows of the full weight.
func (st *step) scatter(act *tensor.Tensor, batch int) {
	for i, t := range st.tasks {
		if t == nil {
			continue
		}
		t.prep = func(ts map[string]*tensor.Tensor) {
			switch st.cut {
			case byBatch:
				copyBatchSlice(ts[t.sp.g.Input], st.sizes[i], 0, act, batch, st.offs[i], st.sizes[i])
				return
			case byRows:
				copyRows(ts[st.nodes[0].In[1]], 0, st.weight, st.offs[i], st.sizes[i], st.nodes[0].Gemm.K)
			}
			copyFlat(ts[t.sp.g.Input], act)
		}
	}
}

// gather merges the groups' functional outputs of a step into the whole
// activation (after a whole step every group holds it).
func (st *step) gather(g *graph.Graph, outs []*taskResult) *tensor.Tensor {
	if st.cut == whole {
		return outs[0].ts[st.out]
	}
	act := tensor.New(st.out, mustDims(g, st.out)...)
	for i, o := range outs {
		switch {
		case o == nil:
		case st.cut == byBatch:
			copyBatchSlice(act, g.Batch, st.offs[i], o.ts[st.out], st.sizes[i], 0, st.sizes[i])
		default:
			copyRows(act, st.offs[i], o.ts[st.out], 0, st.sizes[i], g.Batch)
		}
	}
	return act
}

// cutBytes sums the bytes of intermediate activations crossing the stage
// boundary before topo index cut: tensors produced by a node before the cut
// and read by a node at or after it. Parameters and the graph input stay
// resident on their stage's group and do not transfer.
func cutBytes(g *graph.Graph, topo []*graph.Node, cut int) int64 {
	crossing := map[string]bool{} // produced before the cut, not yet counted
	for _, n := range topo[:cut] {
		crossing[n.Out] = true
	}
	var bytes int64
	for _, n := range topo[cut:] {
		for _, in := range n.In {
			if crossing[in] {
				crossing[in] = false
				bytes += int64(elemCount(mustDims(g, in))) * 4
			}
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
