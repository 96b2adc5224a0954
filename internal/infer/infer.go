// Package infer is the network inference runtime: it executes a whole
// internal/graph network on one simulated SW26010 core group, resolving
// each tuned operator's schedule from a cache.Library (tuning misses
// through the autotune pipeline), planning main-memory buffer reuse across
// layers, and merging the per-layer execution timelines into a single
// network timeline. It is the repo's equivalent of the paper's swCaffe
// integration: the tuned operators stop being isolated benchmarks and
// serve real end-to-end inference.
package infer

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"swatop/internal/autotune"
	"swatop/internal/baseline"
	"swatop/internal/cache"
	"swatop/internal/conv"
	"swatop/internal/costmodel"
	"swatop/internal/exec"
	"swatop/internal/faults"
	"swatop/internal/gemm"
	"swatop/internal/graph"
	"swatop/internal/ir"
	"swatop/internal/metrics"
	"swatop/internal/obsrv"
	"swatop/internal/reqtrace"
	"swatop/internal/search"
	"swatop/internal/sw26010"
	"swatop/internal/tensor"
	"swatop/internal/trace"
)

// Engine runs networks. Construct once (fitting the cost model is the
// per-machine offline calibration) and reuse across runs.
type Engine struct {
	model *costmodel.GemmModel

	// timings remembers the engine's own fresh-machine measurements (see
	// timed), one float per distinct schedule the process has resolved.
	mu      sync.Mutex
	timings map[string]float64
}

// NewEngine fits the autotuner's cost model.
func NewEngine() (*Engine, error) {
	m, err := costmodel.FitGemmModel()
	if err != nil {
		return nil, err
	}
	return &Engine{model: m, timings: map[string]float64{}}, nil
}

// Options configures one network run.
type Options struct {
	// Workers is the tuning concurrency (autotune.Options.Workers). The
	// resolved schedules — and therefore the network's machine seconds —
	// are identical for every worker count.
	Workers int
	// Library, when non-nil, is consulted before tuning and records fresh
	// results. Within a single run, repeated operator shapes resolve once
	// even without a library.
	Library *cache.Library
	// Fallback degrades failed tuning runs to the manual baseline
	// schedule (never cached) instead of failing the whole network.
	Fallback bool
	// NoTune disables the tuner entirely: operators resolve from the
	// library or — with Fallback set — degrade straight to the baseline
	// schedule. It is the serving daemon's circuit-breaker open state:
	// when tuning keeps failing, stop attempting it and serve degraded
	// results until a probe succeeds. Without Fallback, a library miss
	// under NoTune is an error.
	NoTune bool
	// Faults, when non-nil, is threaded into tuning measurements only;
	// the network's own execution machine stays clean — degradation is
	// the recovery path and must work while tuning is being sabotaged.
	Faults *faults.Injector
	// Retry / MaxCandidateFailures mirror the tuner's resilience knobs.
	Retry                autotune.Retry
	MaxCandidateFailures int
	// Searcher switches layer tuning to sample-efficient search
	// (autotune.Options.Searcher); SearchBudget caps the measured fraction
	// of each space and SearchSeed pins the searcher RNG. Nil Searcher
	// keeps the exhaustive walk. The attached Library doubles as the
	// transfer source: later layers seed their populations from earlier
	// layers' cached winners.
	Searcher     search.Searcher
	SearchBudget float64
	SearchSeed   uint64
	// Functional executes with real float32 data and checks every tuned
	// operator against its reference oracle (slow: use tiny networks).
	// Timed-only otherwise, fast-forwarding long loops — machine seconds
	// stay deterministic within each mode, but differ slightly between
	// them (the fast-forward extrapolation is near-exact, not exact).
	Functional bool
	// Tolerance is the per-layer max-abs-error bound in functional mode
	// (default 1e-3).
	Tolerance float64
	// SkipBaseline skips the per-layer manual-library comparison run.
	SkipBaseline bool
	// Metrics, when non-nil, receives run instrumentation: per-layer
	// schedule-resolution outcomes (infer_conv_cached_total, ...), conv
	// method selections (infer_method_winograd_total, ...), the arena peak,
	// the machine's lifetime counters (machine_*) and the DMA-hidden ratio.
	// It is threaded into tuning and node execution, and also attached to
	// Options.Library. During a fully cached run every recorded value is a
	// simulated-machine quantity, so snapshots are bit-identical across
	// Workers values.
	Metrics *metrics.Registry
	// Observer, when non-nil, receives the run's structured event log
	// (net.start/finish, per-layer resolution and execution, degradations)
	// and registers the run as a live "infer" job in the observer's
	// JobTracker. It is threaded into tuning, node execution and the
	// library. Purely observational: resolved schedules and every metric
	// are identical with and without an observer attached.
	Observer *obsrv.Observer
	// Spans, when non-nil, collects request-scoped tracing spans for the
	// serving path: one resolve span per operator node (wall time around
	// schedule resolution, with cached/degraded/method args) and one exec
	// span per core group (wall time around execution, with the group's
	// simulated machine milliseconds as an arg). Like Observer it is
	// purely observational — nil-inert, recorded off the simulated clock,
	// and never an input to schedule selection, so machine seconds are
	// bit-identical with and without it.
	Spans *reqtrace.Spans

	// Groups scales the run out across a fleet of simulated core groups
	// (1..sw26010.NumCG — one SW26010 node). 0 or 1 keeps today's
	// single-machine path exactly. Fleet runs need Builder set and force
	// SkipBaseline; schedules still resolve sequentially up front, only
	// execution parallelizes, and per-group machine seconds stay
	// bit-identical across worker counts and goroutine interleavings.
	Groups int
	// Pipeline switches a fleet run (Groups >= 2) from data parallelism
	// (the batch sharded across groups, each running the full net) to layer
	// pipelining: the net is partitioned into Groups balanced stages by
	// per-layer tuned cost and micro-batches of size 1 stream through them.
	// Timed-only: functional pipeline runs are rejected.
	Pipeline bool
	// Builder rebuilds the network at a different batch size (the facade
	// passes a graph.ByName closure). Fleet modes need it: data parallelism
	// runs shard-sized graphs, pipelining runs the batch-1 micro graph.
	Builder func(batch int) (*graph.Graph, error)

	// serialFleet forces fleet groups to execute sequentially instead of on
	// goroutines — the determinism reference the race stress test compares
	// concurrent runs against.
	serialFleet bool

	// job is the live job Run registers; internal so resolveNodes can update
	// progress without re-deriving state.
	job *obsrv.Job
}

// Layer is one executed node of the network.
type Layer struct {
	Name string
	Kind graph.Kind
	// Start is the node's start time on the network timeline; Seconds its
	// simulated execution time on the shared machine.
	Start   float64
	Seconds float64
	// BaselineSeconds is the manual-library time for the same node (stubs
	// cost the same in both runtimes; operators without a usable baseline
	// report their tuned time).
	BaselineSeconds float64
	FLOPs           int64
	// Cached/Degraded/Strategy/SpaceSize describe how the schedule was
	// resolved (operator nodes only).
	Cached    bool
	Degraded  bool
	Strategy  string
	SpaceSize int
	// Checked/MaxAbsErr report the functional-mode oracle comparison.
	Checked   bool
	MaxAbsErr float64
	// Trace is the node's timeline rebased to start at zero.
	Trace *trace.Log
}

// GFLOPS is the layer's simulated throughput (0 for the glue stubs).
func (l Layer) GFLOPS() float64 {
	if l.Seconds <= 0 || l.FLOPs == 0 {
		return 0
	}
	return float64(l.FLOPs) / l.Seconds / 1e9
}

// Execution modes a Result can report.
const (
	ModeSingle       = "single"
	ModeDataParallel = "data-parallel"
	ModePipeline     = "pipeline"
)

// GroupResult is one core group's share of a fleet run.
type GroupResult struct {
	// Group is the core-group index (metrics for it carry the
	// cluster.GroupPrefix namespace).
	Group int
	// Batch is the group's shard size in data-parallel mode, or the
	// micro-batch size (1) in pipeline mode.
	Batch int
	// Seconds is the group's own machine time: its full Elapsed() in
	// data-parallel mode, its summed stage-busy time in pipeline mode.
	Seconds  float64
	Counters sw26010.Counters
}

// StageReport is one pipeline stage of a pipelined fleet run.
type StageReport struct {
	// Group is the core group executing the stage.
	Group int
	// Nodes are the topo-order node names of the stage.
	Nodes []string
	// Seconds is the stage's execution time for one micro-batch;
	// TransferSeconds the modeled hand-off of its boundary activations to
	// the next stage (0 for the last stage).
	Seconds         float64
	TransferSeconds float64
}

// PipelineReport describes a pipelined fleet run's schedule.
type PipelineReport struct {
	MicroBatches int
	Stages       []StageReport
	// BubbleFraction is the fleet's idle share during the pipeline (fill
	// and drain); see cluster.PipelineSchedule.
	BubbleFraction float64
}

// Result is a completed network run.
type Result struct {
	Net    string
	Batch  int
	Layers []Layer
	// Seconds is the total machine time of the network. On a single
	// machine every node executes serially, so this is its final
	// Elapsed(); on a fleet it is the aggregate timeline — max group time
	// plus the gather in data-parallel mode, the pipeline makespan in
	// pipeline mode.
	Seconds float64
	// BaselineSeconds sums the per-layer manual-library times; Speedup is
	// their ratio (0 when the baseline was skipped).
	BaselineSeconds float64
	Speedup         float64
	FLOPs           int64
	// Timeline is the merged network timeline (per-layer logs shifted to
	// their start times).
	Timeline *trace.Log
	Counters sw26010.Counters
	Plan     Plan
	// Output holds the network output tensor after a functional run. A
	// data-parallel fleet run merges the groups' shard outputs back along
	// the batch dimension.
	Output *tensor.Tensor
	// CachedOps / DegradedOps / TunedOps count schedule resolutions by
	// kind across the operator nodes (summed over groups in a fleet run).
	TunedOps, CachedOps, DegradedOps int
	// Mode reports how the run executed: ModeSingle, ModeDataParallel or
	// ModePipeline.
	Mode string
	// CommSeconds is the modeled cross-group communication time of a fleet
	// run (the output gather, or the summed pipeline stage hand-offs).
	CommSeconds float64
	// Groups is the per-group breakdown of a fleet run (nil on the single
	// path).
	Groups []GroupResult
	// Pipeline is the stage partition and bubble report of a pipelined
	// run (nil otherwise).
	Pipeline *PipelineReport
}

// GFLOPS is the whole-network simulated throughput.
func (r *Result) GFLOPS() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return float64(r.FLOPs) / r.Seconds / 1e9
}

// resolvedOp is one operator node's schedule resolution.
type resolvedOp struct {
	prog      *ir.Program
	strategy  string
	method    string // winning conv lowering method ("" for gemm/degraded)
	spaceSize int
	cached    bool
	degraded  bool
}

// Run executes a network end to end. Schedules are resolved first (cache
// hits, then tuning), buffers are planned, and every node then executes in
// topological order on one shared machine — so the network's total time is
// a single serialized timeline, deterministic across worker counts and
// across cached vs freshly-tuned runs: the engine re-executes the compiled
// program either way, and where it compares schedules (the conv method
// sweep, the baselines) it trusts only its own fault-free fresh-machine
// measurement of the same (operator, strategy), made in this process (see
// timed) — never the library's seconds, which are the tuner's measurement
// under the run's fault injector and may come from disk.
func (e *Engine) Run(ctx context.Context, g *graph.Graph, opts Options) (res *Result, err error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if opts.Tolerance <= 0 {
		opts.Tolerance = 1e-3
	}
	if opts.Library != nil && opts.Metrics != nil {
		opts.Library.SetMetrics(opts.Metrics)
	}
	if opts.Library != nil && opts.Observer != nil {
		opts.Library.SetObserver(opts.Observer)
	}
	opts.job = opts.Observer.Jobs().Start("infer", g.Name)
	opts.Observer.Emit(obsrv.LevelInfo, "net.start",
		obsrv.F("net", g.Name), obsrv.F("batch", g.Batch),
		obsrv.F("nodes", len(g.Topo())))
	// Every way out of a started run ends in exactly one terminal event:
	// net.finish with a result, net.fail without one — whether resolution,
	// validation, execution or the fleet failed.
	defer func() {
		if res != nil {
			finishRun(opts, g, res)
			return
		}
		opts.Observer.Emit(obsrv.LevelError, "net.fail",
			obsrv.F("net", g.Name), obsrv.F("error", err))
		opts.job.Finish(obsrv.JobFailed)
	}()
	if opts.Pipeline && opts.Groups <= 1 {
		return nil, fmt.Errorf("infer %s: pipeline mode needs at least 2 groups", g.Name)
	}
	if opts.Groups > 1 {
		return e.runFleet(ctx, g, opts)
	}
	sp, err := e.planShard(ctx, g, g.Topo(), opts)
	if err != nil {
		return nil, err
	}
	opts.job.SetDetail("executing")
	m := sw26010.NewMachine()
	out, err := e.runTask(ctx, task{sp: sp, nodes: g.Topo(), reps: 1, span: "exec " + g.Name}, execEnv{
		m:            m,
		reg:          opts.Metrics,
		obs:          opts.Observer,
		spans:        opts.Spans,
		group:        -1,
		functional:   opts.Functional,
		tolerance:    opts.Tolerance,
		skipBaseline: opts.SkipBaseline,
	})
	if err != nil {
		return nil, err
	}

	r := out.res
	r.Net, r.Batch, r.FLOPs, r.Plan, r.Mode = g.Name, g.Batch, g.FLOPs(), sp.plan, ModeSingle
	r.Seconds = m.Elapsed()
	r.Counters = m.Counters
	r.Timeline = out.segs[0].log
	if !opts.SkipBaseline && r.Seconds > 0 {
		r.Speedup = r.BaselineSeconds / r.Seconds
	}
	if opts.Metrics != nil {
		r.Counters.Publish(opts.Metrics)
		publishRun(opts.Metrics, r)
	}
	if opts.Functional {
		r.Output = out.ts[g.Output]
	}
	return r, nil
}

// publishRun writes a finished run's aggregate gauges: the arena peak, the
// network's machine seconds and the DMA-hidden ratio measured over its
// merged timeline.
func publishRun(reg *metrics.Registry, res *Result) {
	reg.Gauge("infer_arena_peak_bytes").Set(float64(res.Plan.PeakActivationBytes()))
	reg.Gauge("infer_machine_seconds").Add(res.Seconds)
	if dma := res.Timeline.BusyTime(trace.KindDMA); dma > 0 {
		reg.Gauge("infer_dma_hidden_ratio").
			Set(res.Timeline.Overlap(trace.KindGemm, trace.KindDMA) / dma)
	}
}

// finishRun emits the net.finish event and closes the run's live job.
func finishRun(opts Options, g *graph.Graph, res *Result) {
	if opts.Observer.Enabled() {
		opts.Observer.Emit(obsrv.LevelInfo, "net.finish",
			obsrv.F("net", g.Name), obsrv.Ms("seconds_ms", res.Seconds),
			obsrv.F("gflops", res.GFLOPS()), obsrv.F("speedup", res.Speedup),
			obsrv.F("tuned", res.TunedOps), obsrv.F("cached", res.CachedOps),
			obsrv.F("degraded", res.DegradedOps))
	}
	state := obsrv.JobDone
	if res.DegradedOps > 0 {
		state = obsrv.JobDegraded
	}
	opts.job.Finish(state)
}

// execEnv is one machine's execution context. The single path uses the
// root registry and no group tag; fleet groups use a scoped registry
// (cluster.GroupPrefix) and their group index, so concurrent groups touch
// disjoint metric names and the merged snapshot stays deterministic.
type execEnv struct {
	m            *sw26010.Machine
	reg          *metrics.Registry
	obs          *obsrv.Observer
	spans        *reqtrace.Spans // receives the task's exec span; nil records none
	group        int             // >= 0 tags events with the core group; -1 on the single path
	functional   bool
	tolerance    float64
	skipBaseline bool
}

// label is the group tag threaded into exec observer events ("group2");
// empty on the single path.
func (env execEnv) label() string {
	if env.group < 0 {
		return ""
	}
	return fmt.Sprintf("group%d", env.group)
}

// shardPlan is everything needed to bind one network to a machine: the
// graph (the caller's, a batch shard, a pipeline micro-batch or a
// single-node column shard of the fc tail), its resolved schedules and its
// buffer plan.
type shardPlan struct {
	g        *graph.Graph
	resolved map[string]*resolvedOp
	plan     Plan
}

// planShard resolves schedules for nodes (a topo-order slice of g) and
// plans g's buffers.
func (e *Engine) planShard(ctx context.Context, g *graph.Graph, nodes []*graph.Node, opts Options) (*shardPlan, error) {
	resolved, err := e.resolveNodes(ctx, g, nodes, opts)
	if err != nil {
		return nil, err
	}
	return &shardPlan{g: g, resolved: resolved, plan: planBuffers(g)}, nil
}

// task is one unit of execution: a topo-order node slice of a planned
// network, run reps times back to back on one machine (a pipeline stage
// streams its micro-batches; everything else runs once).
type task struct {
	sp    *shardPlan
	nodes []*graph.Node
	reps  int
	// prep, when set, overwrites functional-mode inputs after the default
	// fill — a batch shard's true slice of the whole-batch input, an fc
	// column shard's rows of the full weight.
	prep func(ts map[string]*tensor.Tensor)
	span string // exec span name
}

// segment is one repetition of a task on its machine's own clock; the
// caller's fleet clock decides where it lands on the network timeline.
type segment struct {
	start, dur float64
	log        *trace.Log
}

// taskResult is a finished task: the first repetition's layers, resolution
// counts and baseline sum, every repetition's segment, and the tensor table
// (holding data after a functional run).
type taskResult struct {
	res  *Result
	segs []segment
	ts   map[string]*tensor.Tensor
}

// runTask is the only place a network is bound to a machine: the single
// path, every data-parallel phase, the pipeline probe and every pipeline
// stage allocate their tensor table, execute and record their exec span
// here.
func (e *Engine) runTask(ctx context.Context, t task, env execEnv) (*taskResult, error) {
	ts, err := allocTensors(t.sp, env.functional)
	if err != nil {
		return nil, err
	}
	if env.functional && t.prep != nil {
		t.prep(ts)
	}
	out := &taskResult{ts: ts, segs: make([]segment, 0, t.reps)}
	execT0 := time.Now()
	for rep := 0; rep < t.reps; rep++ {
		res, log := &Result{}, &trace.Log{}
		start := env.m.Now()
		if err := e.execNodes(ctx, t.sp, t.nodes, ts, res, log, env); err != nil {
			return nil, err
		}
		out.segs = append(out.segs, segment{start: start, dur: env.m.Now() - start, log: log})
		if rep == 0 {
			out.res = res
		}
	}
	if env.spans != nil {
		env.spans.AddGroup(reqtrace.PhaseExec, t.span, max(env.group, 0), execT0, time.Since(execT0),
			map[string]string{"machine_ms": reqtrace.MsArg((env.m.Elapsed() - out.segs[0].start) * 1e3)})
	}
	return out, nil
}

// execNodes executes nodes (a topo-order slice of sp's graph) on env's
// machine, appending per-layer results and resolution counts into res and
// merging node timelines (machine-clock times) into timeline.
func (e *Engine) execNodes(ctx context.Context, sp *shardPlan, nodes []*graph.Node,
	ts map[string]*tensor.Tensor, res *Result, timeline *trace.Log, env execEnv) error {
	g, m := sp.g, env.m
	for _, n := range nodes {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := m.Now()
		nodeLog := &trace.Log{}
		layer := Layer{Name: n.Name, Kind: n.Kind, Start: start}

		switch n.Kind {
		case graph.Conv, graph.Gemm:
			r := sp.resolved[n.Name]
			binds, err := opBinds(n, r.prog, ts)
			if err != nil {
				return fmt.Errorf("infer %s: node %s: %w", g.Name, n.Name, err)
			}
			runRes, err := exec.Run(r.prog, binds, exec.Options{
				Functional: env.functional,
				FastLoops:  !env.functional,
				Trace:      nodeLog,
				Machine:    m,
				Metrics:    env.reg,
				Observer:   env.obs,
				GroupLabel: env.label(),
			})
			if err != nil {
				return fmt.Errorf("infer %s: node %s: %w", g.Name, n.Name, err)
			}
			// Each generated kernel owns the whole scratch pad for its
			// invocation; release it before the successor plans its tiles.
			m.ResetSPM()
			layer.Seconds = runRes.Seconds
			layer.Strategy = r.strategy
			layer.Cached = r.cached
			layer.Degraded = r.degraded
			layer.SpaceSize = r.spaceSize
			if n.Kind == graph.Conv {
				layer.FLOPs = n.Conv.FLOPs()
			} else {
				layer.FLOPs = n.Gemm.FLOPs()
			}
			kindName := "gemm"
			if n.Kind == graph.Conv {
				kindName = "conv"
			}
			switch {
			case r.cached:
				res.CachedOps++
				env.reg.Counter("infer_" + kindName + "_cached_total").Inc()
			case r.degraded:
				res.DegradedOps++
				env.reg.Counter("infer_" + kindName + "_degraded_total").Inc()
			default:
				res.TunedOps++
				env.reg.Counter("infer_" + kindName + "_tuned_total").Inc()
			}
			if r.method != "" {
				env.reg.Counter("infer_method_" + r.method + "_total").Inc()
			}
			if env.functional {
				maxErr, err := verifyNode(n, ts)
				if err != nil {
					return fmt.Errorf("infer %s: node %s: %w", g.Name, n.Name, err)
				}
				layer.Checked = true
				layer.MaxAbsErr = maxErr
				if maxErr > env.tolerance {
					return fmt.Errorf("infer %s: node %s: max abs error %g exceeds tolerance %g",
						g.Name, n.Name, maxErr, env.tolerance)
				}
			}
		default:
			secs, err := runStub(m, g, n, ts, env.functional, nodeLog)
			if err != nil {
				return fmt.Errorf("infer %s: node %s: %w", g.Name, n.Name, err)
			}
			layer.Seconds = secs
		}

		// Stamp span metadata before merging: operator name, layer index
		// and (for operators) the selected strategy travel into the
		// Chrome-trace export.
		nodeLog.Annotate("op", n.Name)
		nodeLog.Annotate("layer", strconv.Itoa(len(res.Layers)))
		if layer.Strategy != "" {
			nodeLog.Annotate("strategy", layer.Strategy)
		}

		// The machine stamps events in its own clock already; merge them
		// straight onto the caller's timeline and keep a per-layer view
		// rebased to zero.
		timeline.Merge(0, nodeLog)
		layerLog := &trace.Log{}
		layerLog.Merge(-start, nodeLog)
		layer.Trace = layerLog

		if !env.skipBaseline {
			layer.BaselineSeconds = e.baselineSeconds(n, layer.Seconds)
			res.BaselineSeconds += layer.BaselineSeconds
		}
		if env.obs.Enabled() {
			fields := []obsrv.Field{obsrv.F("node", n.Name), obsrv.F("kind", string(n.Kind)),
				obsrv.Ms("seconds_ms", layer.Seconds)}
			if env.group >= 0 {
				fields = append(fields, obsrv.F("group", env.group))
			}
			env.obs.Emit(obsrv.LevelDebug, "layer.run", fields...)
		}
		res.Layers = append(res.Layers, layer)
	}
	return nil
}

// resolveNodes resolves schedules for the operator nodes in a topo-order
// subset of the graph — a data-parallel run resolves a shard graph's
// convolution head without tuning the fully-connected tail it never
// executes at the shard batch. Repeated shapes (VGG16's conv3_2/conv3_3, …)
// share one resolution per call even without a library attached.
func (e *Engine) resolveNodes(ctx context.Context, g *graph.Graph, nodes []*graph.Node, opts Options) (map[string]*resolvedOp, error) {
	total := 0
	for _, n := range nodes {
		if n.Kind == graph.Conv || n.Kind == graph.Gemm {
			total++
		}
	}
	opts.job.SetTotal(total)
	memo := map[string]*resolvedOp{}
	out := map[string]*resolvedOp{}
	done := 0
	degraded := 0
	for _, n := range nodes {
		if n.Kind != graph.Conv && n.Kind != graph.Gemm {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var key string
		if n.Kind == graph.Conv {
			key = "conv:" + n.Conv.String()
		} else {
			key = "gemm:" + n.Gemm.String()
		}
		opts.job.SetDetail("resolving " + n.Name)
		resolveT0 := time.Now()
		r, ok := memo[key]
		if !ok {
			var err error
			if n.Kind == graph.Conv {
				r, err = e.resolveConv(ctx, n.Conv, opts)
			} else {
				r, err = e.resolveGemm(ctx, n.Gemm, opts)
			}
			if err != nil {
				return nil, fmt.Errorf("infer %s: node %s: %w", g.Name, n.Name, err)
			}
			memo[key] = r
		}
		out[n.Name] = r
		if opts.Spans != nil {
			opts.Spans.Add(reqtrace.PhaseResolve, "resolve "+n.Name, resolveT0, time.Since(resolveT0),
				map[string]string{
					"cached":   strconv.FormatBool(r.cached),
					"degraded": strconv.FormatBool(r.degraded),
					"memoized": strconv.FormatBool(ok),
					"strategy": r.strategy,
				})
		}
		done++
		if r.degraded {
			degraded++
			opts.Observer.Emit(obsrv.LevelWarn, "layer.degraded",
				obsrv.F("node", n.Name), obsrv.F("strategy", r.strategy))
		} else if opts.Observer.Enabled() {
			opts.Observer.Emit(obsrv.LevelInfo, "layer.resolved",
				obsrv.F("node", n.Name), obsrv.F("cached", r.cached),
				obsrv.F("method", r.method), obsrv.F("strategy", r.strategy))
		}
		opts.job.Progress(done, done-degraded, degraded, 0)
	}
	return out, nil
}

// resolveConv resolves a convolution node the way the paper's tuner does:
// every applicable lowering method (implicit GEMM when the input-channel
// count sustains it, explicit im2col, Winograd F(2x2,3x3) when the shape
// qualifies) is tuned — or fetched from the library — independently, each
// winner is timed on a fresh machine (once per engine: see timed), and the
// fastest method's program is kept. The method sweep is a fixed order with
// strict improvement, so the choice is deterministic and identical between
// cached and fresh runs.
func (e *Engine) resolveConv(ctx context.Context, s conv.Shape, opts Options) (*resolvedOp, error) {
	var best *resolvedOp
	var bestSecs float64
	var firstErr error
	for _, m := range conv.Methods {
		if !conv.Applies(m, s) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		op, err := conv.NewOp(m, s)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		r, err := e.resolveOp(ctx, op, opts)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return nil, err
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		secs, err := e.timed(op.Name()+" "+r.strategy, func() (*ir.Program, error) { return r.prog, nil })
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		r.strategy = m + " " + r.strategy
		r.method = m
		if best == nil || secs < bestSecs {
			best, bestSecs = r, secs
		}
	}
	if best != nil {
		return best, nil
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("no applicable conv method for %s", s.String())
	}
	if opts.Fallback {
		preferred := conv.Explicit
		if conv.Applies(conv.Implicit, s) {
			preferred = conv.Implicit
		}
		return degrade(firstErr, func() (*ir.Program, error) { return baseline.FallbackConv(preferred, s) })
	}
	return nil, firstErr
}

// resolveGemm resolves a fully-connected node through the tiled-GEMM
// operator, degrading to the xMath-style baseline when allowed.
func (e *Engine) resolveGemm(ctx context.Context, p gemm.Params, opts Options) (*resolvedOp, error) {
	op, err := gemm.NewOp(p)
	if err != nil {
		return nil, err
	}
	r, err := e.resolveOp(ctx, op, opts)
	if err != nil {
		if opts.Fallback && !errors.Is(err, context.Canceled) {
			return degrade(err, func() (*ir.Program, error) { return baseline.FallbackGemm(p) })
		}
		return nil, err
	}
	return r, nil
}

// degrade builds the never-cached baseline-fallback resolution for a node
// whose tuning failed.
func degrade(tuneErr error, fallback func() (*ir.Program, error)) (*resolvedOp, error) {
	prog, ferr := fallback()
	if ferr != nil {
		return nil, fmt.Errorf("tuning failed (%v); baseline fallback also failed: %w", tuneErr, ferr)
	}
	return &resolvedOp{
		prog:     prog,
		strategy: fmt.Sprintf("baseline fallback (tuning failed: %v)", tuneErr),
		degraded: true,
	}, nil
}

// resolveOp resolves one operator through the shared cache-then-tune path
// (autotune.Resolve) and keeps what the runtime needs of the result.
func (e *Engine) resolveOp(ctx context.Context, op autotune.Operator, opts Options) (*resolvedOp, error) {
	res, cached, err := autotune.Resolve(ctx, op, e.model, opts.Library, opts.NoTune, autotune.Options{
		Workers:              opts.Workers,
		Faults:               opts.Faults,
		Retry:                opts.Retry,
		MaxCandidateFailures: opts.MaxCandidateFailures,
		Metrics:              opts.Metrics,
		Observer:             opts.Observer,
		Searcher:             opts.Searcher,
		SearchBudget:         opts.SearchBudget,
		SearchSeed:           opts.SearchSeed,
	})
	if err != nil {
		return nil, err
	}
	return &resolvedOp{
		prog:      res.Best.Program,
		strategy:  res.Best.Strategy.String(),
		spaceSize: res.Valid,
		cached:    cached,
	}, nil
}

// graphTensorFor maps a program's operand declaration to the graph tensor
// it binds. The repo's three operator families agree on their declaration
// names: data input "in"/"B", weight "weight"/"weight2d"/"A", output
// "out"/"out2d"/"C".
func graphTensorFor(n *graph.Node, decl string) (string, error) {
	switch decl {
	case "in", "B":
		return n.In[0], nil
	case "weight", "weight2d", "A":
		return n.In[1], nil
	case "out", "out2d", "C":
		return n.Out, nil
	}
	return "", fmt.Errorf("program declares unknown operand %q", decl)
}

// opBinds builds the exec.Run binding map for one operator node from the
// engine's tensor table.
func opBinds(n *graph.Node, prog *ir.Program, ts map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	binds := map[string]*tensor.Tensor{}
	for _, decl := range prog.Tensors {
		if decl.Scratch {
			continue
		}
		gname, err := graphTensorFor(n, decl.Name)
		if err != nil {
			return nil, err
		}
		t, ok := ts[gname]
		if !ok {
			return nil, fmt.Errorf("tensor %q not allocated", gname)
		}
		binds[decl.Name] = t
	}
	return binds, nil
}

// allocTensors materializes the engine's tensor table. Each graph tensor
// adjacent to an operator node takes the concrete dims and layout that
// operator's program declares (the explicit conv's 2-D out2d stands in for
// the logical 4-D feature map — a flat-order-preserving reshape), all
// others stay identity. In functional mode, arena-assigned activations
// share the two ping-pong buffers; everything else gets dedicated storage.
// Timed-only runs allocate no data at all.
func allocTensors(sp *shardPlan, functional bool) (map[string]*tensor.Tensor, error) {
	g, resolved, plan := sp.g, sp.resolved, sp.plan
	type spec struct {
		dims   []int
		layout []int
	}
	specs := map[string]spec{}
	for _, t := range g.Tensors() {
		specs[t.Name] = spec{dims: t.Dims}
	}
	for _, n := range g.Topo() {
		r := resolved[n.Name]
		if r == nil {
			continue
		}
		for _, decl := range r.prog.Tensors {
			if decl.Scratch {
				continue
			}
			gname, err := graphTensorFor(n, decl.Name)
			if err != nil {
				return nil, fmt.Errorf("node %s: %w", n.Name, err)
			}
			gt, _ := g.Tensor(gname)
			if elemCount(decl.Dims) != elemCount(gt.Dims) {
				return nil, fmt.Errorf("node %s: operand %s has %v elements, graph tensor %s has %v",
					n.Name, decl.Name, decl.Dims, gname, gt.Dims)
			}
			specs[gname] = spec{dims: decl.Dims, layout: decl.Layout}
		}
	}

	var arenas [2][]float32
	if functional {
		arenas[0] = make([]float32, plan.ArenaElems[0])
		arenas[1] = make([]float32, plan.ArenaElems[1])
	}
	ts := map[string]*tensor.Tensor{}
	for _, gt := range g.Tensors() {
		sp := specs[gt.Name]
		slot, inArena := plan.Slot[gt.Name]
		var t *tensor.Tensor
		var err error
		switch {
		case !functional:
			t, err = tensor.NewVirtual(gt.Name, sp.dims, sp.layout)
		case inArena && slot >= 0:
			t, err = tensor.NewVirtual(gt.Name, sp.dims, sp.layout)
			if err == nil {
				t.Data = arenas[slot][:t.Len()]
			}
		default:
			t, err = tensor.NewWithLayout(gt.Name, sp.dims, sp.layout)
		}
		if err != nil {
			return nil, fmt.Errorf("tensor %s: %w", gt.Name, err)
		}
		ts[gt.Name] = t
	}

	if functional {
		fillInputs(g, ts)
	}
	return ts, nil
}

// fillInputs seeds the graph input with activations in [0,1) and every
// parameter with a deterministic pattern scaled by its fan-in, so
// activation magnitudes stay bounded through arbitrarily deep networks and
// per-layer oracle comparisons keep meaningful absolute tolerances.
func fillInputs(g *graph.Graph, ts map[string]*tensor.Tensor) {
	fillActivation(ts[g.Input])
	for _, n := range g.Topo() {
		var fanIn int
		switch n.Kind {
		case graph.Conv:
			fanIn = n.Conv.Ni * n.Conv.Kr * n.Conv.Kc
		case graph.Gemm:
			fanIn = n.Gemm.K
		default:
			continue
		}
		fillWeight(ts[n.In[1]], fanIn)
	}
}

// fillActivation is the input fill rule: the pattern mapped into [0,1).
func fillActivation(t *tensor.Tensor) {
	t.FillPattern()
	for i := range t.Data {
		t.Data[i] = (t.Data[i] + 4) / 8
	}
}

// fillWeight is the parameter fill rule: the pattern scaled by 1/(4·fanIn).
func fillWeight(t *tensor.Tensor, fanIn int) {
	t.FillPattern()
	scale := 1 / (4 * float32(fanIn))
	for i := range t.Data {
		t.Data[i] *= scale
	}
}

// verifyNode compares an operator node's output against the reference
// oracle, reading concrete tensors through the logical flat order so
// operator-chosen layouts and reshapes fall away.
func verifyNode(n *graph.Node, ts map[string]*tensor.Tensor) (float64, error) {
	switch n.Kind {
	case graph.Conv:
		s := n.Conv
		in := ts[n.In[0]] // always the rank-4 pre-padded feature map
		w4 := tensor.New("wref", s.No, s.Ni, s.Kr, s.Kc)
		copyFlat(w4, ts[n.In[1]])
		want, err := tensor.ReferenceConv(in, w4, s)
		if err != nil {
			return 0, err
		}
		return maxAbsErrFlat(want, ts[n.Out])
	case graph.Gemm:
		want, err := tensor.ReferenceGemm(ts[n.In[1]], ts[n.In[0]], 1, 0)
		if err != nil {
			return 0, err
		}
		return maxAbsErrFlat(want, ts[n.Out])
	}
	return 0, nil
}

func copyFlat(dst, src *tensor.Tensor) {
	n := dst.Len()
	for f := 0; f < n; f++ {
		setFlat(dst, atFlat(src, f), f)
	}
}

func maxAbsErrFlat(want, got *tensor.Tensor) (float64, error) {
	if want.Len() != got.Len() {
		return 0, fmt.Errorf("oracle has %d elements, result %d", want.Len(), got.Len())
	}
	var maxErr float64
	for f := 0; f < want.Len(); f++ {
		d := float64(atFlat(want, f)) - float64(atFlat(got, f))
		if d < 0 {
			d = -d
		}
		if d > maxErr {
			maxErr = d
		}
	}
	return maxErr, nil
}

// baselineSeconds measures the manual-library implementation of a node on
// a fresh machine (swDNN implicit where its batch restriction allows,
// manual explicit-GEMM otherwise; xMath for the fully-connected layers).
// Glue stubs cost the same in both runtimes; an operator with no usable
// baseline conservatively reports its own tuned time, which is returned and
// never remembered.
func (e *Engine) baselineSeconds(n *graph.Node, tuned float64) float64 {
	var key string
	var progs []func() (*ir.Program, error)
	switch n.Kind {
	case graph.Conv:
		s := n.Conv
		key = "conv:" + s.String()
		progs = []func() (*ir.Program, error){
			func() (*ir.Program, error) { return baseline.SwDNNImplicit(s) },
			func() (*ir.Program, error) { return baseline.ManualExplicit(s) },
		}
	case graph.Gemm:
		p := n.Gemm
		key = "gemm:" + p.String()
		progs = []func() (*ir.Program, error){
			func() (*ir.Program, error) { return baseline.XMathGemm(p) },
		}
	}
	for i, mk := range progs {
		if v, err := e.timed(fmt.Sprintf("baseline %d %s", i, key), mk); err == nil {
			return v
		}
	}
	return tuned
}

// timed returns the seconds the program build compiles takes on a fresh,
// fault-free machine. The first call for a key simulates it and the engine
// remembers that float; every later run — warm replay, each fleet shard
// size, each serving batch — compares the remembered bits. key names what
// determines the program (the operator name the library keys on plus the
// strategy's rendering, or which baseline of which shape) and the simulator
// is deterministic, so a hit is bit-identical to a re-run. Timing happens
// outside the lock and only a successful timing is stored; as the package's
// only fresh-machine timing it never sees a degraded schedule, a fault
// injector or the library's SimulatedSeconds.
func (e *Engine) timed(key string, build func() (*ir.Program, error)) (float64, error) {
	e.mu.Lock()
	secs, ok := e.timings[key]
	e.mu.Unlock()
	if ok {
		return secs, nil
	}
	prog, err := build()
	if err != nil {
		return 0, err
	}
	res, err := exec.RunVirtual(prog, exec.Options{FastLoops: true})
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	e.timings[key] = res.Seconds
	e.mu.Unlock()
	return res.Seconds, nil
}
