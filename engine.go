package swatop

import (
	"context"
	"io"
	"time"

	"swatop/internal/autotune"
	"swatop/internal/graph"
	"swatop/internal/infer"
	"swatop/internal/sw26010"
	"swatop/internal/trace"
)

// Engine is the network inference runtime: it executes one of the paper's
// evaluation networks (VGG16, ResNet, YOLO) end to end on the simulated
// core group, resolving every layer's schedule through the autotuner (or a
// schedule Library) and reporting the serialized network timeline — the
// facade over internal/graph + internal/infer, playing the role swCaffe
// integration plays in the paper.
type Engine struct {
	eng *infer.Engine
	// opts is what the setters below write into; every run passes it to the
	// runtime with only the network's Builder added.
	opts infer.Options
}

// NewEngine fits the cost model (the per-machine offline calibration) and
// returns a ready inference engine.
func NewEngine() (*Engine, error) {
	e, err := infer.NewEngine()
	if err != nil {
		return nil, err
	}
	return &Engine{eng: e}, nil
}

// UseLibrary attaches a schedule cache: layer tuning consults it first and
// records fresh results, so a network tunes once and replays afterwards.
func (e *Engine) UseLibrary(l *Library) { e.opts.Library = l }

// SetWorkers sets the tuning concurrency. The resolved schedules — and the
// network's machine seconds — are identical for every worker count.
func (e *Engine) SetWorkers(n int) { e.opts.Workers = n }

// SetFallback selects the degradation policy when a layer's tuning fails.
func (e *Engine) SetFallback(p FallbackPolicy) { e.opts.Fallback = p == FallbackBaseline }

// SetFaults attaches a fault injector to tuning measurements (nil
// detaches); the network's own execution stays clean.
func (e *Engine) SetFaults(in *FaultInjector) { e.opts.Faults = in }

// SetRetry configures retrying of transient tuning-measurement errors,
// exactly as Tuner.SetRetry does.
func (e *Engine) SetRetry(attempts int, base, max time.Duration) {
	e.opts.Retry = autotune.Retry{Attempts: attempts, BaseDelay: base, MaxDelay: max}
}

// SetSearcher switches layer tuning to sample-efficient search, exactly as
// Tuner.SetSearcher does (nil restores the exhaustive walk). The attached
// Library doubles as the transfer source: later layers seed their search
// from earlier layers' cached winners.
func (e *Engine) SetSearcher(s Searcher) { e.opts.Searcher = s }

// SetSearchBudget caps the fraction of each layer's candidate space a
// searcher may measure (0 restores the 0.10 default).
func (e *Engine) SetSearchBudget(frac float64) { e.opts.SearchBudget = frac }

// SetSearchSeed pins the searcher's RNG seed (0 derives a stable
// per-operator seed).
func (e *Engine) SetSearchSeed(seed uint64) { e.opts.SearchSeed = seed }

// SetVerify enables functional execution: every tuned layer's output is
// checked against the single-operator reference oracle with the given
// max-abs-error tolerance (<= 0 selects the default 1e-3). Functional runs
// compute real data and are far slower; machine seconds remain
// deterministic but differ slightly from timed-only runs, which
// fast-forward long loops (a near-exact extrapolation).
func (e *Engine) SetVerify(tolerance float64) {
	e.opts.Functional = true
	e.opts.Tolerance = tolerance
}

// SetGroups scales inference out across a fleet of n simulated core groups
// (1..4 — one SW26010 node, the swCaffe scale-out unit). 0 or 1 keeps the
// single-machine path. The default fleet mode is data parallelism: the
// batch shards across the groups and the fleet time is the slowest group
// plus the modeled collectives. Nets ending in a fully-connected tail take
// the hybrid split (batch-sharded convolutions, column-sharded fc layers
// so each group loads only 1/n of the weight-DMA-bound fc weights);
// everything else runs the whole net on every group's shard.
// Schedules still resolve sequentially up front; per-group and aggregate
// machine seconds stay bit-identical across worker counts and goroutine
// interleavings. Fleet runs skip the per-layer baseline comparison.
func (e *Engine) SetGroups(n int) { e.opts.Groups = n }

// SetPipeline switches a fleet run (SetGroups >= 2) to layer pipelining:
// the net is partitioned into balanced stages by per-layer tuned cost and
// micro-batches of size 1 stream through them. The report carries the
// stage partition and the pipeline's bubble fraction. Timed-only —
// incompatible with SetVerify.
func (e *Engine) SetPipeline(on bool) { e.opts.Pipeline = on }

// SetMetrics attaches a metrics registry: every run records machine
// counters (DMA traffic, transactions, alignment waste, SPM peak, the
// compute/stall clock split), per-layer schedule-resolution outcomes and
// tuning activity into it, and each NetReport carries a snapshot. Passing
// nil detaches. During a fully cached replay every recorded value is a
// simulated-machine quantity, so snapshots are bit-identical across worker
// counts.
func (e *Engine) SetMetrics(reg *MetricsRegistry) { e.opts.Metrics = reg }

// SetObserver attaches a structured-event observer: every run emits its
// event log (net/layer/tuning events) into it and registers as a live
// "infer" job in the observer's tracker. When a run fails or any layer
// degrades to the baseline, the observer's flight recorder is dumped to
// its configured sink. Passing nil detaches. Purely observational: the
// resolved schedules and every metric are identical with and without an
// observer.
func (e *Engine) SetObserver(o *Observer) { e.opts.Observer = o }

// LayerReport is one executed layer of a network run.
type LayerReport struct {
	Name            string  `json:"name"`
	Kind            string  `json:"kind"`
	StartSeconds    float64 `json:"start_seconds"`
	Seconds         float64 `json:"seconds"`
	BaselineSeconds float64 `json:"baseline_seconds,omitempty"`
	FLOPs           int64   `json:"flops,omitempty"`
	GFLOPS          float64 `json:"gflops,omitempty"`
	Cached          bool    `json:"cached,omitempty"`
	Degraded        bool    `json:"degraded,omitempty"`
	Strategy        string  `json:"strategy,omitempty"`
	MaxAbsErr       float64 `json:"max_abs_err,omitempty"`
	Checked         bool    `json:"checked,omitempty"`
}

// GroupReport is one core group's share of a fleet run; its machine
// Counters stay out of the JSON form.
type GroupReport = infer.GroupResult

// StageReport is one pipeline stage of a pipelined fleet run.
type StageReport = infer.StageReport

// PipelineReport is the stage partition and schedule of a pipelined run.
type PipelineReport = infer.PipelineReport

// NetReport is a completed network inference run.
type NetReport struct {
	Net             string        `json:"net"`
	Batch           int           `json:"batch"`
	Layers          []LayerReport `json:"layers"`
	Seconds         float64       `json:"machine_seconds"`
	BaselineSeconds float64       `json:"baseline_seconds,omitempty"`
	Speedup         float64       `json:"speedup,omitempty"`
	FLOPs           int64         `json:"flops"`
	GFLOPS          float64       `json:"gflops"`
	TunedLayers     int           `json:"tuned_layers"`
	CachedLayers    int           `json:"cached_layers"`
	DegradedLayers  int           `json:"degraded_layers"`
	// Mode reports the execution path: "single", "data-parallel" or
	// "pipeline". InferencesPerSec is the batch over the aggregate machine
	// seconds — the throughput the scale-out modes exist to raise.
	Mode             string  `json:"mode"`
	InferencesPerSec float64 `json:"inferences_per_sec,omitempty"`
	// CommSeconds and Groups describe a fleet run: the modeled cross-group
	// communication time and the per-group breakdown. Pipeline carries the
	// stage partition and bubble fraction of a pipelined run.
	CommSeconds float64         `json:"comm_seconds,omitempty"`
	Groups      []GroupReport   `json:"groups,omitempty"`
	Pipeline    *PipelineReport `json:"pipeline,omitempty"`
	// Activation memory: the engine's ping-pong buffer-reuse plan vs
	// dedicating every feature map.
	PeakActivationBytes  int64 `json:"peak_activation_bytes"`
	NaiveActivationBytes int64 `json:"naive_activation_bytes"`
	// Metrics is the snapshot of the engine's metrics registry taken right
	// after the run (empty when no registry was attached via SetMetrics).
	Metrics MetricsSnapshot `json:"metrics,omitempty"`

	timeline   *trace.Log
	flops      int64
	dmaBytes   int64
	groupCount int
}

// Timeline renders the merged network timeline: busy-time summary, a
// coarse Gantt chart (one row per timeline channel, or one row per core
// group on a fleet run), and the network roofline (achieved GFLOPS vs the
// peak — scaled by the group count on a fleet run — and achieved DMA
// bandwidth vs the paper's 22.6 GB/s stream bandwidth per group).
func (r *NetReport) Timeline() string {
	if r.timeline == nil {
		return ""
	}
	scale := float64(1)
	if r.groupCount > 1 {
		scale = float64(r.groupCount)
	}
	roof := r.timeline.Roofline(r.flops, r.dmaBytes,
		sw26010.PeakGFlops*scale, sw26010.DMAEffBandwidth*scale)
	return r.timeline.Summary() + r.timeline.Gantt(72) + roof.String()
}

// TraceLog exposes the merged network timeline (nil when unavailable):
// every event carries its operator name, layer index and selected strategy
// as span metadata.
func (r *NetReport) TraceLog() *trace.Log { return r.timeline }

// WriteChromeTrace writes the merged network timeline in the Chrome
// trace-event JSON format; the output opens directly in ui.perfetto.dev.
func (r *NetReport) WriteChromeTrace(w io.Writer) error {
	if r.timeline == nil {
		return (&trace.Log{}).WriteChromeTrace(w)
	}
	return r.timeline.WriteChromeTrace(w)
}

// Infer runs a network ("vgg16", "resnet", "yolo") at one batch size.
func (e *Engine) Infer(net string, batch int) (*NetReport, error) {
	return e.InferCtx(context.Background(), net, batch)
}

// InferCtx is Infer with cancellation: both schedule resolution and the
// layer-by-layer execution stop promptly when ctx is canceled.
func (e *Engine) InferCtx(ctx context.Context, net string, batch int) (*NetReport, error) {
	g, err := graph.ByName(net, batch)
	if err != nil {
		return nil, err
	}
	opts := e.opts
	opts.Builder = func(b int) (*graph.Graph, error) { return graph.ByName(net, b) }
	res, err := e.eng.Run(ctx, g, opts)
	if err != nil {
		opts.Observer.AutoDump("infer failed: " + net)
		return nil, err
	}
	if res.DegradedOps > 0 {
		opts.Observer.AutoDump("infer degraded: " + net)
	}
	rep := &NetReport{
		Net:                  res.Net,
		Batch:                res.Batch,
		Seconds:              res.Seconds,
		BaselineSeconds:      res.BaselineSeconds,
		Speedup:              res.Speedup,
		FLOPs:                res.FLOPs,
		GFLOPS:               res.GFLOPS(),
		TunedLayers:          res.TunedOps,
		CachedLayers:         res.CachedOps,
		DegradedLayers:       res.DegradedOps,
		Mode:                 res.Mode,
		CommSeconds:          res.CommSeconds,
		Groups:               res.Groups,
		Pipeline:             res.Pipeline,
		PeakActivationBytes:  res.Plan.PeakActivationBytes() + res.Plan.IOBytes,
		NaiveActivationBytes: res.Plan.NaiveBytes + res.Plan.IOBytes,
		timeline:             res.Timeline,
		flops:                res.FLOPs,
		dmaBytes:             res.Counters.DMABytesTouched,
		groupCount:           len(res.Groups),
	}
	if res.Seconds > 0 {
		rep.InferencesPerSec = float64(res.Batch) / res.Seconds
	}
	rep.Metrics = opts.Metrics.Snapshot()
	for _, l := range res.Layers {
		rep.Layers = append(rep.Layers, LayerReport{
			Name:            l.Name,
			Kind:            string(l.Kind),
			StartSeconds:    l.Start,
			Seconds:         l.Seconds,
			BaselineSeconds: l.BaselineSeconds,
			FLOPs:           l.FLOPs,
			GFLOPS:          l.GFLOPS(),
			Cached:          l.Cached,
			Degraded:        l.Degraded,
			Strategy:        l.Strategy,
			MaxAbsErr:       l.MaxAbsErr,
			Checked:         l.Checked,
		})
	}
	return rep, nil
}
