package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"swatop/internal/autotune"
	"swatop/internal/cache"
	"swatop/internal/conv"
	"swatop/internal/costmodel"
	"swatop/internal/dsl"
	"swatop/internal/exec"
	"swatop/internal/infer"
	"swatop/internal/metrics"
	"swatop/internal/obsrv"
	"swatop/internal/reqtrace"
	"swatop/internal/schedule"
	"swatop/internal/serve"
	"swatop/internal/sw26010"
	"swatop/internal/tensor"
	"swatop/internal/tshist"
)

// shareLayers are the layers whose share of re-enacted self time is
// reported per workload, as <layer>.self_share.
var shareLayers = []string{"schedule", "lower", "optimizer", "costmodel", "search", "exec", "autotune", "cache", "infer", "serve"}

// tracer collects one workload's traced run: the spans, and the per-layer
// metric values as they are measured. A metric no pass sets reads 0 — the
// layer is idle on this workload, or the workload is not its measuring
// point.
type tracer struct {
	rec   *recorder
	vals  map[string]float64
	d     time.Duration        // the run's time budget
	model *costmodel.GemmModel // the tuner's fitted cost model, for the re-enacted estimates
	// realWallMs are the wall times of the real operations run under
	// parent spans; re is the re-enactor of the spans-on pass.
	realWallMs []float64
	re         *reenactor
	outDir     string // scratch space for the library save/load timing
	// attempted and failed count the real operations of the traced run.
	attempted, failed int
}

func (t *tracer) set(name string, v float64) { t.vals[name] = v }

// runTraced sets the workload up once, runs a few real operations each
// under a parent span, repeats one with a metrics registry attached for
// the exact counts, and then hands over to the workload's own layer
// measurements (re-enactment, microbenchmarks).
func runTraced(ctx context.Context, e *env, w *workload, d time.Duration, outDir string) (*outcome, error) {
	st, err := w.setup(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer closeState(st)
	model, err := costmodel.FitGemmModel()
	if err != nil {
		return nil, err
	}
	t := &tracer{rec: newRecorder(), vals: map[string]float64{}, d: d, model: model, outDir: outDir}
	if w.op != nil {
		layer := layerBench
		if w.opaque {
			layer = "infer"
		}
		t0 := time.Now()
		for i := 0; ; i++ {
			id := t.rec.begin(-1, i, w.name+" (real)", layer)
			ts := time.Now()
			_, err := w.op(ctx, e, st, i, infer.Options{})
			t.realWallMs = append(t.realWallMs, msSince(ts))
			t.rec.end(id)
			t.attempted++
			if err != nil {
				fmt.Printf("# %s traced op %d failed: %v\n", w.name, i, err)
				t.failed++
			}
			if e.quick || time.Since(t0) >= d/5 {
				break
			}
		}
		reg := metrics.NewRegistry()
		if _, err := w.op(ctx, e, st, 0, infer.Options{Metrics: reg}); err != nil {
			return nil, fmt.Errorf("%s registry pass: %w", w.name, err)
		}
		if st.lib != nil {
			st.lib.SetMetrics(nil) // the engine attached it; later passes run bare again
		}
		t.fromRegistry(reg.Snapshot())
	}
	if err := w.layers(ctx, e, st, t); err != nil {
		return nil, fmt.Errorf("%s layers: %w", w.name, err)
	}
	spans := t.rec.snapshot()
	t.fromSpans(spans)
	t.set("bench.failed_share", ratio(float64(t.failed), float64(t.attempted)))
	return &outcome{vals: t.vals, spans: spans, attempted: t.attempted, failed: t.failed}, nil
}

func closeState(st *state) {
	if st != nil && st.close != nil {
		st.close()
	}
}

// fromRegistry reads the counts and simulated-clock numbers the program
// publishes. Counters are summed over core-group namespaces (a fleet run
// scopes them per group); machine_* gauges are already fleet aggregates.
func (t *tracer) fromRegistry(s metrics.Snapshot) {
	c := func(suffix string) float64 {
		total := int64(0)
		for name, v := range s.Counters {
			if name == suffix || strings.HasSuffix(name, "_"+suffix) {
				total += v
			}
		}
		return float64(total)
	}
	g := s.Gauges
	t.set("exec.runs", c("exec_runs_total"))
	t.set("cache.hits", c("cache_hits_total"))
	t.set("cache.misses", c("cache_misses_total"))
	t.set("autotune.candidates", c("autotune_candidates_total"))
	t.set("autotune.valid", c("autotune_candidates_valid_total"))
	t.set("autotune.failed", c("autotune_candidates_failed_total"))
	t.set("autotune.machine_s", g["autotune_machine_seconds"])
	t.set("autotune.finalist_wall_share", ratio(g["autotune_finalist_wall_seconds"],
		g["autotune_finalist_wall_seconds"]+g["autotune_search_wall_seconds"]))
	t.set("search.rounds", c("search_rounds_total"))
	t.set("search.measured_share", ratio(c("search_candidates_measured_total"), c("search_candidates_proposed_total")))
	t.set("infer.tuned_ops", c("infer_conv_tuned_total")+c("infer_gemm_tuned_total"))
	t.set("infer.cached_ops", c("infer_conv_cached_total")+c("infer_gemm_cached_total"))
	t.set("infer.degraded_ops", c("infer_conv_degraded_total")+c("infer_gemm_degraded_total"))
	t.set("infer.arena_peak_mb", g["infer_arena_peak_bytes"]/(1<<20))
	t.set("infer.dma_hidden_ratio", g["infer_dma_hidden_ratio"])
	t.set("cluster.comm_machine_ms", g["infer_comm_seconds"]*1e3)
	t.setCounters(sw26010.Counters{
		DMATransactions:   int64(g["machine_dma_transactions_total"]),
		DMABytesTouched:   int64(g["machine_dma_bytes_touched_total"]),
		DMABytesRequested: int64(g["machine_dma_bytes_touched_total"] - g["machine_dma_waste_bytes_total"]),
		ComputeSeconds:    g["machine_compute_seconds"],
		StallSeconds:      g["machine_stall_seconds"],
		SPMPeakBytes:      int64(g["machine_spm_peak_bytes"]),
		Flops:             int64(g["machine_flops_total"]),
	})
}

// setCounters reports the simulated machine's activity for the schedules
// the workload ended on.
func (t *tracer) setCounters(c sw26010.Counters) {
	t.set("sw26010.dma_transactions", float64(c.DMATransactions))
	t.set("sw26010.dma_bytes_touched", float64(c.DMABytesTouched))
	t.set("sw26010.dma_waste_bytes", float64(c.AlignmentWasteBytes()))
	t.set("sw26010.compute_s", c.ComputeSeconds)
	t.set("sw26010.stall_s", c.StallSeconds)
	t.set("sw26010.spm_peak_bytes", float64(c.SPMPeakBytes))
	t.set("sw26010.flops", float64(c.Flops))
}

// fromSpans turns the recorded spans into per-call costs and into each
// layer's share of the re-enacted self time.
func (t *tracer) fromSpans(spans []span) {
	tot := totalsByName(spans)
	points := float64(tot["candidate"].n)
	if points > 0 {
		t.set("schedule.points", points)
		t.set("schedule.stream_ns_per_point",
			float64(tot["schedule.stream"].self+tot["schedule.at"].ns)/points)
		t.set("search.model_fit_predict_ns", float64(tot["search.run"].self)/points)
	}
	// metric <- mean duration of the spans of one name, in ns / perUnit.
	perCall := []struct {
		metric, span string
		perUnit      float64
	}{
		{"lower.ns_per_candidate", "lower", 1},
		{"optimizer.prefetch_ns_per_candidate", "optimizer.prefetch", 1},
		{"optimizer.inferdma_ns_per_candidate", "optimizer.inferdma", 1},
		{"costmodel.estimate_ns_per_candidate", "costmodel.estimate", 1},
		{"search.features_ns_per_candidate", "search.features", 1},
		{"exec.oneshot_us_per_program", "exec.oneshot", 1e3},
		{"exec.replay_us_per_program", "exec.replay", 1e3},
		{"cache.get_ns", "cache.get", 1},
		{"cache.put_ns", "cache.put", 1},
	}
	for _, pc := range perCall {
		// The microbenchmark's value stands where a workload has one.
		if _, measured := t.vals[pc.metric]; !measured && tot[pc.span].n > 0 {
			t.set(pc.metric, tot[pc.span].perCall()/pc.perUnit)
		}
	}
	if t.re != nil && t.re.programs > 0 {
		t.set("lower.valid_share", ratio(float64(t.re.programs), points))
		t.set("lower.ir_stmts_per_program", float64(t.re.stmts)/float64(t.re.programs))
		t.set("optimizer.dma_ops_per_program", float64(t.re.dmaOps)/float64(t.re.programs))
	}
	byLayer, total := selfByLayer(spans)
	for _, l := range shareLayers {
		t.set(l+".self_share", ratio(float64(byLayer[l]), float64(total)))
	}
}

// reenact runs one re-enacted pass with spans off, on, and off again, and
// reports the spans-on time against the mean of its two neighbours as the
// tracing overhead (a drift of the host between passes cancels out). The
// spans-on pass is the one the layer metrics are read from.
func (t *tracer) reenact(pass func(r *reenactor) error) error {
	t.re = &reenactor{rec: t.rec, model: t.model}
	var d [3]time.Duration
	for i, r := range []*reenactor{{model: t.model}, t.re, {model: t.model}} {
		t0 := time.Now()
		if err := pass(r); err != nil {
			return err
		}
		d[i] = time.Since(t0)
	}
	off := float64(d[0]+d[2]) / 2
	t.set("bench.trace_overhead_pct", 100*ratio(float64(d[1])-off, off))
	return nil
}

// perCallNs times f in batches and returns the median nanoseconds per
// call, for calls too short to time one by one.
func perCallNs(batches, calls int, f func()) float64 {
	var per []float64
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			f()
		}
		per = append(per, float64(time.Since(t0))/float64(calls))
	}
	return median(per)
}

// medianMs times f n times and returns the median in milliseconds.
func medianMs(n int, f func() error) (float64, error) {
	var ms []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ms = append(ms, msSince(t0))
	}
	return median(ms), nil
}

// selfUnder sums the self time of every span that has an ancestor whose
// name starts with prefix, leaving out the given layers.
func selfUnder(spans []span, prefix string, skip ...string) int64 {
	under := make([]bool, len(spans)) // parents precede children in the list
	total := int64(0)
	self := selfTimes(spans)
spans:
	for i, s := range spans {
		if s.Parent >= 0 {
			under[i] = under[s.Parent] || strings.HasPrefix(spans[s.Parent].Name, prefix)
		}
		if !under[i] {
			continue
		}
		for _, l := range skip {
			if s.Layer == l {
				continue spans
			}
		}
		total += self[i]
	}
	return total
}

// checkReenacted compares the simulated seconds of the re-enacted operator
// nodes with the real run's: a re-enactment that ends on other schedules
// or other timings would attribute time to the wrong work. Seconds are
// differences of a shared machine's clock, which the engine's glue layers
// also advance, so the two agree to rounding, not to the bit.
func checkReenacted(res *infer.Result, secs []float64) error {
	i := 0
	for _, l := range res.Layers {
		if l.Strategy == "" {
			continue
		}
		if i >= len(secs) || math.Abs(secs[i]-l.Seconds) > 1e-9*l.Seconds {
			return fmt.Errorf("re-enacted run diverges from the engine at operator %s (%d)", l.Name, i)
		}
		i++
	}
	if i != len(secs) {
		return fmt.Errorf("re-enacted run executed %d operators, the engine %d", len(secs), i)
	}
	return nil
}

func layersTuneCold(ctx context.Context, e *env, st *state, t *tracer) error {
	fit, err := medianMs(5, func() error { _, err := costmodel.FitGemmModel(); return err })
	if err != nil {
		return err
	}
	t.set("costmodel.fit_ms", fit)
	build, err := medianMs(9, func() error { _, err := e.size.build(1); return err })
	if err != nil {
		return err
	}
	t.set("graph.build_us", build*1e3)

	real, err := st.eng.Run(ctx, st.g, tuneOptions(e, nil, 0, infer.Options{}))
	if err != nil {
		return err
	}
	err = t.reenact(func(r *reenactor) error {
		tune := func(parent int, op autotune.Operator, _ *cache.Library) (*pick, error) {
			return r.tuneExhaustive(parent, op)
		}
		secs, err := r.network(st.g, cache.NewLibrary(), r.resolveCold(tune))
		if err != nil {
			return err
		}
		return checkReenacted(real, secs)
	})
	if err != nil {
		return err
	}

	// The real tuner on the same operators, at one worker and at all of
	// them: what it spends beyond the re-enacted work is its own overhead,
	// and the ratio of the two walls is what the worker pool buys.
	groups, _, err := netOps(st.g)
	if err != nil {
		return err
	}
	wall := func(workers int) (float64, error) {
		total := 0.0
		for _, grp := range groups {
			for _, op := range grp.methods {
				res, err := autotune.ModelBasedCtx(ctx, op, t.model, autotune.Options{Workers: workers})
				if err != nil {
					return 0, err
				}
				total += res.WallSeconds
			}
		}
		return total, nil
	}
	w1, err := wall(1)
	if err != nil {
		return err
	}
	wN, err := wall(e.workers)
	if err != nil {
		return err
	}
	work := float64(selfUnder(t.rec.snapshot(), "tune ", "autotune", layerBench)) / 1e9
	t.set("autotune.overhead_share", 1-ratio(work, w1))
	t.set("autotune.worker_speedup", ratio(w1, wN))
	return nil
}

func layersSearchEvo(_ context.Context, e *env, st *state, t *tracer) error {
	return t.reenact(func(r *reenactor) error {
		tune := func(parent int, op autotune.Operator, lib *cache.Library) (*pick, error) {
			return r.tuneSearch(parent, op, lib, passSeed(e.seed, 0))
		}
		_, err := r.network(st.g, cache.NewLibrary(), r.resolveCold(tune))
		return err
	})
}

func layersBlackBox(ctx context.Context, e *env, st *state, t *tracer) error {
	var best []*pick
	err := t.reenact(func(r *reenactor) error {
		best = best[:0]
		for _, op := range st.ops {
			p, err := r.blackBox(op)
			if err != nil {
				return err
			}
			best = append(best, p)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var total sw26010.Counters
	for i, p := range best {
		if p.seconds != st.bbBest[i] {
			return fmt.Errorf("re-enacted black-box walk of %s ends on %v s, the tuner on %v s",
				st.ops[i].Name(), p.seconds, st.bbBest[i])
		}
		binds, err := exec.BindVirtual(p.prog)
		if err != nil {
			return err
		}
		res, err := exec.Run(p.prog, binds, exec.Options{FastLoops: true})
		if err != nil {
			return err
		}
		total.Accumulate(res.Counters)
	}
	t.setCounters(total)
	r, err := checkPickRatio(ctx, e, st)
	if err != nil {
		return err
	}
	t.set("costmodel.pick_ratio_min", r)
	us, err := functionalMicros()
	if err != nil {
		return err
	}
	t.set("exec.functional_us_per_program", us)
	return nil
}

// blackBox re-enacts autotune.BlackBoxCtx at one worker: compile and run
// every point, keep the measured best by (seconds, index).
func (r *reenactor) blackBox(op autotune.Operator) (*pick, error) {
	tune := r.span(-1, "tune "+op.Name(), "autotune")
	defer r.rec.end(tune)
	var best *pick
	stream := r.span(tune, "schedule.stream", "schedule")
	err := schedule.Stream(op.Seed(), op.Space(), func(_ int, st dsl.Strategy) bool {
		c := r.span(stream, "candidate", "autotune")
		defer r.rec.end(c)
		prog, err := r.compile(c, op, st)
		if err != nil {
			return true
		}
		res, err := r.oneshot(c, prog)
		if err != nil {
			return true
		}
		r.count(c, prog)
		if best == nil || res.Seconds < best.seconds {
			best = &pick{st: st, prog: prog, seconds: res.Seconds}
		}
		return true
	})
	r.rec.end(stream)
	if err == nil && best == nil {
		err = fmt.Errorf("re-enacted black-box walk of %s: no valid schedule", op.Name())
	}
	return best, err
}

// functionalMicros times the executor's other mode: a tiny implicit
// convolution run with real float32 data, checked against the reference
// convolution.
func functionalMicros() (float64, error) {
	s := conv.Shape{B: 2, Ni: 16, No: 16, Ro: 8, Co: 8, Kr: 3, Kc: 3}
	op, err := conv.NewImplicitOp(s)
	if err != nil {
		return 0, err
	}
	dims, err := schedule.Describe(op.Seed(), op.Space())
	if err != nil {
		return 0, err
	}
	for i := 0; i < dims.Size(); i++ {
		prog, err := op.Compile(dims.At(i))
		if err != nil {
			continue
		}
		binds, err := conv.Bind(prog)
		if err != nil {
			return 0, err
		}
		ms, err := medianMs(9, func() error {
			_, err := exec.Run(prog, binds, exec.Options{Functional: true})
			return err
		})
		if err != nil {
			return 0, err
		}
		want, err := tensor.ReferenceConv(binds["in"], binds["weight"], s)
		if err != nil {
			return 0, err
		}
		if diff, err := tensor.MaxAbsDiff(want, binds["out"]); err != nil || diff > checkTolerance {
			return 0, fmt.Errorf("functional run of %s differs from the reference by %g (%v)", op.Name(), diff, err)
		}
		return ms * 1e3, nil
	}
	return 0, fmt.Errorf("%s: no schedule compiles", op.Name())
}

func layersReplay(ctx context.Context, e *env, st *state, t *tracer) error {
	real, err := st.eng.Run(ctx, st.g, warmOptions(e, st, infer.Options{}))
	if err != nil {
		return err
	}
	err = t.reenact(func(r *reenactor) error {
		secs, err := r.network(st.g, st.lib, r.resolveWarm)
		if err != nil {
			return err
		}
		return checkReenacted(real, secs)
	})
	if err != nil {
		return err
	}
	// The engine's own share of a warm run: its wall time minus the calls
	// into other layers that the re-enactment repeats.
	spans := t.rec.snapshot()
	work := float64(selfUnder(spans, "infer.run (re-enacted)", "infer", layerBench)) / 1e6
	t.set("infer.self_ms_per_run", median(t.realWallMs)-work)

	if err := t.cacheMicro(st.lib); err != nil {
		return err
	}
	t.simulatorMicro()

	// Everything observability can attach to a run, against nothing.
	reg, obs := metrics.NewRegistry(), obsrv.New()
	var on, off []float64
	for i := 0; i < 6 && (i < 1 || !e.quick); i++ {
		t0 := time.Now()
		if _, err := replayRun(ctx, e, st, i, infer.Options{}); err != nil {
			return err
		}
		off = append(off, msSince(t0))
		t0 = time.Now()
		if _, err := replayRun(ctx, e, st, i, infer.Options{Metrics: reg, Observer: obs, Spans: &reqtrace.Spans{}}); err != nil {
			return err
		}
		on = append(on, msSince(t0))
		st.lib.SetMetrics(nil)
		st.lib.SetObserver(nil)
	}
	t.set("obs.replay_overhead_pct", 100*(ratio(median(on), median(off))-1))
	return nil
}

// cacheMicro times the schedule library on the workload's own library:
// lookups and stores per call, a nearest-neighbour query, and a save/load
// round trip through the benchmark's output directory.
func (t *tracer) cacheMicro(lib *cache.Library) error {
	sigs := lib.Signatures()
	if len(sigs) == 0 {
		return fmt.Errorf("cache timing: the library is empty")
	}
	i := 0
	t.set("cache.get_ns", perCallNs(5, 2000, func() { lib.Get(sigs[i%len(sigs)]); i++ }))
	scratch := cache.NewLibrary()
	var entries []cache.Entry
	for _, s := range sigs {
		ent, _ := lib.Get(s)
		entries = append(entries, ent)
	}
	t.set("cache.put_ns", perCallNs(5, 2000, func() { scratch.Put(entries[i%len(entries)]); i++ }))
	t.set("cache.nearest_us", perCallNs(5, 50, func() { lib.Nearest(sigs[i%len(sigs)], autotune.TransferSeeds); i++ })/1e3)
	if err := os.MkdirAll(t.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(t.outDir, "library.json")
	defer os.Remove(path)
	save, err := medianMs(5, func() error { return lib.Save(path) })
	if err != nil {
		return err
	}
	load, err := medianMs(5, func() error { return cache.NewLibrary().Load(path) })
	if err != nil {
		return err
	}
	t.set("cache.save_ms", save)
	t.set("cache.load_ms", load)
	return nil
}

// simulatorMicro times the three host-side calls the warm path spends most
// of its allocations in: issuing and awaiting one DMA on the machine,
// allocating and freeing one scratch-pad buffer, and flattening one
// strided region into DMA descriptors.
func (t *tracer) simulatorMicro() {
	m := sw26010.NewMachine()
	req := sw26010.DMARequest{BlockBytes: 512, BlockCount: 16, StrideBytes: 4096, CPEs: sw26010.NumCPE}
	t.set("sw26010.issue_wait_dma_ns", perCallNs(5, 5000, func() {
		_ = m.IssueDMA("r", req) // a valid request on a fault-free machine cannot fail
		_ = m.WaitDMA("r", 1)
	}))
	spm := sw26010.NewSPMAllocator()
	t.set("sw26010.spm_alloc_ns", perCallNs(5, 5000, func() {
		_, _ = spm.Alloc("buf", 4096) // 4096 floats fit an empty scratch pad
		_ = spm.Free("buf")
	}))
	// A 3-D slab of a 4-D feature map: not expressible as one descriptor.
	ten, _ := tensor.NewVirtual("x", []int{64, 58, 58, 8}, []int{0, 1, 2, 3})
	reg := tensor.Region{Start: []int{8, 3, 3, 0}, Extent: []int{16, 8, 28, 8}}
	t.set("tensor.flatten_multi_ns", perCallNs(5, 5000, func() { _, _ = reg.FlattenMulti(ten) }))
}

func layersFleet(ctx context.Context, e *env, st *state, t *tracer) error {
	res, err := st.eng.Run(ctx, st.g, fleetOptions(e, st, infer.Options{}))
	if err != nil {
		return err
	}
	lo, hi := res.Groups[0].Seconds, res.Groups[0].Seconds
	for _, g := range res.Groups {
		if g.Seconds < lo {
			lo = g.Seconds
		}
		if g.Seconds > hi {
			hi = g.Seconds
		}
	}
	t.set("cluster.group_imbalance", ratio(hi, lo))

	// One group's shard on its own, four times over, against the fleet:
	// what the group fan-out costs or saves on this host.
	reps := 5
	if e.quick {
		reps = 1
	}
	shard, err := e.size.build(e.size.fleetBatch / fleetGroups)
	if err != nil {
		return err
	}
	single := func() error {
		_, err := st.eng.Run(ctx, shard, warmOptions(e, st, infer.Options{}))
		return err
	}
	if err := single(); err != nil { // tunes the shard's fully-connected tail once
		return err
	}
	shardMs, err := medianMs(reps, single)
	if err != nil {
		return err
	}
	t.set("infer.fleet_host_speedup", ratio(fleetGroups*shardMs, median(t.realWallMs)))

	pipe := fleetOptions(e, st, infer.Options{})
	pipe.Pipeline = true
	pipeline := func() error { _, err := st.eng.Run(ctx, st.g, pipe); return err }
	if err := pipeline(); err != nil { // tunes the batch-1 micro graph once
		return err
	}
	pipeMs, err := medianMs((reps+1)/2, pipeline)
	if err != nil {
		return err
	}
	t.set("infer.pipeline_wall_ms", pipeMs)
	return nil
}

func layersServe(ctx context.Context, e *env, st *state, t *tracer) error {
	// The timed load, with a span per request and its phases laid under it.
	spanned := func(rec *recorder) submitFunc {
		return func(ctx context.Context, op int, req serve.Request) (*serve.Response, error) {
			id := rec.begin(-1, op, "serve.Submit", "serve")
			start := time.Now()
			resp, err := st.srv.Submit(ctx, req)
			rec.end(id)
			if err == nil && rec != nil {
				ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
				rec.add(id, op, "serve.queue", "serve", start, ms(resp.QueueMs))
				rec.add(id, op, "serve.batch", "serve", start.Add(ms(resp.QueueMs)), ms(resp.BatchMs))
				rec.add(id, op, "infer.run", "infer", start.Add(ms(resp.QueueMs+resp.BatchMs)), ms(resp.ExecMs+resp.CommMs))
			}
			return resp, err
		}
	}
	m, err := measureServe(ctx, e, spanned(t.rec), t.d)
	if err != nil {
		return err
	}
	run := m.serve
	t.attempted, t.failed = m.attempted, m.failed
	t.set("serve.latency_ms_p50", median(run.latencyMs))
	t.set("serve.latency_ms_p90", percentile(run.latencyMs, 0.90))
	t.set("serve.within_limit_share", ratio(float64(run.withinLimit), float64(run.sentA)))
	t.set("serve.sat_per_s", m.opsPerS)
	t.set("serve.queue_ms_p95", percentile(run.queueMs, 0.95))
	t.set("serve.batch_ms_p95", percentile(run.batchMs, 0.95))
	t.set("serve.exec_ms_p95", percentile(run.execMs, 0.95))
	ok := float64(len(run.execMs))
	t.set("serve.mean_batch", ratio(ok, run.batches))
	t.set("serve.pad_share", 1-ratio(ok, run.slots))
	t.set("serve.shed", float64(run.shed))
	t.set("serve.expired", float64(run.expired))
	t.set("serve.gen_late_ms_p99", percentile(run.genLateMs, 0.99))

	// The same daemon with everything observability offers attached, on
	// the same warm library: registry, observer, request tracing and the
	// time-series scraper.
	reg := metrics.NewRegistry()
	hist := tshist.New(tshist.Options{})
	scraper := tshist.NewScraper(hist, reg, 0)
	scraper.Start()
	defer scraper.Stop()
	cfg := serveConfig(e, st.lib)
	cfg.Metrics, cfg.Observer, cfg.History = reg, obsrv.New(), hist
	cfg.Trace = reqtrace.NewStore(reqtrace.StoreOptions{})
	watched, err := startServer(ctx, cfg)
	if err != nil {
		return err
	}
	defer closeState(watched)
	st.lib.SetMetrics(nil)
	st.lib.SetObserver(nil)
	if watched.setupMachineMs != st.setupMachineMs {
		return fmt.Errorf("observed server warms bucket %d to %v simulated ms, the bare one to %v",
			serveMaxBatch, watched.setupMachineMs, st.setupMachineMs)
	}
	t.fromRegistry(reg.Snapshot())

	// One caller at a time, the variants taking turns: what Submit costs
	// around the engine run, what the HTTP handler adds on top, what this
	// benchmark's spans add, and what the attached observability adds.
	n := 6
	if e.quick {
		n = 2
	}
	handler := st.srv.Handler()
	callers := []func() (*serve.Response, error){
		func() (*serve.Response, error) { return st.srv.Submit(ctx, serve.Request{}) },
		func() (*serve.Response, error) { return spanned(newRecorder())(ctx, 0, serve.Request{}) },
		func() (*serve.Response, error) { return watched.srv.Submit(ctx, serve.Request{}) },
		func() (*serve.Response, error) {
			rw := httptest.NewRecorder()
			handler.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader([]byte("{}"))))
			var resp serve.Response
			if rw.Code != http.StatusOK || json.Unmarshal(rw.Body.Bytes(), &resp) != nil {
				return nil, fmt.Errorf("POST /infer answered %d: %s", rw.Code, rw.Body.String())
			}
			return &resp, nil
		},
	}
	wall := make([][]float64, len(callers))  // whole call
	extra := make([][]float64, len(callers)) // the call minus the engine run inside it
	for i := 0; i < n; i++ {
		for c, call := range callers {
			t0 := time.Now()
			resp, err := call()
			if err != nil {
				return err
			}
			ms := msSince(t0)
			wall[c] = append(wall[c], ms)
			extra[c] = append(extra[c], ms-resp.RunMs)
		}
	}
	const plain, traced, observed, overHTTP = 0, 1, 2, 3
	t.set("serve.submit_overhead_us", median(extra[plain])*1e3)
	t.set("serve.http_overhead_us", (median(extra[overHTTP])-median(extra[plain]))*1e3)
	t.set("bench.trace_overhead_pct", 100*(ratio(median(wall[traced]), median(wall[plain]))-1))
	t.set("obs.serve_overhead_pct", 100*(ratio(median(wall[observed]), median(wall[plain]))-1))

	// Exactly one terminal outcome per request sent, by the server's own
	// books (only a server with a registry keeps them): everything sent was
	// admitted or shed, and every OK the clients saw is a response the
	// server counted.
	before := watched.srv.Status()
	mw, err := measureServe(ctx, e, plainSubmit(watched.srv), t.d/5)
	if err != nil {
		return err
	}
	now := watched.srv.Status()
	admitted, shed := now.Admitted-before.Admitted, now.Shed-before.Shed
	if okSeen := int64(mw.attempted - mw.failed); admitted+shed != int64(mw.attempted) ||
		now.Responses-before.Responses != okSeen || shed != int64(mw.serve.shed) {
		return fmt.Errorf("serve-open: sent %d requests (%d OK, %d shed), server admitted %d, shed %d, answered %d",
			mw.attempted, okSeen, mw.serve.shed, admitted, shed, now.Responses-before.Responses)
	}
	return nil
}
