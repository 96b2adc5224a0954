package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"swatop/internal/autotune"
	"swatop/internal/cache"
	"swatop/internal/conv"
	"swatop/internal/costmodel"
	"swatop/internal/graph"
	"swatop/internal/infer"
	"swatop/internal/search"
	"swatop/internal/serve"
	"swatop/internal/workloads"
)

// sizing is what the workloads run on. The full sizing is the paper's
// VGG16; the quick one swaps in a five-layer chain so the smoke test walks
// every code path of the harness in seconds.
type sizing struct {
	net        string
	build      func(batch int) (*graph.Graph, error)
	bbShapes   []conv.Shape // blackbox-conv: implicit-conv shapes measured exhaustively
	fleetBatch int
	rate       float64 // serve-open phase A: Poisson arrivals per second
	limitMs    float64 // serve-open phase A: latency limit from the due time
	clients    int     // serve-open phase B: closed-loop clients
}

func fullSizing() sizing {
	return sizing{
		net:   "vgg16",
		build: func(b int) (*graph.Graph, error) { return graph.ByName("vgg16", b) },
		bbShapes: []conv.Shape{
			{B: 1, Ni: 64, No: 64, Ro: 224, Co: 224, Kr: 3, Kc: 3},
			{B: 1, Ni: 64, No: 128, Ro: 112, Co: 112, Kr: 3, Kc: 3},
			{B: 1, Ni: 128, No: 128, Ro: 112, Co: 112, Kr: 3, Kc: 3},
		},
		fleetBatch: 8,
		rate:       24,
		limitMs:    400,
		clients:    16,
	}
}

// tinyChain is the correctness stage's network and the quick sizing's
// stand-in for VGG16: an explicit-GEMM first conv (Ni below the implicit
// method's floor, like every real network's first layer), two implicit
// convs across a pooling step, and a two-layer fully-connected tail.
func tinyChain(batch int) (*graph.Graph, error) {
	return graph.Chain("tiny", batch,
		[]workloads.ConvLayer{
			{Net: "tiny", Name: "c1", Ni: 3, No: 16, R: 8, K: 3},
			{Net: "tiny", Name: "c2", Ni: 16, No: 16, R: 8, K: 3},
			{Net: "tiny", Name: "c3", Ni: 16, No: 16, R: 4, K: 3},
		},
		[]workloads.FCLayer{
			{Net: "tiny", Name: "f1", In: 16 * 2 * 2, Out: 32},
			{Net: "tiny", Name: "f2", In: 32, Out: 12},
		})
}

func quickSizing() sizing {
	return sizing{
		net:   "tiny",
		build: tinyChain,
		bbShapes: []conv.Shape{
			{B: 2, Ni: 16, No: 16, Ro: 8, Co: 8, Kr: 3, Kc: 3},
			{B: 2, Ni: 16, No: 32, Ro: 8, Co: 8, Kr: 3, Kc: 3},
			{B: 2, Ni: 32, No: 32, Ro: 4, Co: 4, Kr: 3, Kc: 3},
		},
		fleetBatch: 8,
		rate:       100,
		limitMs:    400,
		clients:    4,
	}
}

// env is one invocation's settings. Workers doubles as GOMAXPROCS, so the
// load is sized to the box: min(nproc, 4).
type env struct {
	workers int
	seed    uint64
	quick   bool // one repetition per workload
	size    sizing
}

// state is what a workload's set-up leaves behind for its timed
// operations. close releases whatever must not outlive it.
type state struct {
	eng   *infer.Engine
	model *costmodel.GemmModel
	g     *graph.Graph
	lib   *cache.Library
	ops   []autotune.Operator
	// bbBest is the measured-best simulated seconds per blackbox-conv
	// shape, from the last pass.
	bbBest []float64
	srv    *serve.Server
	// setupMachineMs is the simulated time the set-up itself observed for
	// the schedules the timed operations replay: the cold tuning pass that
	// filled the library, or the warmed top bucket of the server. Warm
	// replays must reproduce it bit for bit.
	setupMachineMs float64
	close          func()
}

// measured is one timed run of a workload.
type measured struct {
	wallMs    []float64 // host ms per operation
	opsPerS   float64
	machineMs float64
	attempted int
	failed    int
	mallocs   float64 // per operation
	allocMB   float64 // per operation
	serve     *serveRun
}

// workload is one row of the workload table in README.md.
type workload struct {
	name string
	// setupReps is how many times set-up runs for the setup_s median;
	// long set-ups repeat less, since one long timing is already steady.
	setupReps int
	setup     func(ctx context.Context, e *env) (*state, error)
	// op runs the i-th timed operation and returns the simulated
	// milliseconds of the schedules it ended on. Nil for serve-open, whose
	// operations are requests driven by measureServe.
	op func(ctx context.Context, e *env, st *state, i int, opt infer.Options) (float64, error)
	// exact says every repetition must report bit-identical simulated
	// time; false only where the seed changes the search itself.
	exact bool
	// check, when set, is a correctness check run after the timed
	// operations, on the state they left behind.
	check func(ctx context.Context, e *env, st *state) error
	// opaque says the operation cannot be taken apart from outside (the
	// fleet's group fan-out is private to the engine): its real runs stand
	// as the infer layer's time in the trace.
	opaque bool
	// layers fills the per-layer metrics this workload is the measuring
	// point for (see the "measured on" column in README.md).
	layers func(ctx context.Context, e *env, st *state, t *tracer) error
}

var allWorkloads = []*workload{
	{name: "tune-cold", setupReps: 3, setup: setupTune(nil), op: tunePass(nil), exact: true, layers: layersTuneCold},
	{name: "search-evo", setupReps: 2, setup: setupTune(newEvo), op: tunePass(newEvo), layers: layersSearchEvo},
	{name: "blackbox-conv", setupReps: 3, setup: setupBlackBox, op: blackBoxPass, exact: true, layers: layersBlackBox,
		check: func(ctx context.Context, e *env, st *state) error { _, err := checkPickRatio(ctx, e, st); return err }},
	{name: "replay-warm", setupReps: 3, setup: setupReplay, op: replayRun, exact: true, layers: layersReplay},
	{name: "fleet-warm-g4", setupReps: 3, setup: setupFleet, op: fleetRun, exact: true, opaque: true, layers: layersFleet},
	{name: "serve-open", setupReps: 1, setup: setupServe, layers: layersServe},
}

func workloadByName(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func newEvo() search.Searcher { return &search.Evolutionary{} }

// passSeed derives the searcher seed of the i-th pass from the run's seed
// (splitmix64), so one run samples several search trajectories and its
// median does not hang on a single lucky or unlucky one.
func passSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // 0 means "derive from the operator name" to the tuner
	}
	return z
}

// tuneOptions are the engine options of one cold tuning pass: a fresh
// library every time, so every operator is tuned from scratch.
func tuneOptions(e *env, mk func() search.Searcher, i int, opt infer.Options) infer.Options {
	opt.Workers = e.workers
	opt.Library = cache.NewLibrary()
	opt.SkipBaseline = true
	if mk != nil {
		opt.Searcher = mk()
		opt.SearchSeed = passSeed(e.seed, i)
	}
	return opt
}

func setupTune(mk func() search.Searcher) func(context.Context, *env) (*state, error) {
	return func(ctx context.Context, e *env) (*state, error) {
		eng, err := infer.NewEngine()
		if err != nil {
			return nil, err
		}
		g, err := e.size.build(1)
		if err != nil {
			return nil, err
		}
		st := &state{eng: eng, g: g}
		// Warm-up pass, discarded: heap growth and first-use costs land in
		// set-up time, not in the first timed pass.
		_, err = tunePass(mk)(ctx, e, st, -1, infer.Options{})
		return st, err
	}
}

func tunePass(mk func() search.Searcher) func(context.Context, *env, *state, int, infer.Options) (float64, error) {
	return func(ctx context.Context, e *env, st *state, i int, opt infer.Options) (float64, error) {
		res, err := st.eng.Run(ctx, st.g, tuneOptions(e, mk, i, opt))
		if err != nil {
			return 0, err
		}
		if res.TunedOps == 0 || res.CachedOps != 0 || res.DegradedOps != 0 {
			return 0, fmt.Errorf("cold pass resolved %d tuned, %d cached, %d degraded operators",
				res.TunedOps, res.CachedOps, res.DegradedOps)
		}
		return res.Seconds * 1e3, nil
	}
}

func setupBlackBox(ctx context.Context, e *env) (*state, error) {
	model, err := costmodel.FitGemmModel()
	if err != nil {
		return nil, err
	}
	st := &state{model: model}
	for _, s := range e.size.bbShapes {
		op, err := conv.NewImplicitOp(s)
		if err != nil {
			return nil, err
		}
		st.ops = append(st.ops, op)
	}
	_, err = blackBoxPass(ctx, e, st, -1, infer.Options{})
	return st, err
}

// blackBoxPass measures every candidate of every shape once; the
// simulated time it reports is the sum of the measured-best schedules.
func blackBoxPass(ctx context.Context, e *env, st *state, _ int, opt infer.Options) (float64, error) {
	st.bbBest = st.bbBest[:0]
	for _, op := range st.ops {
		res, err := autotune.BlackBoxCtx(ctx, op, autotune.Options{Workers: e.workers, Metrics: opt.Metrics})
		if err != nil {
			return 0, err
		}
		st.bbBest = append(st.bbBest, res.Best.Measured)
	}
	return sum(st.bbBest) * 1e3, nil
}

// warmOptions replay cached schedules: the library already holds every
// operator, so nothing is tuned.
func warmOptions(e *env, st *state, opt infer.Options) infer.Options {
	opt.Workers = e.workers
	opt.Library = st.lib
	opt.SkipBaseline = true
	return opt
}

func setupReplay(ctx context.Context, e *env) (*state, error) {
	eng, err := infer.NewEngine()
	if err != nil {
		return nil, err
	}
	g, err := e.size.build(1)
	if err != nil {
		return nil, err
	}
	st := &state{eng: eng, g: g, lib: cache.NewLibrary()}
	cold, err := eng.Run(ctx, g, warmOptions(e, st, infer.Options{}))
	if err != nil {
		return nil, err
	}
	st.setupMachineMs = cold.Seconds * 1e3
	_, err = replayRun(ctx, e, st, -1, infer.Options{})
	return st, err
}

func replayRun(ctx context.Context, e *env, st *state, _ int, opt infer.Options) (float64, error) {
	res, err := st.eng.Run(ctx, st.g, warmOptions(e, st, opt))
	if err != nil {
		return 0, err
	}
	if res.TunedOps != 0 || res.DegradedOps != 0 {
		return 0, fmt.Errorf("warm run resolved %d tuned, %d degraded operators", res.TunedOps, res.DegradedOps)
	}
	return res.Seconds * 1e3, nil
}

const fleetGroups = 4

func fleetOptions(e *env, st *state, opt infer.Options) infer.Options {
	opt = warmOptions(e, st, opt)
	opt.Groups = fleetGroups
	opt.Builder = e.size.build
	return opt
}

func setupFleet(ctx context.Context, e *env) (*state, error) {
	eng, err := infer.NewEngine()
	if err != nil {
		return nil, err
	}
	g, err := e.size.build(e.size.fleetBatch)
	if err != nil {
		return nil, err
	}
	st := &state{eng: eng, g: g, lib: cache.NewLibrary()}
	cold, err := eng.Run(ctx, g, fleetOptions(e, st, infer.Options{}))
	if err != nil {
		return nil, err
	}
	st.setupMachineMs = cold.Seconds * 1e3
	_, err = fleetRun(ctx, e, st, -1, infer.Options{})
	return st, err
}

func fleetRun(ctx context.Context, e *env, st *state, _ int, opt infer.Options) (float64, error) {
	res, err := st.eng.Run(ctx, st.g, fleetOptions(e, st, opt))
	if err != nil {
		return 0, err
	}
	if res.TunedOps != 0 || res.DegradedOps != 0 || len(res.Groups) != fleetGroups {
		return 0, fmt.Errorf("warm fleet run: %d tuned, %d degraded operators on %d groups",
			res.TunedOps, res.DegradedOps, len(res.Groups))
	}
	return res.Seconds * 1e3, nil
}

const serveMaxBatch = 8

// serveConfig is the daemon under test: power-of-two buckets up to 8, a
// 1 ms batch window, one core group, nothing attached.
func serveConfig(e *env, lib *cache.Library) serve.Config {
	return serve.Config{
		Net:         e.size.net,
		Builder:     e.size.build,
		MaxBatch:    serveMaxBatch,
		BatchWindow: time.Millisecond,
		Workers:     e.workers,
		Library:     lib,
	}
}

func setupServe(ctx context.Context, e *env) (*state, error) {
	return startServer(ctx, serveConfig(e, cache.NewLibrary()))
}

// startServer builds a server, warms every bucket and sends one request
// through it.
func startServer(ctx context.Context, cfg serve.Config) (*state, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	st := &state{srv: srv, lib: srv.Library(), close: func() { _ = srv.Drain(context.Background()) }}
	warm, err := srv.Warmup(ctx)
	if err == nil {
		st.setupMachineMs = warm[serveMaxBatch] * 1e3
		_, err = srv.Submit(ctx, serve.Request{ID: "warm-up"})
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// measureLoop times operations back to back (a closed loop of one caller)
// for d, or exactly once in quick mode.
func measureLoop(ctx context.Context, e *env, w *workload, st *state, d time.Duration) (*measured, error) {
	m := &measured{}
	var machine []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; ; i++ {
		t := time.Now()
		ms, err := w.op(ctx, e, st, i, infer.Options{})
		m.wallMs = append(m.wallMs, msSince(t))
		m.attempted++
		if err != nil {
			fmt.Printf("# %s op %d failed: %v\n", w.name, i, err)
			m.failed++
		} else {
			machine = append(machine, ms)
		}
		if e.quick || time.Since(t0) >= d {
			break
		}
	}
	total := time.Since(t0)
	runtime.ReadMemStats(&after)
	m.opsPerS = float64(m.attempted-m.failed) / total.Seconds()
	m.mallocs = float64(after.Mallocs-before.Mallocs) / float64(m.attempted)
	m.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / float64(m.attempted) / (1 << 20)
	m.machineMs = median(machine)
	if w.exact {
		for _, ms := range machine {
			if ms != machine[0] {
				return nil, fmt.Errorf("%s: simulated time differs between repetitions: %v ms vs %v ms",
					w.name, machine[0], ms)
			}
		}
		if st.setupMachineMs != 0 && len(machine) > 0 && machine[0] != st.setupMachineMs {
			return nil, fmt.Errorf("%s: warm replay reports %v simulated ms, the cold pass that filled the library %v",
				w.name, machine[0], st.setupMachineMs)
		}
	}
	return m, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// liveHeapMB is the heap still reachable after a collection while keep —
// the engine, library or server the workload built — is referenced.
func liveHeapMB(keep *state) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}
