package main

// The program has no spans of its own yet, so the traced run re-enacts the
// stack from outside: it calls the same public functions the tuner and the
// engine call, in the same order, on one goroutine, with a span around
// each. What the real code adds on top — worker pool, merging, bookkeeping
// — shows up as the difference between a real operation's wall time and
// its re-enactment (autotune.overhead_share, infer.self_ms_per_run).

import (
	"fmt"
	"sort"

	"swatop/internal/autotune"
	"swatop/internal/cache"
	"swatop/internal/conv"
	"swatop/internal/costmodel"
	"swatop/internal/dsl"
	"swatop/internal/exec"
	"swatop/internal/gemm"
	"swatop/internal/graph"
	"swatop/internal/ir"
	"swatop/internal/lower"
	"swatop/internal/optimizer"
	"swatop/internal/schedule"
	"swatop/internal/search"
	"swatop/internal/sw26010"
	"swatop/internal/trace"
)

// reenactor carries what every re-enacted call needs. rec may be nil: the
// same pass then runs with tracing off.
type reenactor struct {
	rec   *recorder
	model *costmodel.GemmModel
	op    int // OpID stamped on the spans of the current operation
	// Program statistics, counted under a bench-layer span so the counting
	// is not charged to any layer.
	programs, stmts, dmaOps int
}

func (r *reenactor) span(parent int, name, layer string) int {
	return r.rec.begin(parent, r.op, name, layer)
}

// compile is op.Compile(st) taken apart: lowering, prefetch injection and
// DMA inference each get a span where the passes are reachable from
// outside. Explicit convolution assembles and optimizes its two phases in
// one call, so it gets a single span in the lower layer. A panic anywhere
// in the compiler marks the point invalid, as the tuner's isolation does.
func (r *reenactor) compile(parent int, op autotune.Operator, st dsl.Strategy) (prog *ir.Program, err error) {
	defer func() {
		if p := recover(); p != nil {
			prog, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	switch o := op.(type) {
	case *conv.ImplicitOp, *gemm.Op:
		id := r.span(parent, "lower", "lower")
		if st.Padding == dsl.PadTraditional {
			prog, err = lower.LowerPadded(op.Seed(), st)
		} else {
			prog, err = lower.Lower(op.Seed(), st)
		}
		r.rec.end(id)
	case *conv.WinogradOp:
		id := r.span(parent, "lower", "lower")
		prog, err = o.CompileRaw(st)
		r.rec.end(id)
	default:
		id := r.span(parent, "lower+optimizer", "lower")
		prog, err = op.Compile(st)
		r.rec.end(id)
		return prog, err
	}
	if err != nil {
		return nil, err
	}
	if st.DoubleBuffer {
		id := r.span(parent, "optimizer.prefetch", "optimizer")
		err = optimizer.InjectPrefetch(prog)
		r.rec.end(id)
		if err != nil {
			return nil, err
		}
	}
	id := r.span(parent, "optimizer.inferdma", "optimizer")
	optimizer.InferDMA(prog)
	r.rec.end(id)
	return prog, nil
}

func (r *reenactor) count(parent int, prog *ir.Program) {
	id := r.span(parent, "bench.count", layerBench)
	r.programs++
	r.stmts += ir.CountKind(prog.Body, func(ir.Stmt) bool { return true })
	r.dmaOps += ir.CountKind(prog.Body, func(s ir.Stmt) bool { _, ok := s.(*ir.DMAOp); return ok })
	r.rec.end(id)
}

// oneshot binds and runs a program once on a fresh machine, the way the
// tuners measure a candidate and the engine re-times a method's winner.
func (r *reenactor) oneshot(parent int, prog *ir.Program) (exec.Result, error) {
	id := r.span(parent, "exec.oneshot", "exec")
	defer r.rec.end(id)
	binds, err := exec.BindVirtual(prog)
	if err != nil {
		return exec.Result{}, err
	}
	return exec.Run(prog, binds, exec.Options{FastLoops: true})
}

// pick is a tuning outcome: the chosen schedule, its program and its
// measured simulated seconds.
type pick struct {
	st      dsl.Strategy
	prog    *ir.Program
	seconds float64
	valid   int
}

type rankedPoint struct {
	idx       int
	st        dsl.Strategy
	predicted float64
}

// tuneExhaustive re-enacts autotune.ModelBasedCtx at one worker: stream
// the space, compile and estimate every point, keep the TopK predictions
// by (predicted, index), recompile and run those, keep the measured best.
func (r *reenactor) tuneExhaustive(parent int, op autotune.Operator) (*pick, error) {
	tune := r.span(parent, "tune "+op.Name(), "autotune")
	defer r.rec.end(tune)
	var top []rankedPoint
	valid := 0
	stream := r.span(tune, "schedule.stream", "schedule")
	err := schedule.Stream(op.Seed(), op.Space(), func(idx int, st dsl.Strategy) bool {
		c := r.span(stream, "candidate", "autotune")
		defer r.rec.end(c)
		prog, err := r.compile(c, op, st)
		if err != nil {
			return true
		}
		e := r.span(c, "costmodel.estimate", "costmodel")
		est, err := costmodel.EstimateProgram(r.model, prog)
		r.rec.end(e)
		if err != nil {
			return true
		}
		valid++
		r.count(c, prog)
		top = append(top, rankedPoint{idx: idx, st: st, predicted: est.Total()})
		sort.Slice(top, func(i, j int) bool {
			if top[i].predicted != top[j].predicted {
				return top[i].predicted < top[j].predicted
			}
			return top[i].idx < top[j].idx
		})
		if len(top) > autotune.TopK {
			top = top[:autotune.TopK]
		}
		return true
	})
	r.rec.end(stream)
	if err != nil {
		return nil, err
	}
	var best *pick
	for _, p := range top {
		f := r.span(tune, "finalist", "autotune")
		prog, err := r.compile(f, op, p.st)
		if err == nil {
			var res exec.Result
			if res, err = r.oneshot(f, prog); err == nil && (best == nil || res.Seconds < best.seconds) {
				best = &pick{st: p.st, prog: prog, seconds: res.Seconds, valid: valid}
			}
		}
		r.rec.end(f)
	}
	if best == nil {
		return nil, fmt.Errorf("re-enacted tune of %s: no finalist ran", op.Name())
	}
	return best, nil
}

// tuneSearch re-enacts the sample-efficient path: the real searcher runs,
// over a search.Problem whose Eval and Measure are the re-enacted compile,
// estimate, featurize and run. The searcher's own breeding, model fitting
// and prediction are the self time of the search.run span.
func (r *reenactor) tuneSearch(parent int, op autotune.Operator, lib *cache.Library, seed uint64) (*pick, error) {
	tune := r.span(parent, "tune "+op.Name(), "autotune")
	defer r.rec.end(tune)
	dims, err := schedule.Describe(op.Seed(), op.Space())
	if err != nil {
		return nil, err
	}
	n := r.span(tune, "cache.nearest", "cache")
	var seeds []int
	for _, ent := range lib.Nearest(op.Name(), autotune.TransferSeeds) {
		seeds = append(seeds, dims.NearestIndex(ent.Strategy()))
	}
	r.rec.end(n)
	run := r.span(tune, "search.run", "search")
	res, err := (&search.Evolutionary{}).Search(&search.Problem{
		Radices: dims.Radices(),
		Size:    dims.Size(),
		Budget:  search.BudgetFor(autotune.DefaultSearchBudget, dims.Size()),
		Seed:    seed,
		Seeds:   seeds,
		Eval: func(idx int) (search.Point, bool) {
			c := r.span(run, "candidate", "autotune")
			defer r.rec.end(c)
			a := r.span(c, "schedule.at", "schedule")
			st := dims.At(idx)
			r.rec.end(a)
			prog, err := r.compile(c, op, st)
			if err != nil {
				return search.Point{}, false
			}
			e := r.span(c, "costmodel.estimate", "costmodel")
			est, err := costmodel.EstimateProgram(r.model, prog)
			r.rec.end(e)
			if err != nil {
				return search.Point{}, false
			}
			f := r.span(c, "search.features", "search")
			feat := search.Features(op.Seed(), st, prog, est)
			r.rec.end(f)
			r.count(c, prog)
			return search.Point{Index: idx, Features: feat, Estimate: est.Total()}, true
		},
		Measure: func(indices []int) []search.Measured {
			var out []search.Measured
			for _, idx := range indices {
				m := r.span(run, "measure", "autotune")
				if prog, err := r.compile(m, op, dims.At(idx)); err == nil {
					if res, err := r.oneshot(m, prog); err == nil {
						out = append(out, search.Measured{Index: idx, Seconds: res.Seconds})
					}
				}
				r.rec.end(m)
			}
			sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
			return out
		},
	})
	r.rec.end(run)
	if err != nil {
		return nil, err
	}
	st := dims.At(res.BestIndex)
	prog, err := r.compile(tune, op, st)
	if err != nil {
		return nil, err
	}
	return &pick{st: st, prog: prog, seconds: res.BestSeconds, valid: len(res.Ledger)}, nil
}

// opGroup is one distinct operator shape of a network with the lowering
// methods the engine sweeps for it, in the engine's fixed order: implicit
// GEMM when the input channels sustain it, explicit im2col, Winograd when
// the shape qualifies; a single tiled GEMM for a fully-connected layer.
type opGroup struct {
	methods []autotune.Operator
	prog    *ir.Program // the fastest method's program, once network resolved it
}

// netOps lists a network's distinct operator shapes in first-use order and
// maps every operator node to its shape.
func netOps(g *graph.Graph) (groups []*opGroup, byNode map[string]*opGroup, err error) {
	byKey := map[string]*opGroup{}
	byNode = map[string]*opGroup{}
	for _, n := range g.Topo() {
		var key string
		switch n.Kind {
		case graph.Conv:
			key = "conv:" + n.Conv.String()
		case graph.Gemm:
			key = "gemm:" + n.Gemm.String()
		default:
			continue
		}
		grp := byKey[key]
		if grp == nil {
			grp = &opGroup{}
			add := func(op autotune.Operator, err error) {
				if err == nil {
					grp.methods = append(grp.methods, op)
				}
			}
			if n.Kind == graph.Gemm {
				op, gerr := gemm.NewOp(n.Gemm)
				if gerr != nil {
					return nil, nil, gerr
				}
				grp.methods = append(grp.methods, op)
			} else {
				if n.Conv.Ni >= conv.MinNiImplicit {
					add(conv.NewImplicitOp(n.Conv))
				}
				add(conv.NewExplicitOp(n.Conv))
				if conv.WinogradApplies(n.Conv) {
					add(conv.NewWinogradOp(n.Conv))
				}
			}
			byKey[key] = grp
			groups = append(groups, grp)
		}
		byNode[n.Name] = grp
	}
	return groups, byNode, nil
}

// resolver produces the program the engine would end up with for one
// method of one operator shape: a library lookup, then either tuning (a
// miss on a cold library) or recompiling the cached strategy (a hit).
type resolver func(parent int, op autotune.Operator, lib *cache.Library) (*ir.Program, error)

func (r *reenactor) lookup(parent int, op autotune.Operator, lib *cache.Library) (cache.Entry, bool) {
	id := r.span(parent, "cache.get", "cache")
	defer r.rec.end(id)
	return lib.Get(op.Name())
}

func (r *reenactor) resolveCold(tune func(parent int, op autotune.Operator, lib *cache.Library) (*pick, error)) resolver {
	return func(parent int, op autotune.Operator, lib *cache.Library) (*ir.Program, error) {
		if _, hit := r.lookup(parent, op, lib); hit {
			return nil, fmt.Errorf("re-enacted cold pass: %s is already in the library", op.Name())
		}
		p, err := tune(parent, op, lib)
		if err != nil {
			return nil, err
		}
		id := r.span(parent, "cache.put", "cache")
		lib.Put(cache.FromStrategy(op.Name(), p.st, p.seconds, p.valid))
		r.rec.end(id)
		return p.prog, nil
	}
}

func (r *reenactor) resolveWarm(parent int, op autotune.Operator, lib *cache.Library) (*ir.Program, error) {
	ent, hit := r.lookup(parent, op, lib)
	if !hit {
		return nil, fmt.Errorf("re-enacted replay: %s is not in the library", op.Name())
	}
	return r.compile(parent, op, ent.Strategy())
}

// network re-enacts infer.Engine.Run on one core group: resolve every
// method of every distinct shape, re-time the result on a fresh machine
// and keep the strictly fastest method; then run the chosen programs in
// topological order on one shared machine. The glue layers between
// operators are private to the engine and are not re-enacted, so the
// returned simulated seconds cover operator nodes only, one entry per
// operator node in topological order.
func (r *reenactor) network(g *graph.Graph, lib *cache.Library, resolve resolver) ([]float64, error) {
	root := r.span(-1, "infer.run (re-enacted)", "infer")
	defer r.rec.end(root)
	groups, byNode, err := netOps(g)
	if err != nil {
		return nil, err
	}
	for _, grp := range groups {
		bestSecs := 0.0
		for _, op := range grp.methods {
			prog, err := resolve(root, op, lib)
			if err != nil {
				continue // the engine skips a method that fails to resolve
			}
			res, err := r.oneshot(root, prog)
			if err != nil {
				continue
			}
			if grp.prog == nil || res.Seconds < bestSecs {
				grp.prog, bestSecs = prog, res.Seconds
			}
		}
		if grp.prog == nil {
			return nil, fmt.Errorf("re-enacted run: no method of %s resolved", grp.methods[0].Name())
		}
	}
	m := sw26010.NewMachine()
	var secs []float64
	for _, n := range g.Topo() {
		grp := byNode[n.Name]
		if grp == nil {
			continue
		}
		id := r.span(root, "exec.replay", "exec")
		binds, err := exec.BindVirtual(grp.prog)
		if err == nil {
			var res exec.Result
			res, err = exec.Run(grp.prog, binds, exec.Options{FastLoops: true, Machine: m, Trace: &trace.Log{}})
			m.ResetSPM()
			secs = append(secs, res.Seconds)
		}
		r.rec.end(id)
		if err != nil {
			return nil, err
		}
	}
	return secs, nil
}
