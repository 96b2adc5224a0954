// Package swatop is an end-to-end reproduction of "swATOP: Automatically
// Optimizing Deep Learning Operators on SW26010 Many-Core Processor"
// (ICPP 2019): an auto-tuning framework that schedules deep-learning
// operators (GEMM and three convolution algorithms) over tensorized
// primitives, searches the schedule space with a static performance model,
// and generates SW26010 C code — all evaluated against a functional, timed
// simulator of one SW26010 core group.
//
// This top-level package is the stable facade: construct a Tuner, tune an
// operator, inspect the chosen schedule, simulated performance and
// generated C. The examples/ directory shows complete programs; cmd/swbench
// regenerates every table and figure of the paper.
package swatop

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"swatop/internal/autotune"
	"swatop/internal/baseline"
	"swatop/internal/cache"
	"swatop/internal/codegen"
	"swatop/internal/conv"
	"swatop/internal/costmodel"
	"swatop/internal/exec"
	"swatop/internal/faults"
	"swatop/internal/gemm"
	"swatop/internal/ir"
	"swatop/internal/obsrv"
	"swatop/internal/search"
	"swatop/internal/sw26010"
	"swatop/internal/tensor"
	"swatop/internal/trace"
)

// Library is a persistent schedule cache: tune each operator shape once,
// reuse the schedule afterwards (the paper's offline-compiler / online-
// autotuning deployment modes). Attach one to a Tuner with UseLibrary.
type Library = cache.Library

// NewLibrary creates an empty schedule cache; use Load/Save for
// persistence.
func NewLibrary() *Library { return cache.NewLibrary() }

// FaultInjector is the deterministic fault injector of internal/faults:
// arm rules on the named injection points and attach it with
// Tuner.SetFaults (or Library.SetFaults) to exercise the tuner's recovery
// paths without real hardware faults.
type FaultInjector = faults.Injector

// NewFaultInjector creates an injector with no armed rules; seed fixes the
// random stream of probability-triggered rules.
func NewFaultInjector(seed uint64) *FaultInjector { return faults.New(seed) }

// FaultMeasure is the injection point that fails candidate measurements
// (exec.Run), re-exported so facade users can arm rules on it without
// importing internal packages.
const FaultMeasure = faults.Measure

// TransientError marks err as retryable: the tuner's retry policy (see
// SetRetry) retries transient measurement failures instead of failing the
// candidate outright. Unmarked errors stay fatal.
func TransientError(err error) error { return faults.Transient(err) }

// FallbackPolicy selects what a Tuner does when tuning cannot complete —
// every candidate failing, or the context's deadline budget expiring.
type FallbackPolicy int

const (
	// FallbackNone returns tuning failures as errors (the default).
	FallbackNone FallbackPolicy = iota
	// FallbackBaseline degrades gracefully: the tuner returns the manual
	// baseline schedule (xMath / swDNN / manual conv from
	// internal/baseline) flagged Degraded instead of an error. An online
	// framework keeps serving at manual-library speed while the
	// environment misbehaves. Explicit context cancellation still returns
	// the error: the caller asked the work to stop, not to degrade.
	FallbackBaseline
)

// ConvShape is the convolution geometry (stride 1, pre-padded input):
// batch B, channels Ni→No, output Ro×Co, kernel Kr×Kc.
type ConvShape = tensor.ConvShape

// GemmParams is a matrix-multiplication problem size.
type GemmParams = gemm.Params

// Conv methods.
const (
	// Implicit is the implicit-GEMM direct convolution (Alg. 2).
	Implicit = conv.Implicit
	// Explicit is the im2col + GEMM convolution.
	Explicit = conv.Explicit
	// Winograd is the F(2×2,3×3) fast convolution.
	Winograd = conv.Winograd
)

// Searcher is a sample-efficient search strategy: instead of estimating
// every schedule in the space, it proposes candidates, predicts them with
// an online-learned cost model and measures only the most promising. Build
// one with NewEvoSearcher (or SearcherByName) and attach it with
// Tuner.SetSearcher.
type Searcher = search.Searcher

// NewEvoSearcher returns the evolutionary searcher (mutation + crossover
// over the schedule space's stable indices, learned-model ranking,
// ε-greedy measurement batches) with default parameters.
func NewEvoSearcher() Searcher { return &search.Evolutionary{} }

// SearcherByName maps the CLI names to searchers: "evo", or "" (nil — the
// exhaustive walk). Unknown names are an error.
func SearcherByName(name string) (Searcher, error) {
	switch name {
	case "":
		return nil, nil
	case "evo":
		return NewEvoSearcher(), nil
	}
	return nil, fmt.Errorf("swatop: unknown searcher %q (want evo or empty)", name)
}

// Tuner is swATOP's performance-model-based autotuner with its fitted
// Eq. (2) cost model (calibrated once against the simulated machine).
type Tuner struct {
	model    *costmodel.GemmModel
	lib      *Library
	fallback FallbackPolicy
	// opts is what the setters below write into and every tuning run passes
	// to the autotuner as it is.
	opts autotune.Options
}

// UseLibrary attaches a schedule cache: tuning consults it first and
// records new results into it.
func (t *Tuner) UseLibrary(l *Library) {
	t.lib = l
	if l != nil && t.opts.Metrics != nil {
		l.SetMetrics(t.opts.Metrics)
	}
	if l != nil && t.opts.Observer != nil {
		l.SetObserver(t.opts.Observer)
	}
}

// SetObserver attaches a structured-event observer: every tuning run emits
// its event log (tune/candidate/finalist events) into it and registers as
// a live job in the observer's tracker, and the attached Library, if any,
// reports its cache activity to the same observer. When tuning fails or
// degrades to the baseline, the observer's flight recorder is dumped to
// its configured sink. Passing nil detaches. Purely observational:
// attaching an observer changes neither the selected schedule nor any
// metric.
func (t *Tuner) SetObserver(o *Observer) {
	t.opts.Observer = o
	if t.lib != nil {
		t.lib.SetObserver(o)
	}
}

// SetMetrics attaches a metrics registry: every tuning run records its
// candidate counts, retry activity, best-score trajectory, stage wall
// clocks and machine-time ledger into it (see internal/metrics). The
// attached Library, if any, reports its hit/miss/commit activity to the
// same registry. Passing nil detaches.
func (t *Tuner) SetMetrics(reg *MetricsRegistry) {
	t.opts.Metrics = reg
	if t.lib != nil {
		t.lib.SetMetrics(reg)
	}
}

// SetWorkers sets the number of concurrent compile+estimate goroutines the
// tuner uses (values below 2 run sequentially). The selected schedule, its
// simulated performance and the tuning ledger's MachineSeconds are
// identical for every worker count — candidates are merged by
// (prediction, enumeration index) — so parallelism only shrinks host wall
// time.
func (t *Tuner) SetWorkers(n int) { t.opts.Workers = n }

// SetFallback selects the degradation policy for failed or deadline-
// expired tuning runs.
func (t *Tuner) SetFallback(p FallbackPolicy) { t.fallback = p }

// SetFaults attaches a fault injector to every measurement this tuner
// performs (nil detaches). Production tuners never need this; it exists so
// integrations can rehearse their failure handling deterministically.
func (t *Tuner) SetFaults(in *FaultInjector) { t.opts.Faults = in }

// SetRetry configures capped exponential backoff with jitter for
// transient measurement errors: attempts is the total number of tries per
// candidate measurement (values <= 1 disable retrying), base the first
// delay, max the cap. Retries never change the selected schedule or the
// simulated-time ledger — only host wall time.
func (t *Tuner) SetRetry(attempts int, base, max time.Duration) {
	t.opts.Retry = autotune.Retry{Attempts: attempts, BaseDelay: base, MaxDelay: max}
}

// SetSearcher switches tuning from the exhaustive estimate-everything walk
// to sample-efficient search (nil switches back — the default, which stays
// bit-identical to the classic walk). With a searcher attached, tuning
// measures at most the budget fraction of each space (SetSearchBudget) and,
// when a Library is attached, seeds the search from the nearest
// already-tuned shapes of the same operator family.
func (t *Tuner) SetSearcher(s Searcher) { t.opts.Searcher = s }

// SetSearchBudget caps the fraction of the candidate space a searcher may
// measure (0 restores the 0.10 default). No effect without a searcher.
func (t *Tuner) SetSearchBudget(frac float64) { t.opts.SearchBudget = frac }

// SetSearchSeed pins the searcher's RNG seed. 0 (the default) derives a
// stable per-operator seed, so repeated runs already reproduce; set an
// explicit seed to decorrelate or correlate runs on purpose.
func (t *Tuner) SetSearchSeed(seed uint64) { t.opts.SearchSeed = seed }

// NewTuner fits the cost model (the per-machine offline calibration).
func NewTuner() (*Tuner, error) {
	m, err := costmodel.FitGemmModel()
	if err != nil {
		return nil, err
	}
	return &Tuner{model: m}, nil
}

// Tuned is a tuned operator: the selected schedule, its compiled program,
// and its measured (simulated) performance.
type Tuned struct {
	program     *ir.Program
	strategy    string
	seconds     float64
	spaceSize   int
	spacePoints int
	measured    int
	flops       int64
	degraded    bool
	failed      int
}

// TuneGemm searches the GEMM schedule space for a problem size.
func (t *Tuner) TuneGemm(p GemmParams) (*Tuned, error) {
	return t.TuneGemmCtx(context.Background(), p)
}

// TuneGemmCtx is TuneGemm with cancellation: the candidate search stops
// promptly when ctx is canceled and returns ctx's error — unless the
// baseline fallback is enabled, in which case a deadline expiry or tuning
// failure degrades to the manual baseline schedule instead.
func (t *Tuner) TuneGemmCtx(ctx context.Context, p GemmParams) (*Tuned, error) {
	op, err := gemm.NewOp(p)
	if err != nil {
		return nil, err
	}
	return t.tune(ctx, op, p.FLOPs(), func() (*ir.Program, error) {
		return baseline.FallbackGemm(p)
	})
}

// TuneConv searches the schedule space of one convolution method.
func (t *Tuner) TuneConv(method string, s ConvShape) (*Tuned, error) {
	return t.TuneConvCtx(context.Background(), method, s)
}

// TuneConvCtx is TuneConv with cancellation: the candidate search stops
// promptly when ctx is canceled and returns ctx's error.
func (t *Tuner) TuneConvCtx(ctx context.Context, method string, s ConvShape) (*Tuned, error) {
	op, err := conv.NewOp(method, s)
	if err != nil {
		return nil, err
	}
	return t.tune(ctx, op, s.FLOPs(), func() (*ir.Program, error) {
		return baseline.FallbackConv(method, s)
	})
}

func (t *Tuner) tune(ctx context.Context, op autotune.Operator, flops int64,
	fallback func() (*ir.Program, error)) (*Tuned, error) {
	res, cached, err := autotune.Resolve(ctx, op, t.model, t.lib, false, t.opts)
	if cached {
		t.opts.Metrics.Counter("tuner_cache_hits_total").Inc()
	} else if t.lib != nil {
		t.opts.Metrics.Counter("tuner_cache_misses_total").Inc()
	}
	if err != nil {
		if t.fallback == FallbackBaseline && !errors.Is(err, context.Canceled) {
			t.opts.Metrics.Counter("tuner_degraded_total").Inc()
			t.opts.Observer.AutoDump("baseline fallback: " + op.Name())
			return t.degrade(op.Name(), fallback, flops, err)
		}
		t.opts.Observer.AutoDump("tune failed: " + op.Name())
		return nil, err
	}
	// A library hit carries the cached strategy, seconds and valid count and
	// zeroes for what only a fresh search knows.
	return &Tuned{
		program:     res.Best.Program,
		strategy:    res.Best.Strategy.String(),
		seconds:     res.Best.Measured,
		spaceSize:   res.Valid,
		spacePoints: res.SpaceSize,
		measured:    res.Measured,
		flops:       flops,
		failed:      res.FailedCandidates,
	}, nil
}

// degrade serves the manual baseline schedule in place of a failed tuning
// run. The baseline is measured without fault injection — degradation is
// the recovery path, and it must stay available while the injector is
// sabotaging tuning measurements. Degraded results are never cached: the
// next tuning attempt should search again, not be shadowed by the
// emergency answer.
func (t *Tuner) degrade(name string, fallback func() (*ir.Program, error),
	flops int64, cause error) (*Tuned, error) {
	t.opts.Observer.Emit(obsrv.LevelWarn, "tuner.degraded",
		obsrv.F("op", name), obsrv.F("cause", cause))
	prog, err := fallback()
	if err != nil {
		return nil, fmt.Errorf("swatop: tuning %s failed (%v); baseline fallback also failed: %w", name, cause, err)
	}
	secs, err := runTimed(prog)
	if err != nil {
		return nil, fmt.Errorf("swatop: tuning %s failed (%v); baseline fallback failed to run: %w", name, cause, err)
	}
	return &Tuned{
		program:  prog,
		strategy: fmt.Sprintf("baseline fallback (tuning failed: %v)", cause),
		seconds:  secs,
		flops:    flops,
		degraded: true,
	}, nil
}

// Seconds returns the simulated execution time of the tuned operator on
// one SW26010 core group.
func (t *Tuned) Seconds() float64 { return t.seconds }

// GFLOPS returns the simulated core-group throughput.
func (t *Tuned) GFLOPS() float64 { return float64(t.flops) / t.seconds / 1e9 }

// Strategy describes the selected schedule.
func (t *Tuned) Strategy() string { return t.strategy }

// SpaceSize is the number of valid schedules that were considered.
func (t *Tuned) SpaceSize() int { return t.spaceSize }

// SpacePoints is the number of raw points in the schedule space — the
// coverage denominator for budgeted searches. 0 for cache hits (the space
// was never re-enumerated).
func (t *Tuned) SpacePoints() int { return t.spacePoints }

// MeasuredCandidates is how many candidates were actually run on the
// simulated machine. 0 when tuning used the exhaustive walk (which
// estimates everything but measures only the finalists) or hit the cache.
func (t *Tuned) MeasuredCandidates() int { return t.measured }

// Degraded reports whether this result is the baseline fallback served in
// place of a failed or deadline-expired tuning run (FallbackBaseline).
func (t *Tuned) Degraded() bool { return t.degraded }

// FailedCandidates is the number of candidates whose evaluation panicked
// or exhausted its retries during the search; they were skipped, never
// selected.
func (t *Tuned) FailedCandidates() int { return t.failed }

// EmitC generates the SW26010 C code of the tuned operator.
func (t *Tuned) EmitC() (string, error) { return codegen.EmitC(t.program) }

// Trace re-runs the tuned operator with timeline recording and returns a
// textual summary, a coarse Gantt chart and a roofline block — showing, in
// particular, how much DMA time double buffering hides behind compute and
// how close the schedule came to the machine's peaks.
func (t *Tuned) Trace() (string, error) {
	log, res, err := t.timeline()
	if err != nil {
		return "", err
	}
	roof := log.Roofline(t.flops, res.Counters.DMABytesTouched,
		sw26010.PeakGFlops, sw26010.DMAEffBandwidth)
	return log.Summary() + log.Gantt(72) + roof.String(), nil
}

// WriteChromeTrace re-runs the tuned operator with timeline recording and
// writes the timeline in the Chrome trace-event JSON format — the file
// opens directly in ui.perfetto.dev. Every span carries the selected
// strategy in its Args.
func (t *Tuned) WriteChromeTrace(w io.Writer) error {
	log, _, err := t.timeline()
	if err != nil {
		return err
	}
	log.Annotate("op", t.program.Name)
	log.Annotate("strategy", t.strategy)
	return log.WriteChromeTrace(w)
}

func (t *Tuned) timeline() (*trace.Log, exec.Result, error) {
	var log trace.Log
	res, err := exec.RunVirtual(t.program, exec.Options{Trace: &log})
	if err != nil {
		return nil, exec.Result{}, err
	}
	return &log, res, nil
}

// PrintIR renders the optimized intermediate representation.
func (t *Tuned) PrintIR() string { return ir.Print(t.program) }

// VerifyGemm executes the tuned GEMM functionally on the simulator and
// checks the result against a reference implementation, returning the
// maximum absolute error.
func (t *Tuned) VerifyGemm() (float64, error) {
	binds, err := gemm.Bind(t.program)
	if err != nil {
		return 0, err
	}
	if _, err := exec.Run(t.program, binds, exec.Options{Functional: true}); err != nil {
		return 0, err
	}
	want, err := tensor.ReferenceGemm(binds["A"], binds["B"], 1, 0)
	if err != nil {
		return 0, err
	}
	return tensor.MaxAbsDiff(want, binds["C"])
}

// BaselineGemmSeconds measures the xMath manual GEMM on the same problem —
// the paper's comparison target.
func BaselineGemmSeconds(p GemmParams) (float64, error) {
	prog, err := baseline.XMathGemm(p)
	if err != nil {
		return 0, err
	}
	return runTimed(prog)
}

// BaselineConvSeconds measures the best manual convolution (swDNN for
// implicit, xMath-based manual code otherwise). An error for Implicit at
// unsupported batch sizes mirrors swDNN's real limitation.
func BaselineConvSeconds(method string, s ConvShape) (float64, error) {
	prog, err := baseline.ManualConv(method, s)
	if err != nil {
		return 0, err
	}
	return runTimed(prog)
}

func runTimed(prog *ir.Program) (float64, error) {
	res, err := exec.RunVirtual(prog, exec.Options{FastLoops: true})
	return res.Seconds, err
}
