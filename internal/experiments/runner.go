// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) against the simulated SW26010. Each experiment returns
// structured rows; cmd/swbench and the top-level benchmarks render them.
package experiments

import (
	"context"
	"sync"
	"sync/atomic"

	"swatop/internal/autotune"
	"swatop/internal/conv"
	"swatop/internal/costmodel"
	"swatop/internal/exec"
	"swatop/internal/gemm"
	"swatop/internal/ir"
	"swatop/internal/metrics"
	"swatop/internal/obsrv"
	"swatop/internal/search"
	"swatop/internal/sw26010"
)

// Runner holds the shared state of an experiment session: the fitted
// Eq. (2) model (the offline calibration swATOP performs once per machine)
// and the quick/full switch. A Runner is safe to share between goroutines.
type Runner struct {
	Model *costmodel.GemmModel
	// Quick trims the heaviest sweeps (brute-force searches, 225-point
	// grids) to stratified subsets so the whole suite runs in minutes.
	// Full mode reproduces the complete grids.
	Quick bool
	// Workers is the host-parallelism budget: sweeps tune independent
	// layers concurrently, and single-operator tuning runs the autotuner's
	// candidate worker pool with this many goroutines. Values below 2 run
	// sequentially. Every reported number — selected schedules, simulated
	// times, the machine-time ledger — is identical for any Workers value
	// (the tuner's deterministic-merge guarantee); only host wall time
	// changes.
	Workers int
	// Progress, when non-nil, receives sweep-level progress (completed
	// tuning jobs out of the sweep's total). It is never called
	// concurrently.
	Progress func(done, total int)
	// Retry is the backoff policy for transient measurement errors during
	// tuning; the zero value retries nothing. Long unattended sweeps set
	// it so a flaky measurement costs one candidate, not the whole run.
	// Retries never change any reported number (the tuner's ledger counts
	// only completed measurements).
	Retry autotune.Retry
	// Metrics, when non-nil, receives every tuning run's autotune_* and
	// exec_* metrics (candidate counts, wall seconds, simulated machine
	// seconds). Purely observational: attaching a registry changes no
	// reported number.
	Metrics *metrics.Registry
	// Observer, when non-nil, receives every tuning run's structured event
	// log and registers each search in the observer's JobTracker. Like
	// Metrics, purely observational.
	Observer *obsrv.Observer
	// Searcher, when non-nil, switches every tuning run from the
	// exhaustive walk to sample-efficient search with the given budget
	// fraction (0 = the 0.10 default) and RNG seed (0 = per-operator
	// stable seed) — the knobs behind swbench's -searcher/-budget flags.
	Searcher     search.Searcher
	SearchBudget float64
	SearchSeed   uint64

	mu         sync.Mutex // guards the lazily built sweep caches
	progressMu sync.Mutex // serializes Progress callbacks
	sweepCache []SweepRow
	gemmCache  []GemmRow
}

// NewRunner fits the GEMM cost model and returns a quick-mode runner.
func NewRunner() (*Runner, error) {
	m, err := costmodel.FitGemmModel()
	if err != nil {
		return nil, err
	}
	return &Runner{Model: m, Quick: true}, nil
}

// RunProgram measures a program on the simulator (timed-only, fast loops).
func RunProgram(prog *ir.Program) (float64, error) {
	res, err := exec.RunVirtual(prog, exec.Options{FastLoops: true})
	return res.Seconds, err
}

// TuneConv runs swATOP's model-based tuner on one convolution method and
// returns the tuned program's simulated time. The candidate pool uses
// r.Workers goroutines.
func (r *Runner) TuneConv(method string, s conv.Shape) (autotune.Result, error) {
	return r.tuneConv(context.Background(), method, s, r.Workers)
}

// tuneConv is TuneConv with an explicit worker budget, so layer-parallel
// sweeps can keep each inner tuning sequential instead of oversubscribing
// the host.
func (r *Runner) tuneConv(ctx context.Context, method string, s conv.Shape, workers int) (autotune.Result, error) {
	op, err := conv.NewOp(method, s)
	if err != nil {
		return autotune.Result{}, err
	}
	res, err := autotune.ModelBasedCtx(ctx, op, r.Model, r.tuneOptions(workers))
	if err != nil {
		return autotune.Result{}, err
	}
	secs, err := RunProgram(res.Best.Program)
	if err != nil {
		return autotune.Result{}, err
	}
	res.Best.Measured = secs
	return res, nil
}

// tuneOptions assembles the shared tuner options of every sweep.
func (r *Runner) tuneOptions(workers int) autotune.Options {
	return autotune.Options{
		Workers: workers, Retry: r.Retry, Metrics: r.Metrics, Observer: r.Observer,
		Searcher: r.Searcher, SearchBudget: r.SearchBudget, SearchSeed: r.SearchSeed,
	}
}

// TuneGemm runs the model-based tuner on a GEMM shape. The candidate pool
// uses r.Workers goroutines.
func (r *Runner) TuneGemm(p gemm.Params) (autotune.Result, error) {
	return r.tuneGemm(context.Background(), p, r.Workers)
}

func (r *Runner) tuneGemm(ctx context.Context, p gemm.Params, workers int) (autotune.Result, error) {
	op, err := gemm.NewOp(p)
	if err != nil {
		return autotune.Result{}, err
	}
	res, err := autotune.ModelBasedCtx(ctx, op, r.Model, r.tuneOptions(workers))
	if err != nil {
		return autotune.Result{}, err
	}
	secs, err := RunProgram(res.Best.Program)
	if err != nil {
		return autotune.Result{}, err
	}
	res.Best.Measured = secs
	return res, nil
}

// forEach runs fn(0..n-1) on up to r.Workers goroutines. Callers index a
// pre-built job list and write results by index, so output order never
// depends on scheduling. The lowest-index error wins, matching what a
// sequential loop would have reported first.
func (r *Runner) forEach(n int, fn func(i int) error) error {
	workers := r.Workers
	if workers > n {
		workers = n
	}
	if workers < 2 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
			r.reportProgress(i+1, n)
		}
		return nil
	}
	var (
		next    atomic.Int64
		mu      sync.Mutex
		done    int
		errIdx  = -1
		firstEr error
		wg      sync.WaitGroup
	)
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstEr != nil
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed() {
					return
				}
				err := fn(i)
				mu.Lock()
				if err != nil && (firstEr == nil || i < errIdx) {
					firstEr, errIdx = err, i
				}
				done++
				d := done
				mu.Unlock()
				if err == nil {
					r.reportProgress(d, n)
				}
			}
		}()
	}
	wg.Wait()
	return firstEr
}

func (r *Runner) reportProgress(done, total int) {
	if r.Progress == nil {
		return
	}
	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	r.Progress(done, total)
}

// collect is forEach over a per-index result slice, dropping the indices fn
// declined to fill (rows filtered out by applicability rules).
func collectRows[T any](r *Runner, n int, fn func(i int) (T, bool, error)) ([]T, error) {
	rows := make([]T, n)
	keep := make([]bool, n)
	err := r.forEach(n, func(i int) error {
		row, ok, err := fn(i)
		if err != nil {
			return err
		}
		rows[i], keep[i] = row, ok
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := rows[:0]
	for i, row := range rows {
		if keep[i] {
			out = append(out, row)
		}
	}
	return out, nil
}

// Efficiency converts a simulated time into the paper's reporting units:
// core-group efficiency against peak, and chip-level TFLOPS (4 core groups
// running batch-parallel, the swCaffe deployment; all efficiencies use the
// *direct convolution* FLOP count, so Winograd may exceed 100%).
func Efficiency(flops int64, seconds float64) (eff float64, chipTFlops float64) {
	gflops := float64(flops) / seconds / 1e9
	eff = gflops / sw26010.PeakGFlops
	chipTFlops = gflops * sw26010.NumCG / 1e3
	return eff, chipTFlops
}
