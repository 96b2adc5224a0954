// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) against the simulated SW26010. Each experiment returns
// structured rows; cmd/swbench and the top-level benchmarks render them.
package experiments

import (
	"context"
	"sync"
	"sync/atomic"

	"swatop/internal/autotune"
	"swatop/internal/costmodel"
	"swatop/internal/dsl"
	"swatop/internal/exec"
	"swatop/internal/ir"
	"swatop/internal/sw26010"
)

// Runner holds the shared state of an experiment session: the fitted
// Eq. (2) model (the offline calibration swATOP performs once per machine),
// the quick/full switch and the tuner options. A Runner is safe to share
// between goroutines.
type Runner struct {
	Model *costmodel.GemmModel
	// Quick trims the heaviest sweeps (brute-force searches, 225-point
	// grids) to stratified subsets so the whole suite runs in minutes.
	// Full mode reproduces the complete grids.
	Quick bool
	// Options is what every tuning run of the session gets (Tune). Its
	// Workers is the session's host-parallelism budget: a sweep tunes its
	// independent jobs on that many goroutines, each job sequentially, and
	// a lone Tune gives the tuner's candidate pool that many. Every reported
	// number is identical for any Workers value, and for any Retry, Metrics
	// or Observer; only host wall time changes.
	Options autotune.Options
	// Progress, when non-nil, receives sweep-level progress (completed
	// tuning jobs out of the sweep's total). It is never called
	// concurrently.
	Progress func(done, total int)

	mu         sync.Mutex // guards the lazily built sweep caches
	progressMu sync.Mutex // serializes Progress callbacks
	sweepCache []ConvRow
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

// Tune is the session's one tuning path: swATOP's model-based tuner on op
// under r.Options, or the brute-force baseline (Table 3, Fig. 9) when
// blackBox is set. It returns the tuner's Result unchanged: Best.Measured is
// the tuner's own fast-loop run of the winner on a fresh machine.
func (r *Runner) Tune(ctx context.Context, op dsl.Operator, blackBox bool) (autotune.Result, error) {
	if blackBox {
		return autotune.BlackBoxCtx(ctx, op, r.Options)
	}
	return autotune.ModelBasedCtx(ctx, op, r.Model, r.Options)
}

// sequential is the runner a sweep's jobs tune through: r's options on one
// worker, because the sweep already spreads its jobs over r's workers.
func (r *Runner) sequential() *Runner {
	s := &Runner{Model: r.Model, Options: r.Options}
	s.Options.Workers = 1
	return s
}

// exhaustive is sequential without the searcher. Table 3 and Figs. 9–11
// study the exhaustive walk itself, so they read the same with and without
// one.
func (r *Runner) exhaustive() *Runner {
	s := r.sequential()
	s.Options.Searcher = nil
	return s
}

// collectRows runs fn(0..n-1) on up to r.Options.Workers goroutines and
// returns the rows fn kept (it declines rows that applicability rules
// filter out), in index order whatever the scheduling. The lowest-index
// error wins, matching what a sequential loop would have reported first.
func collectRows[T any](r *Runner, n int, fn func(i int) (T, bool, error)) ([]T, error) {
	rows := make([]T, n)
	keep := make([]bool, n)
	var (
		next   atomic.Int64
		mu     sync.Mutex
		done   int
		errIdx = n
		first  error
	)
	// work runs jobs until they run out or one fails (its own or another
	// goroutine's), checked before claiming the next.
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			row, ok, err := fn(i)
			mu.Lock()
			if err != nil && i < errIdx {
				first, errIdx = err, i
			}
			rows[i], keep[i] = row, ok
			done++
			d, failed := done, first != nil
			mu.Unlock()
			if failed {
				return
			}
			r.reportProgress(d, n)
		}
	}
	if workers := min(r.Options.Workers, n); workers < 2 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if first != nil {
		return nil, first
	}
	out := rows[:0]
	for i, row := range rows {
		if keep[i] {
			out = append(out, row)
		}
	}
	return out, nil
}

func (r *Runner) reportProgress(done, total int) {
	if r.Progress == nil {
		return
	}
	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	r.Progress(done, total)
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
