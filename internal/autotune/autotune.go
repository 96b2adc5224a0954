// Package autotune implements swATOP's autotuner (§4.6) and the black-box
// baseline it is compared against (Table 3, Fig. 9).
//
// Both tuners walk the same schedule space and compile every candidate. The
// black-box tuner *runs* every candidate on the (simulated) machine and
// picks the measured best; the model-based tuner *predicts* every candidate
// with the static performance model and runs only its top pick. The ledger
// tracks both host wall time and consumed machine time — the latter charges
// the black-box tuner the per-candidate compile+launch overhead a real
// SW26010 batch system imposes, which is where "from days to minutes"
// comes from.
//
// Candidates are streamed from schedule.Stream and evaluated on a worker
// pool: compile+estimate (and compile+run) are independent per candidate,
// so host wall time scales down with Options.Workers. The selection is
// deterministic for any worker count — candidates are merged by
// (predicted, index), so the chosen schedule, Valid count and
// MachineSeconds are bit-identical to the sequential walk. MachineSeconds
// is *simulated hardware* time and never changes with host parallelism;
// only WallSeconds shrinks.
package autotune

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"swatop/internal/cache"
	"swatop/internal/costmodel"
	"swatop/internal/dsl"
	"swatop/internal/exec"
	"swatop/internal/faults"
	"swatop/internal/ir"
	"swatop/internal/metrics"
	"swatop/internal/obsrv"
	"swatop/internal/schedule"
	"swatop/internal/search"
)

// CompileLaunchOverheadSeconds is the per-candidate cost of compiling,
// linking and launching one schedule on the real machine (batch queue and
// sw5cc invocation; ~40 s matches Table 3's hours-per-~400-candidates).
const CompileLaunchOverheadSeconds = 40.0

// Operator is anything tunable: it exposes its schedule seed and space and
// compiles one strategy into an executable program. Single-nest operators
// use core.Compile; multi-phase operators (Winograd, explicit convolution)
// compose their own programs. Compile must be safe for concurrent calls:
// the worker pool compiles many strategies of one operator at once.
type Operator interface {
	Name() string
	Seed() *dsl.Seed
	Space() *dsl.Space
	Compile(st dsl.Strategy) (*ir.Program, error)
}

// Candidate is one compiled schedule.
type Candidate struct {
	Strategy  dsl.Strategy
	Program   *ir.Program
	Predicted float64 // model estimate (model-based tuner)
	Measured  float64 // simulated run time (when run)
}

// Result reports a tuning session.
type Result struct {
	Best Candidate
	// SpaceSize is the number of raw schedule points; Valid is how many
	// compiled successfully (the paper's "space size" column).
	SpaceSize int
	Valid     int
	// FailedCandidates counts candidates whose evaluation was contained
	// rather than completed: a panic during compile/estimate/run, or a
	// transient measurement error that survived every retry. Failed
	// candidates are skipped, not selected, and are excluded from Valid.
	FailedCandidates int
	// WallSeconds is host time spent tuning. It shrinks with
	// Options.Workers.
	WallSeconds float64
	// MachineSeconds is simulated SW26010 time consumed: per-candidate
	// compile+launch+run for the black-box tuner, one launch for swATOP.
	// It is independent of host parallelism, and it counts only completed
	// measurements — a transient failure discards its partial run, so the
	// ledger (and the selected schedule) is identical whether or not
	// retries happened along the way.
	MachineSeconds float64
	// Searcher-mode statistics, zero for the exhaustive walks: Proposed is
	// how many candidates the searcher evaluated (compiled + predicted),
	// Measured how many it actually ran, Rounds how many measure rounds it
	// took, and Converged whether it stopped because progress stalled
	// rather than because the budget ran out.
	Proposed  int
	Measured  int
	Rounds    int
	Converged bool
}

// TopK is how many of the model's best predictions the tuner actually runs
// before picking the winner (§4.6: "predict and pick best (or top k)
// implementations"). Running a small k erases most of the model's residual
// ranking error at negligible machine cost.
const TopK = 3

// Options tunes the tuner's host-side execution. The zero value reproduces
// the classic sequential behaviour.
type Options struct {
	// Workers is the number of concurrent compile+evaluate goroutines;
	// values below 2 run sequentially. The selected schedule and the
	// machine-time ledger are identical for every worker count.
	Workers int
	// TopK overrides the number of finalists the model-based tuner
	// actually runs (default: the package TopK constant).
	TopK int
	// Progress, when non-nil, is called after each candidate is processed
	// with the number of processed and valid candidates so far and the best
	// score seen so far: the lowest predicted seconds for the model-based
	// tuner, the lowest measured seconds for the black-box tuner, 0 while no
	// valid candidate exists. It is always invoked from a single goroutine.
	Progress func(done, valid int, best float64)
	// Faults, when non-nil, is threaded into every measurement (exec.Run
	// and the simulated machine) so fault-injection tests can exercise the
	// recovery paths below. Nil in production.
	Faults *faults.Injector
	// Retry is the backoff policy for transient measurement errors
	// (errors carrying faults.ErrTransient). The zero value retries
	// nothing.
	Retry Retry
	// MaxCandidateFailures aborts the search once more than this many
	// candidates have failed (panicked or exhausted their retries) — a
	// circuit breaker against a systematically broken environment.
	// 0 means unlimited: failures are recorded and skipped forever.
	MaxCandidateFailures int
	// Metrics, when non-nil, receives tuning instrumentation: candidate
	// counts (autotune_candidates_total / _valid_total / _failed_total),
	// retry activity (autotune_retries_total, autotune_backoff_seconds),
	// the best-score trajectory (autotune_best_predicted_seconds,
	// autotune_best_measured_seconds), per-stage wall clocks and the
	// simulated-machine-time ledger. It is also threaded into every
	// measurement's exec.Options.
	Metrics *metrics.Registry
	// Observer, when non-nil, receives the structured event log of the
	// search — tune.start/finish, candidate start/finish/retry/panic/failed
	// with strategy and predicted/measured milliseconds, finalist runs —
	// and registers the search as a live job in the observer's JobTracker
	// (done/valid/failed/best-ms visible on /statusz while the search
	// runs). Purely observational: attaching an observer changes neither
	// the selected schedule nor any metric (the bit-identical-snapshots
	// invariant is asserted by TestObserverInert).
	Observer *obsrv.Observer

	// Searcher, when non-nil, switches ModelBasedCtx from the exhaustive
	// estimate-everything walk to sample-efficient search (internal/search):
	// the searcher proposes candidates, an online model predicts them, and
	// only the top predictions are measured. Nil keeps the exhaustive walk
	// bit-identical to its historical behaviour.
	Searcher search.Searcher
	// SearchBudget is the fraction of the candidate space the searcher may
	// measure (0 defaults to 0.10). Ignored without a Searcher.
	SearchBudget float64
	// SearchSeed seeds the searcher's RNG. 0 derives a stable seed from
	// the operator name, so repeated runs of the same shape reproduce.
	// Ignored without a Searcher.
	SearchSeed uint64
	// Transfer, when non-nil alongside a Searcher, donates search seeds:
	// the cached winners of the nearest already-tuned shapes of the same
	// operator family (cache.Library.Nearest) are mapped into this space
	// and start the population.
	Transfer *cache.Library

	// job is the live job the public entry points register; internal so
	// runPool's collector — the only place that knows the failed count —
	// can update it without re-deriving state.
	job *obsrv.Job
}

func (o Options) topK() int {
	if o.TopK > 0 {
		return o.TopK
	}
	return TopK
}

// Retry is a capped exponential backoff policy for transient measurement
// errors: attempt i (1-based) sleeps BaseDelay·2^(i-1), capped at MaxDelay,
// with deterministic ±25 % jitter derived from the candidate index — so
// retry timing never introduces run-to-run nondeterminism.
type Retry struct {
	// Attempts is the total number of tries per measurement; values <= 1
	// mean a single try (no retry).
	Attempts int
	// BaseDelay is the first retry's sleep (default 1ms when retrying).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 250ms).
	MaxDelay time.Duration
}

func (r Retry) attempts() int {
	if r.Attempts < 1 {
		return 1
	}
	return r.Attempts
}

// delay computes the backoff before retry number `attempt` (1-based count
// of failures so far) of candidate idx.
func (r Retry) delay(attempt, idx int) time.Duration {
	base := r.BaseDelay
	if base <= 0 {
		base = time.Millisecond
	}
	max := r.MaxDelay
	if max <= 0 {
		max = 250 * time.Millisecond
	}
	d := base << uint(attempt-1)
	if d > max || d <= 0 { // d <= 0 guards shift overflow
		d = max
	}
	// Full determinism: jitter is a hash of (idx, attempt), not a random
	// draw. Spread over [0.75d, 1.25d].
	h := uint64(idx)*0x9e3779b97f4a7c15 + uint64(attempt)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	frac := float64(h%1024) / 1024 // [0,1)
	return time.Duration(float64(d) * (0.75 + 0.5*frac))
}

// CandidateError is one candidate's contained evaluation failure: a panic
// during compile/estimate/run, or a transient measurement error that
// survived every retry. The tuner records it, skips the candidate and
// keeps searching; it never aborts the pool.
type CandidateError struct {
	// Index is the candidate's stable enumeration index.
	Index int
	// Strategy is the schedule that failed.
	Strategy dsl.Strategy
	// Panicked distinguishes a recovered panic from an exhausted retry.
	Panicked bool
	// Err is the underlying error (for a panic, the recovered value).
	Err error
}

func (e *CandidateError) Error() string {
	kind := "failed"
	if e.Panicked {
		kind = "panicked"
	}
	return fmt.Sprintf("candidate %d (%s) %s: %v", e.Index, e.Strategy, kind, e.Err)
}

func (e *CandidateError) Unwrap() error { return e.Err }

// evalOnce compiles and evaluates one schedule point with panic isolation:
// any panic reachable from lowering, simulation or estimation (ir division
// by zero, tensor index violations, machine invariants, ...) is converted
// into an error instead of unwinding through the worker pool.
func evalOnce(op Operator, st dsl.Strategy, eval func(*Candidate) error) (c *Candidate, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			c, panicked = nil, true
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	prog, cerr := op.Compile(st)
	if cerr != nil {
		return nil, nil, false // invalid point (capacity, layout rules, ...)
	}
	cand := &Candidate{Strategy: st, Program: prog}
	if everr := eval(cand); everr != nil {
		return nil, everr, false
	}
	return cand, nil, false
}

// evalCandidate is evalOnce plus the failure policy: panics become
// per-candidate errors immediately; transient errors are retried under the
// backoff policy and become per-candidate errors when exhausted; anything
// else stays fatal (the seed behaviour for e.g. cost-model failures).
func evalCandidate(op Operator, idx int, st dsl.Strategy,
	eval func(*Candidate) error, opts Options) (*Candidate, error) {
	if opts.Observer.Enabled() {
		opts.Observer.Emit(obsrv.LevelDebug, "candidate.start",
			obsrv.F("index", idx), obsrv.F("strategy", st.String()))
	}
	for attempt := 1; ; attempt++ {
		c, err, panicked := evalOnce(op, st, eval)
		switch {
		case err == nil:
			return c, nil // c may be nil: invalid point
		case panicked:
			opts.Metrics.Counter("autotune_candidates_failed_total").Inc()
			opts.Observer.Emit(obsrv.LevelError, "candidate.panic",
				obsrv.F("index", idx), obsrv.F("strategy", st.String()), obsrv.F("error", err))
			return nil, &CandidateError{Index: idx, Strategy: st, Panicked: true, Err: err}
		case faults.IsTransient(err):
			if attempt < opts.Retry.attempts() {
				d := opts.Retry.delay(attempt, idx)
				opts.Metrics.Counter("autotune_retries_total").Inc()
				opts.Metrics.Gauge("autotune_backoff_seconds").Add(d.Seconds())
				opts.Observer.Emit(obsrv.LevelWarn, "candidate.retry",
					obsrv.F("index", idx), obsrv.F("attempt", attempt),
					obsrv.Ms("backoff_ms", d.Seconds()), obsrv.F("error", err))
				time.Sleep(d)
				continue
			}
			opts.Metrics.Counter("autotune_candidates_failed_total").Inc()
			opts.Observer.Emit(obsrv.LevelWarn, "candidate.failed",
				obsrv.F("index", idx), obsrv.F("strategy", st.String()), obsrv.F("error", err))
			return nil, &CandidateError{Index: idx, Strategy: st, Err: err}
		default:
			return nil, err
		}
	}
}

// ModelBased runs swATOP's performance-model autotuner sequentially:
// estimate every valid candidate, run the top-k predictions, keep the
// measured best.
func ModelBased(op Operator, model *costmodel.GemmModel) (Result, error) {
	return ModelBasedCtx(context.Background(), op, model, Options{})
}

// ModelBasedCtx is ModelBased with cancellation and a worker pool: workers
// pull (index, strategy) pairs off the streaming enumerator, compile and
// estimate independently, and a deterministic merge keeps the k best
// predictions ordered by (predicted, index) — so the tuned schedule is
// identical for any Workers value.
func ModelBasedCtx(ctx context.Context, op Operator, model *costmodel.GemmModel, opts Options) (Result, error) {
	if opts.Searcher != nil {
		return searchBased(ctx, op, model, opts)
	}
	t0 := time.Now()
	opts.job = opts.Observer.Jobs().Start("tune", op.Name())
	opts.Observer.Emit(obsrv.LevelInfo, "tune.start", obsrv.F("op", op.Name()))
	ok := false
	defer func() {
		if !ok {
			opts.job.Finish(obsrv.JobFailed)
		}
	}()
	k := opts.topK()
	var top []ranked // ascending by (Predicted, idx), at most k
	done, valid := 0, 0
	sink := func(idx int, c *Candidate, failed int) {
		done++
		opts.Metrics.Counter("autotune_candidates_total").Inc()
		best := 0.0
		if c != nil {
			valid++
			opts.Metrics.Counter("autotune_candidates_valid_total").Inc()
			top = insertRanked(top, ranked{c: c, idx: idx}, k)
			opts.Metrics.Gauge("autotune_best_predicted_seconds").Set(top[0].c.Predicted)
		}
		if len(top) > 0 {
			best = top[0].c.Predicted
		}
		if c != nil && opts.Observer.Enabled() {
			opts.Observer.Emit(obsrv.LevelDebug, "candidate.finish",
				obsrv.F("index", idx), obsrv.F("strategy", c.Strategy.String()),
				obsrv.Ms("predicted_ms", c.Predicted))
		}
		opts.job.Progress(done, valid, failed, best*1e3)
		if opts.Progress != nil {
			opts.Progress(done, valid, best)
		}
	}
	eval := func(c *Candidate) error {
		est, err := costmodel.EstimateProgram(model, c.Program)
		if err != nil {
			return fmt.Errorf("estimate %s: %w", c.Strategy, err)
		}
		c.Predicted = est.Total()
		return nil
	}
	spaceSize, failed, err := runPool(ctx, op, opts, eval, sink)
	opts.Metrics.Counter("autotune_space_points_total").Add(int64(spaceSize))
	searchWall := time.Since(t0).Seconds()
	opts.Metrics.Gauge("autotune_search_wall_seconds").Add(searchWall)
	if err != nil {
		opts.Observer.Emit(obsrv.LevelError, "tune.fail",
			obsrv.F("op", op.Name()), obsrv.F("error", err))
		return Result{}, err
	}
	res := Result{SpaceSize: spaceSize, Valid: valid, FailedCandidates: failed}
	if len(top) == 0 {
		err := fmt.Errorf("autotune %s: no valid schedule in space of %d (%d candidates failed)",
			op.Name(), spaceSize, failed)
		opts.Observer.Emit(obsrv.LevelError, "tune.fail",
			obsrv.F("op", op.Name()), obsrv.F("error", err))
		return Result{}, err
	}
	tFinal := time.Now()
	opts.job.SetDetail("finalists")
	// The k finalists are emitted into one binary and measured in a single
	// batch job: one compile+launch, k short runs. Each run goes through
	// the same panic-isolation + retry policy as the search: a finalist
	// that cannot be measured is skipped, and only measuring *no* finalist
	// is an error.
	res.MachineSeconds = CompileLaunchOverheadSeconds
	runEval := func(c *Candidate) error {
		secs, err := runTimed(c.Program, opts.Faults, opts.Metrics, opts.Observer)
		if err != nil {
			return err
		}
		c.Measured = secs
		return nil
	}
	var best *Candidate
	for _, r := range top {
		c, err := evalCandidate(op, r.idx, r.c.Strategy, runEval, opts)
		if err != nil {
			var ce *CandidateError
			if errors.As(err, &ce) {
				res.FailedCandidates++
				continue
			}
			err = fmt.Errorf("autotune %s: candidate failed to run: %w", op.Name(), err)
			opts.Observer.Emit(obsrv.LevelError, "tune.fail",
				obsrv.F("op", op.Name()), obsrv.F("error", err))
			return Result{}, err
		}
		if c == nil {
			// Compiled during the search but not for the final run — a
			// nondeterministic operator; contain it like any failure.
			res.FailedCandidates++
			continue
		}
		c.Predicted = r.c.Predicted
		res.MachineSeconds += c.Measured
		if opts.Observer.Enabled() {
			opts.Observer.Emit(obsrv.LevelInfo, "finalist.run",
				obsrv.F("index", r.idx), obsrv.F("strategy", c.Strategy.String()),
				obsrv.Ms("predicted_ms", c.Predicted), obsrv.Ms("measured_ms", c.Measured))
		}
		if best == nil || c.Measured < best.Measured {
			best = c
		}
	}
	if best == nil {
		err := fmt.Errorf("autotune %s: all %d finalists failed to run", op.Name(), len(top))
		opts.Observer.Emit(obsrv.LevelError, "tune.fail",
			obsrv.F("op", op.Name()), obsrv.F("error", err))
		return Result{}, err
	}
	res.Best = *best
	res.WallSeconds = time.Since(t0).Seconds()
	opts.Metrics.Gauge("autotune_finalist_wall_seconds").Add(time.Since(tFinal).Seconds())
	opts.Metrics.Gauge("autotune_best_measured_seconds").Set(best.Measured)
	opts.Metrics.Gauge("autotune_machine_seconds").Add(res.MachineSeconds)
	if opts.Observer.Enabled() {
		opts.Observer.Emit(obsrv.LevelInfo, "tune.finish",
			obsrv.F("op", op.Name()), obsrv.F("valid", res.Valid),
			obsrv.F("failed", res.FailedCandidates),
			obsrv.F("strategy", best.Strategy.String()),
			obsrv.Ms("best_ms", best.Measured),
			obsrv.F("machine_seconds", res.MachineSeconds))
	}
	opts.job.Progress(done, valid, res.FailedCandidates, best.Measured*1e3)
	opts.job.Finish(obsrv.JobDone)
	ok = true
	return res, nil
}

// BlackBox runs every valid candidate on the simulator and picks the
// measured best — the brute-force baseline.
func BlackBox(op Operator) (Result, error) {
	return BlackBoxCtx(context.Background(), op, Options{})
}

// BlackBoxCtx is BlackBox with cancellation and a worker pool. The winner
// is merged by (measured, index) and the machine-time ledger is summed in
// index order, so both are identical for any Workers value.
func BlackBoxCtx(ctx context.Context, op Operator, opts Options) (Result, error) {
	t0 := time.Now()
	opts.job = opts.Observer.Jobs().Start("tune", op.Name())
	opts.job.SetDetail("blackbox")
	opts.Observer.Emit(obsrv.LevelInfo, "tune.start",
		obsrv.F("op", op.Name()), obsrv.F("mode", "blackbox"))
	okDone := false
	defer func() {
		if !okDone {
			opts.job.Finish(obsrv.JobFailed)
		}
	}()
	type run struct {
		idx  int
		secs float64
	}
	var runs []run
	var best ranked
	done := 0
	sink := func(idx int, c *Candidate, failed int) {
		done++
		opts.Metrics.Counter("autotune_candidates_total").Inc()
		if c != nil {
			runs = append(runs, run{idx: idx, secs: c.Measured})
			opts.Metrics.Counter("autotune_candidates_valid_total").Inc()
			if best.c == nil || c.Measured < best.c.Measured ||
				(c.Measured == best.c.Measured && idx < best.idx) {
				best = ranked{c: c, idx: idx}
			}
			opts.Metrics.Gauge("autotune_best_measured_seconds").Set(best.c.Measured)
		}
		b := 0.0
		if best.c != nil {
			b = best.c.Measured
		}
		if c != nil && opts.Observer.Enabled() {
			opts.Observer.Emit(obsrv.LevelDebug, "candidate.finish",
				obsrv.F("index", idx), obsrv.F("strategy", c.Strategy.String()),
				obsrv.Ms("measured_ms", c.Measured))
		}
		opts.job.Progress(done, len(runs), failed, b*1e3)
		if opts.Progress != nil {
			opts.Progress(done, len(runs), b)
		}
	}
	eval := func(c *Candidate) error {
		secs, err := runTimed(c.Program, opts.Faults, opts.Metrics, opts.Observer)
		if err != nil {
			// %w keeps the transient mark visible to the retry policy.
			return fmt.Errorf("%s: %w", c.Strategy, err)
		}
		c.Measured = secs
		return nil
	}
	spaceSize, failed, err := runPool(ctx, op, opts, eval, sink)
	opts.Metrics.Counter("autotune_space_points_total").Add(int64(spaceSize))
	if err != nil {
		err = fmt.Errorf("blackbox %s: %w", op.Name(), err)
		opts.Observer.Emit(obsrv.LevelError, "tune.fail",
			obsrv.F("op", op.Name()), obsrv.F("error", err))
		return Result{}, err
	}
	if best.c == nil {
		err := fmt.Errorf("blackbox %s: no valid schedule (%d candidates failed)", op.Name(), failed)
		opts.Observer.Emit(obsrv.LevelError, "tune.fail",
			obsrv.F("op", op.Name()), obsrv.F("error", err))
		return Result{}, err
	}
	res := Result{SpaceSize: spaceSize, Valid: len(runs), FailedCandidates: failed}
	// Sum the ledger in enumeration order: float addition is not
	// associative, and MachineSeconds must not depend on worker timing.
	sort.Slice(runs, func(i, j int) bool { return runs[i].idx < runs[j].idx })
	for _, r := range runs {
		res.MachineSeconds += CompileLaunchOverheadSeconds + r.secs
	}
	res.Best = *best.c
	res.WallSeconds = time.Since(t0).Seconds()
	opts.Metrics.Gauge("autotune_search_wall_seconds").Add(res.WallSeconds)
	opts.Metrics.Gauge("autotune_machine_seconds").Add(res.MachineSeconds)
	if opts.Observer.Enabled() {
		opts.Observer.Emit(obsrv.LevelInfo, "tune.finish",
			obsrv.F("op", op.Name()), obsrv.F("mode", "blackbox"),
			obsrv.F("valid", res.Valid), obsrv.F("failed", res.FailedCandidates),
			obsrv.F("strategy", res.Best.Strategy.String()),
			obsrv.Ms("best_ms", res.Best.Measured),
			obsrv.F("machine_seconds", res.MachineSeconds))
	}
	opts.job.Progress(done, res.Valid, res.FailedCandidates, res.Best.Measured*1e3)
	opts.job.Finish(obsrv.JobDone)
	okDone = true
	return res, nil
}

// ranked is a candidate with its stable enumeration index — the merge key
// that makes parallel selection reproduce the sequential walk exactly.
type ranked struct {
	c   *Candidate
	idx int
}

// insertRanked inserts r into the ascending (Predicted, idx) order of top,
// keeping at most k entries. Processing candidates in any arrival order
// yields the same final top-k as the sequential stable insertion.
func insertRanked(top []ranked, r ranked, k int) []ranked {
	pos := len(top)
	for pos > 0 && (top[pos-1].c.Predicted > r.c.Predicted ||
		(top[pos-1].c.Predicted == r.c.Predicted && top[pos-1].idx > r.idx)) {
		pos--
	}
	if pos >= k {
		return top
	}
	top = append(top, ranked{})
	copy(top[pos+1:], top[pos:])
	top[pos] = r
	if len(top) > k {
		top = top[:k]
	}
	return top
}

// poolResult is one candidate's outcome crossing from a worker back to the
// collector. cand is nil when the point failed to compile (invalid).
type poolResult struct {
	idx  int
	cand *Candidate
	err  error
}

// runPool streams the operator's schedule space through Options.Workers
// goroutines. Each point is compiled; valid candidates are passed to eval
// on the worker, and every processed point is delivered to sink on the
// collector goroutine (so sink needs no locking). Per-candidate failures
// (recovered panics, exhausted transient retries — see evalCandidate) are
// recorded and skipped; any other evaluation error is fatal. Returns the
// number of enumerated points, the number of failed candidates, and the
// first (lowest-index) fatal error, if any.
func runPool(ctx context.Context, op Operator, opts Options,
	eval func(c *Candidate) error, sink func(idx int, c *Candidate, failed int)) (int, int, error) {
	if opts.Workers < 2 {
		return runSequential(ctx, op, opts, eval, sink)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type job struct {
		idx int
		st  dsl.Strategy
	}
	jobs := make(chan job, opts.Workers)
	results := make(chan poolResult, opts.Workers)

	total := 0
	var streamErr error
	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		defer close(jobs)
		streamErr = schedule.Stream(op.Seed(), op.Space(), func(idx int, st dsl.Strategy) bool {
			select {
			case jobs <- job{idx: idx, st: st}:
				total = idx + 1
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()

	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if ctx.Err() != nil {
					continue // drain after cancellation
				}
				c, err := evalCandidate(op, j.idx, j.st, eval, opts)
				select {
				case results <- poolResult{idx: j.idx, cand: c, err: err}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	var firstErr error
	firstErrIdx := -1
	failed := 0
	fatal := func(idx int, err error) {
		// Keep the lowest-index error so failures are reported
		// deterministically, then stop feeding the pool.
		if firstErr == nil || idx < firstErrIdx {
			firstErr, firstErrIdx = err, idx
		}
		cancel()
	}
	for r := range results {
		if r.err != nil {
			var ce *CandidateError
			if errors.As(r.err, &ce) {
				failed++
				if exceeded := opts.MaxCandidateFailures > 0 &&
					failed > opts.MaxCandidateFailures; exceeded {
					fatal(r.idx, fmt.Errorf("%d candidate failures exceed limit %d, last: %w",
						failed, opts.MaxCandidateFailures, r.err))
					continue
				}
				if firstErr == nil {
					sink(r.idx, nil, failed)
				}
				continue
			}
			fatal(r.idx, r.err)
			continue
		}
		if firstErr == nil {
			sink(r.idx, r.cand, failed)
		}
	}
	<-prodDone
	if firstErr != nil {
		return 0, failed, firstErr
	}
	if streamErr != nil {
		return 0, failed, streamErr
	}
	if err := ctx.Err(); err != nil {
		return 0, failed, err
	}
	return total, failed, nil
}

// runSequential is the single-goroutine pool: one pass over the stream,
// evaluating in place. The reference behaviour every worker count must
// reproduce, including the failure policy.
func runSequential(ctx context.Context, op Operator, opts Options,
	eval func(c *Candidate) error, sink func(idx int, c *Candidate, failed int)) (int, int, error) {
	total, failed := 0, 0
	var fatalErr error
	err := schedule.Stream(op.Seed(), op.Space(), func(idx int, st dsl.Strategy) bool {
		if ctx.Err() != nil {
			return false
		}
		total = idx + 1
		c, err := evalCandidate(op, idx, st, eval, opts)
		if err != nil {
			var ce *CandidateError
			if errors.As(err, &ce) {
				failed++
				if opts.MaxCandidateFailures > 0 && failed > opts.MaxCandidateFailures {
					fatalErr = fmt.Errorf("%d candidate failures exceed limit %d, last: %w",
						failed, opts.MaxCandidateFailures, err)
					return false
				}
				sink(idx, nil, failed)
				return true
			}
			fatalErr = err
			return false
		}
		sink(idx, c, failed) // c is nil for an invalid point (capacity, layout rules, ...)
		return true
	})
	if err != nil {
		return 0, failed, err
	}
	if fatalErr != nil {
		return 0, failed, fatalErr
	}
	if err := ctx.Err(); err != nil {
		return 0, failed, err
	}
	return total, failed, nil
}

func runTimed(prog *ir.Program, inj *faults.Injector, reg *metrics.Registry, obs *obsrv.Observer) (float64, error) {
	r, err := exec.RunVirtual(prog, exec.Options{
		FastLoops: true, Faults: inj, Metrics: reg, Observer: obs,
	})
	return r.Seconds, err
}
