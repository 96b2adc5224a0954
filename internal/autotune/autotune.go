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
// A candidate is its index into the operator's schedule space, which a
// session resolves once (schedule.Describe → session.dims). There is one
// candidate loop (pool.go): a source yields indices — all of them for the
// two walks, a measure batch for a searcher — workers decode (dims.At),
// compile and evaluate them, and a sink receives the outcomes in index
// order whatever Options.Workers is. The failure policy lives there
// and nowhere else, so the chosen schedule, the counts, MachineSeconds
// (*simulated hardware* time) and the error are the sequential walk's for
// any worker count; only WallSeconds shrinks. The tuners differ in who
// scores a candidate and what happens to the best; a session carries what
// they share, and Resolve puts the schedule library in front of them.
package autotune

import (
	"context"
	"errors"
	"fmt"
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
	"swatop/internal/sw26010"
)

// CompileLaunchOverheadSeconds is the per-candidate cost of compiling,
// linking and launching one schedule on the real machine (batch queue and
// sw5cc invocation; ~40 s matches Table 3's hours-per-~400-candidates).
const CompileLaunchOverheadSeconds = 40.0

// Operator is anything tunable (dsl.Operator): GEMM, the three convolution
// methods, a user's own seed and space.
type Operator = dsl.Operator

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
}

// session is what the three tuners share: the resolved schedule space, the
// live job, the tune.* events, the wall, machine and best gauges, and the
// tallies the loop's sinks keep. Every exit goes through fail or finish,
// which close the job.
type session struct {
	ctx  context.Context
	op   Operator
	opts Options
	// dims is the operator's schedule space: every index the walks, a
	// searcher's batches, the finalists and transfer seeding name is one of
	// its points.
	dims *schedule.Dims
	job  *obsrv.Job
	t0   time.Time
	head []obsrv.Field // of tune.start and tune.finish: op and, if any, mode
	// tFinal is when the model-based finalist runs began (zero otherwise):
	// the wall clock splits there into search and finalist time.
	tFinal time.Time
	// failed counts contained candidate failures across every run of the
	// loop in this session: what MaxCandidateFailures bounds.
	done, valid, space, failed int
	// machine is the simulated-machine ledger, charged in index order (float
	// addition is not associative).
	machine float64
	// machines holds the session's idle simulated core groups: a
	// measurement takes one, or makes one when none is idle, and puts it
	// back, so the session's runs share their SPM storage. There are never
	// more machines than concurrent measurements, which its capacity bounds.
	machines chan *sw26010.Machine
}

// begin opens a session and resolves the operator's schedule space. The
// session is returned even with an error, for the caller to fail it.
func begin(ctx context.Context, op Operator, opts Options, mode, detail string) (*session, error) {
	s := &session{ctx: ctx, op: op, opts: opts, t0: time.Now(),
		machines: make(chan *sw26010.Machine, max(1, opts.Workers)),
		job:      opts.Observer.Jobs().Start("tune", op.Name()),
		head:     []obsrv.Field{obsrv.F("op", op.Name())}}
	if mode != "" {
		s.job.SetDetail(detail)
		s.head = append(s.head, obsrv.F("mode", mode))
	}
	opts.Observer.Emit(obsrv.LevelInfo, "tune.start", s.head...)
	var err error
	s.dims, err = schedule.Describe(op.Seed(), op.Space())
	return s, err
}

func (s *session) fail(err error) (Result, error) {
	s.opts.Observer.Emit(obsrv.LevelError, "tune.fail",
		obsrv.F("op", s.op.Name()), obsrv.F("error", err))
	s.job.Finish(obsrv.JobFailed)
	return Result{}, err
}

// finish completes res from the session's tallies and publishes it; extra
// fields go into tune.finish between the counts and the chosen strategy.
func (s *session) finish(res Result, extra ...obsrv.Field) (Result, error) {
	res.SpaceSize, res.Valid, res.FailedCandidates, res.MachineSeconds = s.space, s.valid, s.failed, s.machine
	res.WallSeconds = time.Since(s.t0).Seconds()
	search := res.WallSeconds
	if !s.tFinal.IsZero() {
		final := time.Since(s.tFinal).Seconds()
		s.opts.Metrics.Gauge("autotune_finalist_wall_seconds").Add(final)
		search -= final
	}
	s.opts.Metrics.Gauge("autotune_search_wall_seconds").Add(search)
	s.opts.Metrics.Gauge("autotune_best_measured_seconds").Set(res.Best.Measured)
	s.opts.Metrics.Gauge("autotune_machine_seconds").Add(res.MachineSeconds)
	if s.opts.Observer.Enabled() {
		fs := append(s.head, obsrv.F("valid", res.Valid), obsrv.F("failed", res.FailedCandidates))
		fs = append(fs, extra...)
		s.opts.Observer.Emit(obsrv.LevelInfo, "tune.finish", append(fs,
			obsrv.F("strategy", res.Best.Strategy.String()),
			obsrv.Ms("best_ms", res.Best.Measured),
			obsrv.F("machine_seconds", res.MachineSeconds))...)
	}
	s.job.Progress(s.done, res.Valid, res.FailedCandidates, res.Best.Measured*1e3)
	s.job.Finish(obsrv.JobDone)
	return res, nil
}

// measure runs a compiled candidate on one of the session's machines, reset
// first. A run that panics does not put its machine back.
func (s *session) measure(c *Candidate) error {
	var m *sw26010.Machine
	select {
	case m = <-s.machines:
		m.Reset()
	default:
		m = sw26010.NewMachine()
	}
	r, err := exec.RunVirtual(c.Program, exec.Options{
		FastLoops: true, Faults: s.opts.Faults, Metrics: s.opts.Metrics, Observer: s.opts.Observer,
		Machine: m,
	})
	s.machines <- m
	c.Measured = r.Seconds
	return err
}

// ranked is a candidate with its enumeration index and the walk's score.
type ranked struct {
	c     *Candidate
	idx   int
	score float64
}

// walk sends the whole schedule space through the candidate loop, scores
// every valid point with eval (on the workers) and keeps the k best; in
// index order, so equal scores keep the lower index. A measured walk ranks
// by the run and charges each one its compile+launch overhead.
func (s *session) walk(k int, measured bool, eval func(*Candidate) error) ([]ranked, error) {
	gauge, key := "autotune_best_predicted_seconds", "predicted_ms"
	if measured {
		gauge, key = "autotune_best_measured_seconds", "measured_ms"
	}
	var top []ranked // ascending by score, at most k
	best := 0.0      // top[0].score, 0 while no candidate is valid
	all := func(yield func(int) bool) {
		for idx := 0; idx < s.dims.Size(); idx++ {
			if !yield(idx) {
				return
			}
		}
	}
	var err error
	s.space, err = s.runPool(all, eval, func(idx int, c *Candidate) {
		s.done++
		s.opts.Metrics.Counter("autotune_candidates_total").Inc()
		if c != nil {
			s.valid++
			s.opts.Metrics.Counter("autotune_candidates_valid_total").Inc()
			r := ranked{c: c, idx: idx, score: c.Predicted}
			if measured {
				r.score = c.Measured
				s.machine += CompileLaunchOverheadSeconds + c.Measured
			}
			pos := len(top)
			for pos > 0 && top[pos-1].score > r.score {
				pos--
			}
			if pos < k {
				if len(top) < k {
					top = append(top, ranked{})
				}
				copy(top[pos+1:], top[pos:])
				top[pos] = r
			}
			best = top[0].score
			s.opts.Metrics.Gauge(gauge).Set(best)
			if s.opts.Observer.Enabled() {
				s.opts.Observer.Emit(obsrv.LevelDebug, "candidate.finish",
					obsrv.F("index", idx), obsrv.F("strategy", c.Strategy.String()),
					obsrv.Ms(key, r.score))
			}
		}
		s.job.Progress(s.done, s.valid, s.failed, best*1e3)
	})
	s.opts.Metrics.Counter("autotune_space_points_total").Add(int64(s.space))
	return top, err
}

// ModelBased runs swATOP's performance-model autotuner sequentially:
// estimate every valid candidate, run the top-k predictions, keep the
// measured best.
func ModelBased(op Operator, model *costmodel.GemmModel) (Result, error) {
	return ModelBasedCtx(context.Background(), op, model, Options{})
}

// ModelBasedCtx is ModelBased with cancellation and a worker pool. The
// scorer is the static performance model; the finish step runs the TopK
// predictions and keeps the measured best. With Options.Searcher set it
// delegates to sample-efficient search instead.
func ModelBasedCtx(ctx context.Context, op Operator, model *costmodel.GemmModel, opts Options) (Result, error) {
	if opts.Searcher != nil {
		return searchBased(ctx, op, model, opts)
	}
	s, err := begin(ctx, op, opts, "", "")
	if err != nil {
		return s.fail(err)
	}
	top, err := s.walk(TopK, false, func(c *Candidate) error {
		est, err := costmodel.EstimateProgram(model, c.Program)
		if err != nil {
			return fmt.Errorf("estimate %s: %w", c.Strategy, err)
		}
		c.Predicted = est.Total()
		return nil
	})
	if err != nil {
		return s.fail(err)
	}
	if len(top) == 0 {
		cause := ErrNoSchedule
		if s.failed > 0 { // a failed candidate may have been a valid one
			cause = errors.New(ErrNoSchedule.Error())
		}
		return s.fail(fmt.Errorf("autotune %s: %w in space of %d (%d candidates failed)",
			op.Name(), cause, s.space, s.failed))
	}
	s.tFinal = time.Now()
	s.job.SetDetail("finalists")
	// The k finalists are emitted into one binary and measured in a single
	// batch job: one compile+launch, k short runs. Each run goes through
	// the same panic-isolation + retry policy as the search: a finalist
	// that cannot be measured is skipped, and only measuring *no* finalist
	// is an error.
	s.machine = CompileLaunchOverheadSeconds
	var best *Candidate
	for _, r := range top {
		c, err := s.evalCandidate(r.idx, s.measure)
		var ce *CandidateError
		if errors.As(err, &ce) || (err == nil && c == nil) {
			// c == nil: compiled during the search but not for the final
			// run — a nondeterministic operator; contain it like a failure.
			s.failed++
			continue
		}
		if err != nil {
			return s.fail(fmt.Errorf("autotune %s: candidate failed to run: %w", op.Name(), err))
		}
		c.Predicted = r.c.Predicted
		s.machine += c.Measured
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
		return s.fail(fmt.Errorf("autotune %s: all %d finalists failed to run", op.Name(), len(top)))
	}
	return s.finish(Result{Best: *best})
}

// BlackBox runs every valid candidate on the simulator and picks the
// measured best — the brute-force baseline.
func BlackBox(op Operator) (Result, error) {
	return BlackBoxCtx(context.Background(), op, Options{})
}

// BlackBoxCtx is BlackBox with cancellation and a worker pool. The scorer
// is a run on the simulated machine and the walk's single best the result.
func BlackBoxCtx(ctx context.Context, op Operator, opts Options) (Result, error) {
	s, err := begin(ctx, op, opts, "blackbox", "blackbox")
	if err != nil {
		return s.fail(fmt.Errorf("blackbox %s: %w", op.Name(), err))
	}
	top, err := s.walk(1, true, func(c *Candidate) error {
		if err := s.measure(c); err != nil {
			// %w keeps the transient mark visible to the retry policy.
			return fmt.Errorf("%s: %w", c.Strategy, err)
		}
		return nil
	})
	if err != nil {
		return s.fail(fmt.Errorf("blackbox %s: %w", op.Name(), err))
	}
	if len(top) == 0 {
		return s.fail(fmt.Errorf("blackbox %s: no valid schedule (%d candidates failed)", op.Name(), s.failed))
	}
	return s.finish(Result{Best: *top[0].c})
}
