package autotune

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"swatop/internal/dsl"
	"swatop/internal/faults"
	"swatop/internal/obsrv"
)

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
// keeps searching; only Options.MaxCandidateFailures of them abort it.
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
func (s *session) evalCandidate(idx int, eval func(*Candidate) error) (*Candidate, error) {
	op, opts, st := s.op, s.opts, s.dims.At(idx)
	if opts.Observer.Enabled() {
		opts.Observer.Emit(obsrv.LevelDebug, "candidate.start",
			obsrv.F("index", idx), obsrv.F("strategy", st.String()))
	}
	for attempt := 1; ; attempt++ {
		c, err, panicked := evalOnce(op, st, eval)
		switch {
		case err == nil:
			return c, nil // c may be nil: invalid point
		case !panicked && !faults.IsTransient(err):
			return nil, err
		case !panicked && attempt < opts.Retry.Attempts:
			d := opts.Retry.delay(attempt, idx)
			opts.Metrics.Counter("autotune_retries_total").Inc()
			opts.Metrics.Gauge("autotune_backoff_seconds").Add(d.Seconds())
			opts.Observer.Emit(obsrv.LevelWarn, "candidate.retry",
				obsrv.F("index", idx), obsrv.F("attempt", attempt),
				obsrv.Ms("backoff_ms", d.Seconds()), obsrv.F("error", err))
			time.Sleep(d)
			continue
		}
		kind, level := "candidate.failed", obsrv.LevelWarn
		if panicked {
			kind, level = "candidate.panic", obsrv.LevelError
		}
		opts.Metrics.Counter("autotune_candidates_failed_total").Inc()
		opts.Observer.Emit(level, kind,
			obsrv.F("index", idx), obsrv.F("strategy", st.String()), obsrv.F("error", err))
		return nil, &CandidateError{Index: idx, Strategy: st, Panicked: panicked, Err: err}
	}
}

// source feeds one run of the candidate loop: it calls yield with each
// candidate's index into the session's schedule space, in ascending order,
// until yield returns false. The two walks yield every index; a searcher's
// measure batch yields its chosen ones.
type source func(yield func(idx int) bool)

// runPool sends src's candidates through the loop: each is decoded from its
// index (dims.At), compiled and, when valid, passed to eval — on
// Options.Workers goroutines, or in place by runSequential below two. Either
// way the outcomes reach take in index order on the caller's goroutine (sink
// needs no locking). take is the failure policy: a CandidateError (see
// evalCandidate) is counted against MaxCandidateFailures and the point
// skipped, any other evaluation error is fatal, and the first of either
// stops the run and is what it reports. sink sees every processed point, a
// nil candidate for an invalid or failed one. Returns how many points were
// processed.
func (s *session) runPool(src source, eval func(*Candidate) error, sink func(idx int, c *Candidate)) (int, error) {
	total := 0
	var fatal error
	take := func(idx int, c *Candidate, err error) bool {
		var ce *CandidateError
		if errors.As(err, &ce) {
			s.failed++
			if limit := s.opts.MaxCandidateFailures; limit > 0 && s.failed > limit {
				fatal = fmt.Errorf("%d candidate failures exceed limit %d, last: %w", s.failed, limit, err)
				return false
			}
			c = nil
		} else if err != nil {
			fatal = err
			return false
		}
		total++
		sink(idx, c)
		return true
	}
	run := s.runWorkers
	if s.opts.Workers < 2 {
		run = s.runSequential
	}
	// What stopped the run: the candidate error, else the caller's
	// cancellation.
	run(src, eval, take)
	if fatal == nil {
		fatal = s.ctx.Err()
	}
	if fatal != nil {
		return 0, fatal
	}
	return total, nil
}

// runSequential is the single-goroutine loop: one pass over the source,
// evaluating in place. It is the reference every worker count must
// reproduce, and what the worker-invariance tests compare runWorkers with.
func (s *session) runSequential(src source, eval func(*Candidate) error, take func(int, *Candidate, error) bool) {
	src(func(idx int) bool {
		if s.ctx.Err() != nil {
			return false
		}
		c, err := s.evalCandidate(idx, eval)
		return take(idx, c, err)
	})
}

// poolItem is one candidate's trip through the workers: dispatched with its
// position in the source's order and its index, returned with the outcome
// (cand is nil when the point did not compile).
type poolItem struct {
	seq, idx int
	cand     *Candidate
	err      error
}

// runWorkers is runSequential on Options.Workers goroutines. The caller's
// goroutine both feeds them indices from the source and collects: it puts
// the outcomes back into source order before take sees them, so the failure
// limit trips on the same candidate and the run stops at the same error,
// whatever the workers' timing. The worker that compiles a point also
// decodes it, so the serial feeder hands out integers and builds nothing.
func (s *session) runWorkers(src source, eval func(*Candidate) error, take func(int, *Candidate, error) bool) {
	workers := s.opts.Workers
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()

	jobs := make(chan poolItem, workers)
	results := make(chan poolItem, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for j := range jobs {
				if ctx.Err() != nil {
					continue // drain after cancellation
				}
				j.cand, j.err = s.evalCandidate(j.idx, eval)
				results <- j // received until results is closed, below
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	held := map[int]poolItem{} // outcomes that arrived ahead of their turn
	sent, next, stopped := 0, 0, false
	collect := func(r poolItem) {
		held[r.seq] = r
		for r, ok := held[next]; ok && !stopped; r, ok = held[next] {
			delete(held, next)
			next++
			if !take(r.idx, r.cand, r.err) {
				stopped = true
				cancel() // everything before r is done; nothing after it counts
			}
		}
	}
	src(func(idx int) bool {
		for {
			// No more than sixteen candidates per worker run ahead of the
			// oldest unfinished one: that bounds held, and still keeps one slow
			// candidate from idling the rest.
			out := jobs
			if sent-next >= 16*workers {
				out = nil
			}
			select {
			case out <- poolItem{seq: sent, idx: idx}:
				sent++
				return true
			case r := <-results:
				collect(r)
			case <-ctx.Done():
				return false
			}
		}
	})
	close(jobs)
	for r := range results {
		collect(r)
	}
}
