// search.go is the sample-efficient tuning path: ModelBasedCtx with
// Options.Searcher set delegates here instead of walking the whole space.
// This file owns everything the searcher must not know about — schedule
// compilation, the analytic cost model, measuring a batch through the
// candidate loop, transfer seeding from the cache library, and the
// metrics/obsrv instrumentation — and hands the searcher a pure
// search.Problem over the mixed-radix index space.
package autotune

import (
	"context"
	"fmt"
	"hash/fnv"

	"swatop/internal/costmodel"
	"swatop/internal/obsrv"
	"swatop/internal/search"
)

// DefaultSearchBudget is the fraction of the candidate space a searcher may
// measure when Options.SearchBudget is unset — the ROADMAP's "≤10% of the
// candidates" target.
const DefaultSearchBudget = 0.10

// TransferSeeds is how many nearest-neighbor cached winners seed the
// searcher's population when Options.Transfer is set.
const TransferSeeds = 3

// searchBased tunes op with the configured Searcher. The determinism
// contract of the exhaustive walk carries over: given (SearchSeed, budget)
// the chosen schedule and the measured-candidate ledger are bit-identical
// for every Workers value, because a measure batch is one run of the
// candidate loop and its sink sees the batch in index order.
func searchBased(ctx context.Context, op Operator, model *costmodel.GemmModel, opts Options) (Result, error) {
	name := opts.Searcher.Name()
	s, err := begin(ctx, op, opts, name, "search:"+name)
	if err != nil {
		return s.fail(fmt.Errorf("autotune %s: %w", op.Name(), err))
	}
	size := s.dims.Size()
	frac := opts.SearchBudget
	if frac <= 0 {
		frac = DefaultSearchBudget
	}
	budget := search.BudgetFor(frac, size)
	opts.Metrics.Gauge("search_budget_candidates").Set(float64(budget))
	opts.Metrics.Counter("autotune_space_points_total").Add(int64(size))

	seed := opts.SearchSeed
	if seed == 0 {
		h := fnv.New64a()
		h.Write([]byte(op.Name()))
		seed = h.Sum64()
	}

	// Transfer: cached winners of the nearest same-family shapes land on
	// the closest legal points of this space and start the population.
	var seeds []int
	if opts.Transfer != nil {
		for _, e := range opts.Transfer.Nearest(op.Name(), TransferSeeds) {
			seeds = append(seeds, s.dims.NearestIndex(e.Strategy()))
		}
		opts.Metrics.Counter("search_transfer_seeds_total").Add(int64(len(seeds)))
		if len(seeds) > 0 && opts.Observer.Enabled() {
			opts.Observer.Emit(obsrv.LevelDebug, "search.transfer",
				obsrv.F("op", op.Name()), obsrv.F("seeds", len(seeds)))
		}
	}

	// evaluate: compile + analytic estimate + featurize, never run. Panics
	// and estimator errors make the point infeasible (nil) — the searcher
	// routes around it, same as a failed compile.
	evaluate := func(idx int) (c *Candidate, feat []float64) {
		st := s.dims.At(idx)
		c, err, _ := evalOnce(op, st, func(c *Candidate) error {
			est, err := costmodel.EstimateProgram(model, c.Program)
			if err != nil {
				return err
			}
			c.Predicted = est.Total()
			feat = search.Features(op.Seed(), st, c.Program, est)
			return nil
		})
		if err != nil {
			return nil, nil
		}
		return c, feat
	}

	// Measure: one batch = one compile+launch overhead charge plus the
	// measured runs, as one run of the candidate loop over the batch's
	// (ascending) indices. A batch that stops — on a fatal error, the
	// failure limit, which counts across batches, or cancellation — ends the
	// search: later batches measure nothing.
	var fatal error
	measureBatch := func(indices []int) []search.Measured {
		if fatal != nil || len(indices) == 0 {
			return nil
		}
		s.machine += CompileLaunchOverheadSeconds
		out := make([]search.Measured, 0, len(indices))
		batch := func(yield func(int) bool) {
			for _, idx := range indices {
				if !yield(idx) {
					return
				}
			}
		}
		_, fatal = s.runPool(batch, s.measure, func(idx int, c *Candidate) {
			if c != nil {
				opts.Metrics.Counter("autotune_candidates_total").Inc()
				opts.Metrics.Counter("autotune_candidates_valid_total").Inc()
				out = append(out, search.Measured{Index: idx, Seconds: c.Measured})
				s.machine += c.Measured
			}
		})
		return out
	}

	// Report: per-round metrics deltas, the live job and the search.round /
	// search.converged event stream.
	var lastProposed, lastMeasured, lastPruned int64
	report := func(ri search.RoundInfo) {
		opts.Metrics.Counter("search_rounds_total").Inc()
		opts.Metrics.Counter("search_candidates_proposed_total").Add(int64(ri.Proposed) - lastProposed)
		opts.Metrics.Counter("search_candidates_measured_total").Add(int64(ri.MeasuredN) - lastMeasured)
		opts.Metrics.Counter("search_candidates_pruned_total").Add(int64(ri.Pruned) - lastPruned)
		lastProposed, lastMeasured, lastPruned = int64(ri.Proposed), int64(ri.MeasuredN), int64(ri.Pruned)
		opts.Metrics.Gauge("search_model_mae_seconds").Set(ri.ModelMAE)
		if ri.BestIndex >= 0 {
			opts.Metrics.Gauge("autotune_best_measured_seconds").Set(ri.BestSeconds)
		}
		s.job.Progress(ri.Proposed, ri.MeasuredN, s.failed, ri.BestSeconds*1e3)
		if opts.Observer.Enabled() {
			opts.Observer.Emit(obsrv.LevelDebug, "search.round",
				obsrv.F("op", op.Name()), obsrv.F("round", ri.Round),
				obsrv.F("proposed", ri.Proposed), obsrv.F("measured", ri.MeasuredN),
				obsrv.F("pruned", ri.Pruned), obsrv.F("best_index", ri.BestIndex),
				obsrv.Ms("best_ms", ri.BestSeconds), obsrv.Ms("model_mae_ms", ri.ModelMAE))
			if ri.Converged {
				opts.Observer.Emit(obsrv.LevelInfo, "search.converged",
					obsrv.F("op", op.Name()), obsrv.F("rounds", ri.Round),
					obsrv.F("measured", ri.MeasuredN), obsrv.Ms("best_ms", ri.BestSeconds))
			}
		}
	}

	sres, serr := opts.Searcher.Search(&search.Problem{
		Radices: s.dims.Radices(),
		Size:    size,
		Budget:  budget,
		Seed:    seed,
		Seeds:   seeds,
		Eval: func(idx int) (search.Point, bool) {
			c, feat := evaluate(idx)
			if c == nil {
				return search.Point{}, false
			}
			return search.Point{Index: idx, Features: feat, Estimate: c.Predicted}, true
		},
		Measure: measureBatch,
		Report:  report,
	})
	if fatal != nil {
		serr = fatal
	} else if serr == nil {
		serr = ctx.Err()
	}
	if serr != nil {
		return s.fail(fmt.Errorf("autotune %s (%s): %w", op.Name(), name, serr))
	}

	// Rebuild the winning candidate (the searcher only tracks indices).
	best, _ := evaluate(sres.BestIndex)
	if best == nil {
		return s.fail(fmt.Errorf("autotune %s: recompile winner %s failed", op.Name(), s.dims.At(sres.BestIndex)))
	}
	best.Measured = sres.BestSeconds
	s.done, s.valid, s.space = sres.Proposed, len(sres.Ledger), size
	return s.finish(Result{
		Best:      *best,
		Proposed:  sres.Proposed,
		Measured:  len(sres.Ledger),
		Rounds:    sres.Rounds,
		Converged: sres.Converged,
	}, obsrv.F("proposed", sres.Proposed), obsrv.F("rounds", sres.Rounds), obsrv.F("space", size))
}
