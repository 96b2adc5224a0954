package autotune

import (
	"context"
	"errors"
	"fmt"

	"swatop/internal/cache"
	"swatop/internal/costmodel"
)

// errNoTune marks a library miss while tuning is disabled: the caller
// either degrades to the baseline or surfaces the miss.
var errNoTune = errors.New("tuning disabled (schedule not in library)")

// Resolve puts a schedule library in front of the tuner — the one
// cache-then-tune path the facade and the inference runtime share. A hit
// recompiles the cached strategy and comes back as a Result carrying only
// Best (strategy, program, cached seconds) and Valid, with cached set. An
// entry that no longer compiles (stale schema, changed menus) is deleted so
// it cannot shadow the fresh result. A miss tunes, with lib as the
// searcher's transfer source, and records the winner — unless noTune, when
// it is an error. A failed tune leaves the library untouched: what a caller
// serves in its place (the degraded baseline) is never cached. lib may be
// nil.
func Resolve(ctx context.Context, op Operator, model *costmodel.GemmModel, lib *cache.Library,
	noTune bool, opts Options) (res Result, cached bool, err error) {
	if lib != nil {
		if e, ok := lib.Get(op.Name()); ok {
			if prog, cerr := op.Compile(e.Strategy()); cerr == nil {
				best := Candidate{Strategy: e.Strategy(), Program: prog, Measured: e.SimulatedSeconds}
				return Result{Best: best, Valid: e.SpaceSize}, true, nil
			}
			lib.Delete(op.Name())
		}
	}
	if noTune {
		return Result{}, false, fmt.Errorf("%s: %w", op.Name(), errNoTune)
	}
	opts.Transfer = lib
	res, err = ModelBasedCtx(ctx, op, model, opts)
	if err == nil && lib != nil {
		lib.Put(cache.FromStrategy(op.Name(), res.Best.Strategy, res.Best.Measured, res.Valid))
	}
	return res, false, err
}
