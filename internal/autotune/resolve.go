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

// ErrNoSchedule marks a model-based walk that found no valid point in an
// operator's space and had no candidate fail: an outcome of the space
// alone, the same on every run, which a caller may remember per operator
// name instead of walking the space again.
var ErrNoSchedule = errors.New("no valid schedule")

// Resolve puts a schedule library in front of the tuner — the one
// cache-then-tune path the facade and the inference runtime share: a hit
// goes through ResolveHit, a miss or a stale entry through ResolveMiss. lib
// may be nil.
func Resolve(ctx context.Context, op Operator, model *costmodel.GemmModel, lib *cache.Library,
	noTune bool, opts Options) (res Result, cached bool, err error) {
	if lib != nil {
		if e, ok := lib.Get(op.Name()); ok {
			if res, err := ResolveHit(op, lib, e); err == nil {
				return res, true, nil
			}
		}
	}
	res, err = ResolveMiss(ctx, op, model, lib, noTune, opts)
	return res, false, err
}

// ResolveHit recompiles the strategy of e, op's library entry, into a
// Result carrying only Best (strategy, program, cached seconds) and Valid.
// An entry that no longer compiles (stale schema, changed menus) is deleted
// so it cannot shadow the fresh result, and the compile error returned.
func ResolveHit(op Operator, lib *cache.Library, e cache.Entry) (Result, error) {
	st := e.Strategy()
	prog, err := op.Compile(st)
	if err != nil {
		lib.Delete(op.Name())
		return Result{}, err
	}
	return Result{Best: Candidate{Strategy: st, Program: prog, Measured: e.SimulatedSeconds}, Valid: e.SpaceSize}, nil
}

// ResolveMiss tunes an operator the library does not hold, with lib as the
// searcher's transfer source, and records the winner — unless noTune, when
// it is an error. A failed tune leaves the library untouched: what a caller
// serves in its place (the degraded baseline) is never cached. lib may be
// nil.
func ResolveMiss(ctx context.Context, op Operator, model *costmodel.GemmModel, lib *cache.Library,
	noTune bool, opts Options) (Result, error) {
	if noTune {
		return Result{}, fmt.Errorf("%s: %w", op.Name(), errNoTune)
	}
	opts.Transfer = lib
	res, err := ModelBasedCtx(ctx, op, model, opts)
	if err == nil && lib != nil {
		lib.Put(cache.FromStrategy(op.Name(), res.Best.Strategy, res.Best.Measured, res.Valid))
	}
	return res, err
}
