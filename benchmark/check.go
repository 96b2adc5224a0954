package main

import (
	"context"
	"fmt"

	"swatop/internal/autotune"
	"swatop/internal/graph"
	"swatop/internal/infer"
)

// checkTolerance is the per-operator max-abs-error bound of the functional
// check (the engine's own default, stated here because the check is ours).
const checkTolerance = 1e-3

// pickRatioFloor is the paper's bound on cost-model pick quality: the
// schedule the model picks runs at no less than 92 % of the speed of the
// measured-best one.
const pickRatioFloor = 0.92

// checkFunctional is the correctness stage that runs before any timing: the
// tiny chain (3 convs + 2 FCs, batch 2) is tuned and executed with real
// float32 data, and every operator's output must match the reference
// oracle — tensor.ReferenceConv / tensor.ReferenceGemm, a direct
// convolution and a naive GEMM that share no code with the compiler under
// test.
func checkFunctional(ctx context.Context, e *env) error {
	eng, err := infer.NewEngine()
	if err != nil {
		return err
	}
	g, err := tinyChain(2)
	if err != nil {
		return err
	}
	res, err := eng.Run(ctx, g, infer.Options{
		Workers: e.workers, Functional: true, Tolerance: checkTolerance, SkipBaseline: true,
	})
	if err != nil {
		return fmt.Errorf("functional check: %w", err)
	}
	ops := 0
	for _, l := range res.Layers {
		if l.Kind != graph.Conv && l.Kind != graph.Gemm {
			continue
		}
		ops++
		if !l.Checked || l.MaxAbsErr > checkTolerance {
			return fmt.Errorf("functional check: operator %s checked=%v, max abs error %g (tolerance %g)",
				l.Name, l.Checked, l.MaxAbsErr, checkTolerance)
		}
	}
	if want := g.CountKind(graph.Conv) + g.CountKind(graph.Gemm); ops != want || res.Output == nil {
		return fmt.Errorf("functional check: %d of %d operators executed", ops, want)
	}
	return nil
}

// checkPickRatio tunes the blackbox-conv shapes with the model-based tuner
// and compares its picks with the measured-best schedules the last
// black-box pass found: the smallest ratio of best-possible to picked
// simulated time over the shapes must not fall below the paper's bound.
func checkPickRatio(ctx context.Context, e *env, st *state) (float64, error) {
	min := 1.0
	for i, op := range st.ops {
		mb, err := autotune.ModelBasedCtx(ctx, op, st.model, autotune.Options{Workers: e.workers})
		if err != nil {
			return 0, err
		}
		if r := st.bbBest[i] / mb.Best.Measured; r < min {
			min = r
		}
	}
	if min < pickRatioFloor {
		return min, fmt.Errorf("costmodel.pick_ratio_min = %.4f, below the paper's bound %.2f", min, pickRatioFloor)
	}
	return min, nil
}
