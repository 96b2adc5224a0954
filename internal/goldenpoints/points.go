// Package goldenpoints is the fixed list of (operator, schedule point) pairs
// that the characterisation goldens of costmodel and exec both evaluate, so
// the two files pin the same programs.
package goldenpoints

import (
	"errors"

	"swatop/internal/conv"
	"swatop/internal/dsl"
	"swatop/internal/gemm"
	"swatop/internal/ir"
	"swatop/internal/schedule"
)

// Op is what a golden needs of an operator.
type Op interface {
	Name() string
	Seed() *dsl.Seed
	Space() *dsl.Space
	Compile(dsl.Strategy) (*ir.Program, error)
}

// Point is one operator at one index of its (widened) schedule space.
type Point struct {
	Op       Op
	Index    int
	Strategy dsl.Strategy
}

// perOp schedule points are sampled from every operator's space.
const perOp = 24

// All returns the point list: GEMM and implicit/explicit/Winograd
// convolution, perOp points each.
func All() ([]Point, error) {
	vgg := conv.Shape{B: 1, Ni: 128, No: 128, Ro: 56, Co: 56, Kr: 3, Kc: 3}
	batched := conv.Shape{B: 8, Ni: 64, No: 96, Ro: 14, Co: 14, Kr: 3, Kc: 3}
	var ops []Op
	var errs []error
	add := func(op Op, err error) { ops, errs = append(ops, op), append(errs, err) }
	add(gemm.NewOp(gemm.Params{M: 200, N: 200, K: 200}))
	add(gemm.NewOp(gemm.Params{M: 512, N: 128, K: 256}))
	add(conv.NewImplicitOp(vgg))
	add(conv.NewImplicitOp(batched))
	add(conv.NewExplicitOp(batched))
	add(conv.NewWinogradOp(batched))
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var points []Point
	for _, op := range ops {
		// The operators' own spaces fix prefetch on and lightweight padding;
		// widen both so the list reaches the other arms of the pipeline.
		sp := *op.Space()
		sp.DoubleBuffer = []bool{true, false}
		sp.Padding = []dsl.PaddingMode{dsl.PadLightweight, dsl.PadTraditional}
		dims, err := schedule.Describe(op.Seed(), &sp)
		if err != nil {
			return nil, err
		}
		for i := 0; i < perOp; i++ {
			idx := (i*7919 + 13) % dims.Size()
			points = append(points, Point{Op: op, Index: idx, Strategy: dims.At(idx)})
		}
	}
	return points, nil
}
