package costmodel

import (
	"fmt"

	"swatop/internal/ir"
	"swatop/internal/primitives"
	"swatop/internal/tensor"
)

// Estimate is the static performance prediction of a lowered+optimized
// program: T_DMA and T_compute accumulated separately, combined as
// T_overall = max(T_DMA, T_compute) (the paper's software-prefetching
// overlap assumption). DMABytes and DMATransactions tally the predicted
// traffic behind the DMA time — the schedule-candidate features the learned
// search model (internal/search) regresses over.
type Estimate struct {
	DMA     float64
	Compute float64
	// DMABytes is the predicted payload bytes moved by DMA (untouched by
	// transaction rounding).
	DMABytes float64
	// DMATransactions is the predicted count of memory transactions,
	// including misalignment and rounding waste per block.
	DMATransactions float64
}

// Total returns max(DMA, Compute).
func (e Estimate) Total() float64 {
	if e.DMA > e.Compute {
		return e.DMA
	}
	return e.Compute
}

// Estimator predicts program run time without executing it. Loops are
// evaluated at two points — the first and the last iteration — and interior
// iterations are assumed uniform with the first; this is exact for swATOP's
// lowered nests (only boundary tiles differ) and makes prediction cost
// logarithmic in the iteration count instead of linear, which is where the
// "days to minutes" tuning speedup (Table 3) comes from.
type Estimator struct {
	Model *GemmModel

	tensors map[string]*tensor.Tensor // virtual: shapes and strides only
	env     ir.Env
	// start/extent are dma's scratch for the evaluated region.
	start, extent []int
}

// NewEstimator prepares an estimator for a program's operand shapes.
func NewEstimator(model *GemmModel, p *ir.Program) (*Estimator, error) {
	est := &Estimator{Model: model, tensors: map[string]*tensor.Tensor{}, env: ir.Env{}}
	for _, d := range p.Tensors {
		t, err := tensor.NewVirtual(d.Name, d.Dims, d.Layout)
		if err != nil {
			return nil, err
		}
		est.tensors[d.Name] = t
	}
	return est, nil
}

// EstimateProgram predicts a whole program.
func EstimateProgram(model *GemmModel, p *ir.Program) (Estimate, error) {
	est, err := NewEstimator(model, p)
	if err != nil {
		return Estimate{}, err
	}
	return est.block(p.Body)
}

func (e *Estimator) block(body []ir.Stmt) (Estimate, error) {
	var acc Estimate
	for _, s := range body {
		st, err := e.stmt(s)
		if err != nil {
			return Estimate{}, err
		}
		acc.DMA += st.DMA
		acc.Compute += st.Compute
		acc.DMABytes += st.DMABytes
		acc.DMATransactions += st.DMATransactions
	}
	return acc, nil
}

func (e *Estimator) stmt(s ir.Stmt) (Estimate, error) {
	switch x := s.(type) {
	case *ir.Comment, *ir.AllocSPM, *ir.FreeSPM, *ir.DMAWait:
		// Waits are free under the perfect-overlap assumption.
		return Estimate{}, nil
	case *ir.Assign:
		e.env[x.Var] = x.Val.Eval(e.env)
		return Estimate{}, nil
	case *ir.If:
		if x.Cond.Eval(e.env) {
			return e.block(x.Then)
		}
		return e.block(x.Else)
	case *ir.For:
		return e.loop(x)
	case *ir.RegionMove:
		return e.dma(x)
	case *ir.DMAOp:
		return e.dma(&x.Move)
	case *ir.Gemm:
		m := int(x.M.Eval(e.env))
		n := int(x.N.Eval(e.env))
		k := int(x.K.Eval(e.env))
		return Estimate{Compute: e.Model.Predict(m, n, k, x.ATrans, x.BTrans, x.Vec)}, nil
	case *ir.Transform:
		return e.transform(x)
	}
	return Estimate{}, fmt.Errorf("estimator: unknown statement %T", s)
}

func (e *Estimator) loop(f *ir.For) (Estimate, error) {
	extent := f.Extent.Eval(e.env)
	if extent <= 0 {
		return Estimate{}, nil
	}
	saved, had := e.env[f.Iter]
	defer func() {
		if had {
			e.env[f.Iter] = saved
		} else {
			delete(e.env, f.Iter)
		}
	}()

	e.env[f.Iter] = 0
	first, err := e.block(f.Body)
	if err != nil {
		return Estimate{}, err
	}
	if extent == 1 {
		return first, nil
	}
	e.env[f.Iter] = extent - 1
	last, err := e.block(f.Body)
	if err != nil {
		return Estimate{}, err
	}
	interior := float64(extent - 1)
	return Estimate{
		DMA:             first.DMA*interior + last.DMA,
		Compute:         first.Compute*interior + last.Compute,
		DMABytes:        first.DMABytes*interior + last.DMABytes,
		DMATransactions: first.DMATransactions*interior + last.DMATransactions,
	}, nil
}

// dma scores one transfer: the region is evaluated into the estimator's
// scratch, validated, and its descriptors are streamed into the Eq. (1)
// tally without being materialised.
func (e *Estimator) dma(mv *ir.RegionMove) (Estimate, error) {
	t, ok := e.tensors[mv.Tensor]
	if !ok {
		return Estimate{}, fmt.Errorf("estimator: unknown tensor %q", mv.Tensor)
	}
	e.start, e.extent = e.start[:0], e.extent[:0]
	for _, x := range mv.Start {
		e.start = append(e.start, int(x.Eval(e.env)))
	}
	for _, x := range mv.Extent {
		e.extent = append(e.extent, int(x.Eval(e.env)))
	}
	// Also rejects a move whose rank does not match the tensor's.
	if err := tensor.CheckRegion(t, e.start, e.extent); err != nil {
		return Estimate{}, fmt.Errorf("estimator: %s: %w", mv.Tensor, err)
	}
	var tally dmaTally
	if err := (tensor.Region{Start: e.start, Extent: e.extent}).FlattenEach(t, tally.add); err != nil {
		return Estimate{}, err
	}
	return Estimate{
		DMA:             tally.seconds(),
		DMABytes:        float64(tally.payload),
		DMATransactions: float64(tally.transactions),
	}, nil
}

func (e *Estimator) transform(x *ir.Transform) (Estimate, error) {
	t, err := primitives.TransformTime(x, func(i int) int { return int(x.Args[i].Eval(e.env)) })
	if err != nil {
		return Estimate{}, fmt.Errorf("estimator: %w", err)
	}
	return Estimate{Compute: t}, nil
}
