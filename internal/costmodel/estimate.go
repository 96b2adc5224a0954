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
// search model (internal/search) regresses over, with the Path tallies.
type Estimate struct {
	DMA     float64
	Compute float64
	// DMABytes is the predicted payload bytes moved by DMA (untouched by
	// transaction rounding).
	DMABytes float64
	// DMATransactions is the predicted count of memory transactions,
	// including misalignment and rounding waste per block.
	DMATransactions float64
	Path
}

// Path tallies the iteration-0 path, what the scorer reaches while every
// enclosing loop is on its first pass: counts along one path, outside the
// Eq. (1)/(2) sums and never scaled by a trip count. SPMBytes ignores frees,
// so nested buffer reuse still counts; GemmM and GemmN are the first GEMM
// call's.
type Path struct{ SPMBytes, GemmM, GemmN, DMAOps int64 }

// Total returns max(DMA, Compute).
func (e Estimate) Total() float64 {
	if e.DMA > e.Compute {
		return e.DMA
	}
	return e.Compute
}

// add sums o into e field by field.
func (e *Estimate) add(o Estimate) {
	e.DMA += o.DMA
	e.Compute += o.Compute
	e.DMABytes += o.DMABytes
	e.DMATransactions += o.DMATransactions
}

// EstimateProgram predicts a program's run time without executing it: the
// scorer below walks it with the ir walker. Loops are evaluated at two
// points — the first and the last iteration — and interior iterations are
// assumed uniform with the first; this is exact for swATOP's lowered nests
// (only boundary tiles differ) and visits the innermost body 2^depth times
// instead of once per iteration, which is where the "days to minutes" tuning
// speedup (Table 3) comes from.
func EstimateProgram(model *GemmModel, p *ir.Program) (Estimate, error) {
	ts, err := tensor.NewVirtuals(len(p.Tensors), p.Decl)
	if err != nil {
		return Estimate{}, err
	}
	s := scorer{model: model, tensors: ts}
	if err := ir.Bind(p).Run(&s); err != nil {
		return Estimate{}, err
	}
	s.acc.Path = s.path
	return s.acc, nil
}

// scorer is the Eq. (1)/(2) leaf of the ir walker. acc is the sum of the
// statement list being walked; a loop pass and a branch arm each sum from
// zero and are added to their list's sum as one term. Allocation and
// assignment cost nothing, and waits are free under the perfect-overlap
// assumption: FirstPass's. path is tallied while later is 0, that is while
// no enclosing loop is on its last-iteration pass.
type scorer struct {
	ir.FirstPass
	model   *GemmModel
	tensors []tensor.Tensor // virtual, by declaration: shapes and strides only
	acc     Estimate
	path    Path
	later   int
}

// pass runs one loop iteration or branch arm and returns its own sum.
func (s *scorer) pass(body ir.Body, i int64) (Estimate, error) {
	outer := s.acc
	s.acc = Estimate{}
	err := body.Run(i)
	sum := s.acc
	s.acc = outer
	return sum, err
}

func (s *scorer) Loop(extent int64, body ir.Body) error {
	if extent == 0 {
		return nil
	}
	first, err := s.pass(body, 0)
	if err != nil || extent == 1 {
		s.acc.add(first)
		return err
	}
	s.later++
	last, err := s.pass(body, extent-1)
	s.later--
	interior := float64(extent - 1)
	s.acc.add(Estimate{
		DMA:             first.DMA*interior + last.DMA,
		Compute:         first.Compute*interior + last.Compute,
		DMABytes:        first.DMABytes*interior + last.DMABytes,
		DMATransactions: first.DMATransactions*interior + last.DMATransactions,
	})
	return err
}

func (s *scorer) Alloc(_ int, elems int64) error {
	if s.later == 0 {
		s.path.SPMBytes += elems * 4
	}
	return nil
}

func (s *scorer) Branch(arm ir.Body) error {
	sum, err := s.pass(arm, 0)
	s.acc.add(sum)
	return err
}

// Move scores one transfer: the region is validated and its descriptors are
// streamed into the Eq. (1) tally without being materialised.
func (s *scorer) Move(x *ir.RegionMove, mv *ir.Op) error {
	t := &s.tensors[mv.A]
	// Also rejects a move whose rank does not match the tensor's.
	if err := tensor.CheckRegion(t, mv.Start(), mv.Extent()); err != nil {
		return fmt.Errorf("estimator: %s: %w", x.Tensor, err)
	}
	var tally dmaTally
	if err := (tensor.Region{Start: mv.Start(), Extent: mv.Extent()}).FlattenEach(t, tally.add); err != nil {
		return err
	}
	s.acc.DMA += tally.seconds()
	s.acc.DMABytes += float64(tally.payload)
	s.acc.DMATransactions += float64(tally.transactions)
	if s.later == 0 {
		s.path.DMAOps++
	}
	return nil
}

func (s *scorer) Gemm(x *ir.Gemm, op *ir.Op) error {
	m, n := op.Arg(0), op.Arg(1)
	if s.later == 0 && s.path.GemmM == 0 {
		s.path.GemmM, s.path.GemmN = m, n
	}
	s.acc.Compute += s.model.Predict(int(m), int(n), int(op.Arg(2)), x.ATrans, x.BTrans, x.Vec)
	return nil
}

func (s *scorer) Transform(x *ir.Transform, op *ir.Op) error {
	t, err := primitives.TransformTime(x, func(i int) int { return int(op.Arg(2 + i)) })
	if err != nil {
		return fmt.Errorf("estimator: %w", err)
	}
	s.acc.Compute += t
	return nil
}
