package conv

import (
	"fmt"

	"swatop/internal/core"
	"swatop/internal/dsl"
	"swatop/internal/ir"
	"swatop/internal/lower"
	"swatop/internal/tensor"
)

// ExplicitOp is the explicit-GEMM convolution (Fig. 2 left): phase one
// materializes the im2col column matrix in main memory through SPM, phase
// two runs one large tiled GEMM:
//
//	out2d[No × Ro·Co·B] = weight2d[No × Ni·Kr·Kc] × col[Ni·Kr·Kc × Ro·Co·B]
//
// The extra main-memory round trip is the method's intrinsic cost — it is
// why its efficiency trails the other two methods in Fig. 8.
type ExplicitOp struct {
	S     Shape
	seed  *dsl.Seed // the GEMM-phase seed; its axes name the tunables
	space *dsl.Space
}

// NewExplicitOp builds the operator and its schedule space.
func NewExplicitOp(s Shape) (*ExplicitOp, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	kk := s.Ni * s.Kr * s.Kc
	nn := s.Ro * s.Co * s.B
	seed := dsl.NewSeed(fmt.Sprintf("explicit_conv_%s", shapeTag(s)))
	seed.AddAxis("m", s.No, dsl.RoleM)
	seed.AddAxis("n", nn, dsl.RoleN)
	seed.AddAxis("k", kk, dsl.RoleK)
	seed.AddTensor("weight2d", []int{s.No, kk}, dsl.OperandA, dsl.Dim("m"), dsl.Dim("k"))
	seed.AddTensor("col", []int{kk, nn}, dsl.OperandB, dsl.Dim("k"), dsl.Dim("n"))
	seed.AddTensor("out2d", []int{s.No, nn}, dsl.OperandC, dsl.Dim("m"), dsl.Dim("n"))

	sp := dsl.NewSpace()
	sp.Factors["m"] = dsl.TileMenu(s.No, []int{32, 64, 128})
	sp.Factors["n"] = dsl.TileMenu(nn, []int{256, 512, 1024})
	sp.Factors["k"] = dsl.TileMenu(kk, []int{64, 128, 256})
	sp.Reorder("m", "n", "k")
	sp.Reorder("n", "m", "k")
	sp.Layout("weight2d", 0, 1)
	sp.Layout("weight2d", 1, 0)
	sp.Layout("col", 0, 1)
	sp.Layout("out2d", 0, 1)
	sp.Layout("out2d", 1, 0)
	return &ExplicitOp{S: s, seed: seed, space: sp}, nil
}

// Name identifies the operator instance.
func (o *ExplicitOp) Name() string { return o.seed.Name }

// Seed returns the GEMM-phase schedule seed.
func (o *ExplicitOp) Seed() *dsl.Seed { return o.seed }

// Space returns the schedule space.
func (o *ExplicitOp) Space() *dsl.Space { return o.space }

// Compile assembles the two-phase program for one strategy.
func (o *ExplicitOp) Compile(st dsl.Strategy) (*ir.Program, error) {
	s := o.S
	plan, err := lower.NewPlan(o.seed, st)
	if err != nil {
		return nil, err
	}
	nest, err := plan.BuildNest()
	if err != nil {
		return nil, err
	}

	kk := s.Ni * s.Kr * s.Kc
	nn := s.Ro * s.Co * s.B
	prog := &ir.Program{Name: o.Name()}
	prog.Tensors = []ir.TensorDecl{
		{Name: "in", Dims: []int{s.Ni, s.Ri(), s.Ci(), s.B}},
		{Name: "weight2d", Dims: []int{s.No, kk}, Layout: plan.Layout("weight2d")},
		{Name: "col", Dims: []int{kk, nn}, Scratch: true, Layout: plan.Layout("col")},
		{Name: "out2d", Dims: []int{s.No, nn}, Output: true, Layout: plan.Layout("out2d")},
	}

	// Phase 1: im2col. For every (ni, kr, kc) and a chunk of output rows,
	// one Get from the (pre-padded) input and one Put into the column
	// matrix — the shifted-window copy that defines im2col.
	chunk := max(1, 128*1024/(s.Co*s.B))
	if chunk > s.Ro {
		chunk = s.Ro
	}
	nchunks := (s.Ro + chunk - 1) / chunk
	rowExt := ir.Expr(ir.Const(int64(chunk)))
	r0 := ir.Mul(ir.V("rch"), ir.Const(int64(chunk)))
	if s.Ro%chunk != 0 {
		rowExt = ir.Min(ir.Const(int64(chunk)), ir.Sub(ir.Const(int64(s.Ro)), r0))
	}
	bufElems := chunk * s.Co * s.B
	get := &ir.RegionMove{
		Tensor: "in", Dir: ir.Get,
		Start:  []ir.Expr{ir.V("cni"), ir.Add(r0, ir.V("ckr")), ir.V("ckc"), ir.Const(0)},
		Extent: []ir.Expr{ir.Const(1), rowExt, ir.Const(int64(s.Co)), ir.Const(int64(s.B))},
		Buf:    "spm_im2col", BufOff: ir.Const(0),
	}
	colRow := ir.Add(ir.Mul(ir.Add(ir.Mul(ir.V("cni"), ir.Const(int64(s.Kr))), ir.V("ckr")), ir.Const(int64(s.Kc))), ir.V("ckc"))
	put := &ir.RegionMove{
		Tensor: "col", Dir: ir.Put,
		Start:  []ir.Expr{colRow, ir.Mul(r0, ir.Const(int64(s.Co*s.B)))},
		Extent: []ir.Expr{ir.Const(1), ir.Mul(rowExt, ir.Const(int64(s.Co*s.B)))},
		Buf:    "spm_im2col", BufOff: ir.Const(0),
	}
	im2col := []ir.Stmt{
		&ir.Comment{Text: "phase 1: im2col materialization"},
		&ir.AllocSPM{Buf: "spm_im2col", Elems: ir.Const(int64(bufElems))},
		&ir.For{Iter: "cni", Extent: ir.Const(int64(s.Ni)), Body: []ir.Stmt{
			&ir.For{Iter: "ckr", Extent: ir.Const(int64(s.Kr)), Body: []ir.Stmt{
				&ir.For{Iter: "ckc", Extent: ir.Const(int64(s.Kc)), Body: []ir.Stmt{
					&ir.For{Iter: "rch", Extent: ir.Const(int64(nchunks)), Body: []ir.Stmt{get, put}},
				}},
			}},
		}},
		&ir.FreeSPM{Buf: "spm_im2col"},
	}

	prog.Body = append(im2col, &ir.Comment{Text: "phase 2: tiled GEMM"})
	prog.Body = append(prog.Body, nest...)
	return core.Optimize(prog, st)
}

// ExplicitWeight2D flattens a 4-D filter into the (No, Ni·Kr·Kc) matrix
// operand (identity layout), preserving values.
func ExplicitWeight2D(w *tensor.Tensor, s Shape) (*tensor.Tensor, error) {
	return tensor.FilterMatrix(w, s)
}

// ExplicitOutput4D scatters the 2-D result back into (No, Ro, Co, B).
func ExplicitOutput4D(out2d *tensor.Tensor, s Shape) (*tensor.Tensor, error) {
	return tensor.OutputFromMatrix(out2d, s)
}
