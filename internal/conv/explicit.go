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
	S      Shape
	seed   *dsl.Seed // the GEMM-phase seed; its axes name the tunables
	space  *dsl.Space
	im2col core.Prefix // phase one, optimized once per prefetch setting
}

// NewExplicitOp builds the operator and its schedule space.
func NewExplicitOp(s Shape) (*ExplicitOp, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	kk := s.Ni * s.Kr * s.Kc
	nn := s.Ro * s.Co * s.B
	seed := dsl.NewSeed(OpName(Explicit, s))
	seed.ReLU = s.ReLU
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
	o := &ExplicitOp{S: s, seed: seed, space: sp}
	if rows, cols := o.spans(); !rows.Meets() || !cols.Meets() {
		return nil, fmt.Errorf("explicit conv: an im2col row chunk of %v can lie wholly in its pad", s)
	}
	return o, nil
}

// Name identifies the operator instance.
func (o *ExplicitOp) Name() string { return o.seed.Name }

// Seed returns the GEMM-phase schedule seed.
func (o *ExplicitOp) Seed() *dsl.Seed { return o.seed }

// Space returns the schedule space.
func (o *ExplicitOp) Space() *dsl.Space { return o.space }

// Compile assembles the two-phase program for one strategy. The im2col
// phase is the operator's shared prefix: only the GEMM nest is compiled
// per strategy, and the program is read-only.
func (o *ExplicitOp) Compile(st dsl.Strategy) (*ir.Program, error) {
	s := o.S
	plan, err := lower.NewPlan(o.seed, st)
	if err != nil {
		return nil, err
	}
	nest := plan.BuildNest()

	kk := s.Ni * s.Kr * s.Kc
	nn := s.Ro * s.Co * s.B
	prog := &ir.Program{Name: o.Name(), Tensors: []ir.TensorDecl{
		{Name: "in", Dims: []int{s.Ni, s.Ri(), s.Ci(), s.B}},
		{Name: "weight2d", Dims: []int{s.No, kk}, Layout: plan.Layout("weight2d")},
		{Name: "col", Dims: []int{kk, nn}, Scratch: true, Layout: plan.Layout("col")},
		{Name: "out2d", Dims: []int{s.No, nn}, Output: true, Layout: plan.Layout("out2d")},
	}}
	if prog.Body, err = o.im2col.Join(st, o.im2colPhase, nest); err != nil {
		return nil, err
	}
	return prog, nil
}

// rowChunk is the im2col phase's chunk of output rows: as many as a
// 128 K-float buffer holds. A padded shape's chunks are at least Pad+1 rows,
// the last one too, so that every chunk's input rows meet the input.
func (o *ExplicitOp) rowChunk() int {
	s := o.S
	ch := min(max(128*1024/(s.Co*s.B), 1), s.Ro)
	if s.Pad > 0 {
		ch = min(max(ch, s.Pad+1), s.Ro)
		for ch < s.Ro && s.Ro%ch != 0 && s.Ro%ch <= s.Pad {
			ch++
		}
	}
	return ch
}

// spans are what the im2col phase's input gets cover of the input's rows
// and columns over all (kr, kc) and row chunks.
func (o *ExplicitOp) spans() (rows, cols lower.Span) {
	s, ch := o.S, o.rowChunk()
	last := s.Ro - (s.Ro-1)/ch*ch
	rows = lower.Span{Dim: s.Ri(), Frame: ch, Halo: s.Pad, Reach: s.Ro + s.Kr - 1, MinExtent: min(ch, last)}
	cols = lower.Span{Dim: s.Ci(), Frame: s.Co, Halo: s.Pad, Reach: s.Co + s.Kc - 1, MinExtent: s.Co}
	return rows, cols
}

// im2colPhase is phase one: for every (ni, kr, kc) and a chunk of output
// rows, one Get from the input and one Put into the column matrix — the
// shifted-window copy that defines im2col. A padded shape's get clips its
// rows and columns to the input, into the chunk through its frame strides,
// after zero-filling the chunk where the clip applies.
func (o *ExplicitOp) im2colPhase() []ir.Stmt {
	s := o.S
	chunk, nchunks, r0, rowExt := chunks("rch", o.rowChunk(), s.Ro)
	bufElems := chunk * s.Co * s.B
	get := &ir.RegionMove{
		Tensor: "in", Dir: ir.Get,
		Start:  []ir.Expr{ir.V("cni"), ir.Add(r0, ir.V("ckr")), ir.V("ckc"), ir.Const(0)},
		Extent: []ir.Expr{ir.Const(1), rowExt, ir.Const(int64(s.Co)), ir.Const(int64(s.B))},
		Buf:    "spm_im2col", BufOff: ir.Const(0),
	}
	loop := []ir.Stmt{get}
	if s.Pad > 0 {
		rows, cols := o.spans()
		rc := rows.Clip(get.Start[1], rowExt)
		cc := cols.Clip(get.Start[2], get.Extent[2])
		get.Start[1], get.Extent[1], get.Start[2], get.Extent[2] = rc.Start, rc.Extent, cc.Start, cc.Extent
		get.BufOff = ir.Add(ir.Mul(rc.Off, ir.Const(int64(s.Co*s.B))), ir.Mul(cc.Off, ir.Const(int64(s.B))))
		get.FrameStride = []ir.Expr{ir.Const(int64(bufElems)), ir.Const(int64(s.Co * s.B)), ir.Const(int64(s.B)), ir.Const(1)}
		zero := &ir.Transform{Kind: ir.ZeroFill, Dst: "spm_im2col", SrcOff: ir.Const(0), DstOff: ir.Const(0),
			Args: []ir.Expr{ir.Const(int64(bufElems))}}
		cond := lower.Clipped([]ir.Expr{rowExt, ir.Const(int64(s.Co))}, []lower.Clip{rc, cc})
		loop = []ir.Stmt{&ir.If{Cond: cond, Then: []ir.Stmt{zero}}, get}
	}
	colRow := ir.Add(ir.Mul(ir.Add(ir.Mul(ir.V("cni"), ir.Const(int64(s.Kr))), ir.V("ckr")), ir.Const(int64(s.Kc))), ir.V("ckc"))
	put := &ir.RegionMove{
		Tensor: "col", Dir: ir.Put,
		Start:  []ir.Expr{colRow, ir.Mul(r0, ir.Const(int64(s.Co*s.B)))},
		Extent: []ir.Expr{ir.Const(1), ir.Mul(rowExt, ir.Const(int64(s.Co*s.B)))},
		Buf:    "spm_im2col", BufOff: ir.Const(0),
	}
	return []ir.Stmt{
		&ir.Comment{Text: "phase 1: im2col materialization"},
		&ir.AllocSPM{Buf: "spm_im2col", Elems: ir.Const(int64(bufElems))},
		&ir.For{Iter: "cni", Extent: ir.Const(int64(s.Ni)), Body: []ir.Stmt{
			&ir.For{Iter: "ckr", Extent: ir.Const(int64(s.Kr)), Body: []ir.Stmt{
				&ir.For{Iter: "ckc", Extent: ir.Const(int64(s.Kc)), Body: []ir.Stmt{
					&ir.For{Iter: "rch", Extent: ir.Const(int64(nchunks)), Body: append(loop, put)},
				}},
			}},
		}},
		&ir.FreeSPM{Buf: "spm_im2col"},
		&ir.Comment{Text: "phase 2: tiled GEMM"},
	}
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
