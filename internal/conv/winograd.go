package conv

import (
	"fmt"
	"slices"

	"swatop/internal/core"
	"swatop/internal/dsl"
	"swatop/internal/ir"
	"swatop/internal/lower"
	"swatop/internal/primitives"
	"swatop/internal/tensor"
)

// WinogradOp is the Winograd F(2×2,3×3) convolution (Fig. 2 middle): the
// filters and 4×4 input tiles are transformed into the Winograd domain, the
// 16 element-wise product planes become 16 batched GEMMs
//
//	M[xi][No × P] = U[xi][No × Ni] × V[xi][Ni × P],   P = (Ro/2)(Co/2)B
//
// and the result planes are inverse-transformed into 2×2 output tiles. The
// method applies to 3×3 stride-1 kernels with even output extents. U
// depends on the weights alone: the default, packed form starts at phase I
// and reads U transformed once per weight (WinogradFilters).
type WinogradOp struct {
	S     Shape
	seed  *dsl.Seed
	space *dsl.Space
	// TransformChunkCap caps the channels-per-DMA chunking of the
	// transform phases (0 = automatic SPM-budget sizing). The manual
	// baseline sets 1, modelling an unfused implementation that moves one
	// channel slab per transfer. Set it before the first Compile: the
	// transform phases are compiled once, at the cap in force then.
	TransformChunkCap int
	// PerCall keeps phase F, the filter transform, in the program: the form
	// that times one call. It files under its own library name. Set it
	// before the first Compile, like TransformChunkCap.
	PerCall     bool
	perCallName string      // the per-call form's library name
	transforms  core.Prefix // phase I, after phase F in the per-call form
}

// WinogradApplies reports whether the method handles a shape.
func WinogradApplies(s Shape) bool {
	return s.Kr == 3 && s.Kc == 3 && s.Ro%2 == 0 && s.Co%2 == 0
}

// NewWinogradOp builds the operator and its schedule space.
func NewWinogradOp(s Shape) (*WinogradOp, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !WinogradApplies(s) {
		return nil, fmt.Errorf("winograd conv: needs 3×3 kernel and even output extents, got %v", s)
	}
	p := (s.Ro / 2) * (s.Co / 2) * s.B
	seed := dsl.NewSeed(OpName(Winograd, s))
	seed.AddAxis("xi", primitives.WinoPlanes, dsl.RoleSpatial)
	seed.AddAxis("no", s.No, dsl.RoleM)
	seed.AddAxis("p", p, dsl.RoleN)
	seed.AddAxis("ni", s.Ni, dsl.RoleK)
	seed.AddTensor("U", []int{primitives.WinoPlanes, s.No, s.Ni}, dsl.OperandA,
		dsl.Dim("xi"), dsl.Dim("no"), dsl.Dim("ni"))
	seed.AddTensor("V", []int{primitives.WinoPlanes, s.Ni, p}, dsl.OperandB,
		dsl.Dim("xi"), dsl.Dim("ni"), dsl.Dim("p"))
	seed.AddTensor("M", []int{primitives.WinoPlanes, s.No, p}, dsl.OperandC,
		dsl.Dim("xi"), dsl.Dim("no"), dsl.Dim("p"))

	sp := dsl.NewSpace()
	sp.Factors["no"] = dsl.TileMenu(s.No, []int{32, 64, 128})
	sp.Factors["ni"] = dsl.TileMenu(s.Ni, []int{32, 64, 128})
	sp.Factors["p"] = dsl.TileMenu(p, []int{256, 512, 1024})
	sp.Reorder("xi", "no", "p", "ni")
	sp.Reorder("xi", "p", "no", "ni")
	sp.Layout("U", 0, 1, 2)
	sp.Layout("U", 0, 2, 1)
	sp.Layout("V", 0, 1, 2)
	sp.Layout("M", 0, 1, 2)
	sp.Layout("M", 0, 2, 1)
	return &WinogradOp{S: s, seed: seed, space: sp, perCallName: opName(Winograd, s)}, nil
}

// Name identifies the operator instance: OpName(Winograd, S) for the
// packed form, the per-call form's own name otherwise.
func (o *WinogradOp) Name() string {
	if o.PerCall {
		return o.perCallName
	}
	return o.seed.Name
}

// Seed returns the GEMM-phase schedule seed.
func (o *WinogradOp) Seed() *dsl.Seed { return o.seed }

// Space returns the schedule space.
func (o *WinogradOp) Space() *dsl.Space { return o.space }

func (o *WinogradOp) capChunk(ch int) int {
	if o.TransformChunkCap > 0 && ch > o.TransformChunkCap {
		return o.TransformChunkCap
	}
	return ch
}

// Compile assembles and optimizes the program for one strategy: phases I,
// G and O, after phase F in the per-call form. The transform phases are
// the operator's shared prefix: only phases G and O are compiled per
// strategy, and the program is read-only.
func (o *WinogradOp) Compile(st dsl.Strategy) (*ir.Program, error) {
	prog, err := o.gemmAndOutput(st)
	if err != nil {
		return nil, err
	}
	if prog.Body, err = o.transforms.Join(st, o.transformPhases, prog.Body); err != nil {
		return nil, err
	}
	return prog, nil
}

// CompileRaw assembles the program without running the IR optimizer —
// baseline builders mutate the raw structure first. Nothing in it is
// shared.
func (o *WinogradOp) CompileRaw(st dsl.Strategy) (*ir.Program, error) {
	prog, err := o.gemmAndOutput(st)
	if err != nil {
		return nil, err
	}
	prog.Body = append(o.transformPhases(), prog.Body...)
	return prog, nil
}

// WinogradFilters writes U = G·g·Gᵀ of every 3×3 filter of weight
// (No, Ni, 3, 3) into u (16, No, Ni), in u's layout: phase F done once on
// the host, with the kernel phase F calls, for packed programs to read.
func WinogradFilters(weight, u *tensor.Tensor) error {
	if weight == nil || len(u.Dims) != 3 || !slices.Equal(weight.Dims, []int{u.Dims[1], u.Dims[2], 3, 3}) {
		return fmt.Errorf("winograd filters: weight %v does not transform into U %v", weight, u.Dims)
	}
	ni, cnt := u.Dims[2], u.Dims[1]*u.Dims[2]
	src, dst := make([]float32, 9*cnt), make([]float32, u.Len())
	for f := range src {
		src[f] = weight.At(f/(9*ni), f/9%ni, f%9/3, f%3)
	}
	if err := primitives.WinoFilterTransform(src, dst, cnt); err != nil {
		return err
	}
	for x, v := range dst {
		u.Set(v, x/cnt, x%cnt/ni, x%ni)
	}
	return nil
}

// Phase chunk sizes: pick the largest channel chunk whose SPM buffers
// (double-buffered by the prefetch pass) stay within ~40 KB per CPE.
// CG-level element budget = 40 KB/CPE × 64 CPE ÷ 4 B ÷ 2 (double
// buffering) = 320 K floats.
const phaseBudgetElems = 320 * 1024

// transformPhases builds phase I, after phase F in the per-call form: the
// phases no strategy decision reaches.
func (o *WinogradOp) transformPhases() []ir.Stmt {
	s := o.S
	tilesR, tilesC := s.Ro/2, s.Co/2
	cnt := tilesC * s.B // transformed values per (row of tiles)
	planes := primitives.WinoPlanes
	body := make([]ir.Stmt, 0, 14)

	// Phase F (per-call form): filter transform — 9 source + 16
	// destination floats per (no, ni) filter.
	if o.PerCall {
		chF, nF, f0, fExt := chunks("wch", o.capChunk(phaseBudgetElems/(s.Ni*25)), s.No)
		cntF := ir.Mul(fExt, ir.Const(int64(s.Ni)))
		body = append(body,
			&ir.Comment{Text: "phase F: filter transform U = G·g·Gᵀ"},
			&ir.AllocSPM{Buf: "spm_wf", Elems: ir.Const(int64(chF * s.Ni * 9))},
			&ir.AllocSPM{Buf: "spm_uf", Elems: ir.Const(int64(chF * s.Ni * planes))},
			&ir.For{Iter: "wch", Extent: ir.Const(int64(nF)), Body: []ir.Stmt{
				&ir.RegionMove{Tensor: "weight", Dir: ir.Get,
					Start:  []ir.Expr{f0, ir.Const(0), ir.Const(0), ir.Const(0)},
					Extent: []ir.Expr{fExt, ir.Const(int64(s.Ni)), ir.Const(3), ir.Const(3)},
					Buf:    "spm_wf", BufOff: ir.Const(0)},
				&ir.Transform{Kind: ir.WinoFilterTile, Src: "spm_wf", Dst: "spm_uf",
					SrcOff: ir.Const(0), DstOff: ir.Const(0), Args: []ir.Expr{cntF}},
				&ir.RegionMove{Tensor: "U", Dir: ir.Put,
					Start:  []ir.Expr{ir.Const(0), f0, ir.Const(0)},
					Extent: []ir.Expr{ir.Const(int64(planes)), fExt, ir.Const(int64(s.Ni))},
					Buf:    "spm_uf", BufOff: ir.Const(0),
					FrameStride: []ir.Expr{cntF, ir.Const(int64(s.Ni)), ir.Const(1)}},
			}},
			&ir.FreeSPM{Buf: "spm_wf"},
			&ir.FreeSPM{Buf: "spm_uf"},
		)
	}

	// Phase I: input transform. Channels are chunked so one DMA moves
	// several 4-row slabs (amortizing start-up latency); one transform
	// call produces the GEMM-ready planes for the whole chunk.
	slabElems := 4 * s.Ci() * s.B
	chI, nI, i0, iExt := chunks("ich", o.capChunk(phaseBudgetElems/(slabElems+planes*cnt)), s.Ni)
	body = append(body,
		&ir.Comment{Text: "phase I: input transform V = Bᵀ·d·B"},
		&ir.AllocSPM{Buf: "spm_slab", Elems: ir.Const(int64(chI * slabElems))},
		&ir.AllocSPM{Buf: "spm_v", Elems: ir.Const(int64(planes * chI * cnt))},
		&ir.For{Iter: "ich", Extent: ir.Const(int64(nI)), Body: []ir.Stmt{
			&ir.For{Iter: "itr", Extent: ir.Const(int64(tilesR)), Body: []ir.Stmt{
				&ir.RegionMove{Tensor: "in", Dir: ir.Get,
					Start:  []ir.Expr{i0, ir.Mul(ir.V("itr"), ir.Const(2)), ir.Const(0), ir.Const(0)},
					Extent: []ir.Expr{iExt, ir.Const(4), ir.Const(int64(s.Ci())), ir.Const(int64(s.B))},
					Buf:    "spm_slab", BufOff: ir.Const(0)},
				&ir.Transform{Kind: ir.WinoInputSlab, Src: "spm_slab", Dst: "spm_v",
					SrcOff: ir.Const(0), DstOff: ir.Const(0),
					Args: []ir.Expr{iExt, ir.Const(int64(tilesC)), ir.Const(int64(s.Ci())), ir.Const(int64(s.B))}},
				&ir.RegionMove{Tensor: "V", Dir: ir.Put,
					Start:  []ir.Expr{ir.Const(0), i0, ir.Mul(ir.V("itr"), ir.Const(int64(cnt)))},
					Extent: []ir.Expr{ir.Const(int64(planes)), iExt, ir.Const(int64(cnt))},
					Buf:    "spm_v", BufOff: ir.Const(0),
					FrameStride: []ir.Expr{ir.Mul(iExt, ir.Const(int64(cnt))), ir.Const(int64(cnt)), ir.Const(1)}},
			}},
		}},
		&ir.FreeSPM{Buf: "spm_slab"},
		&ir.FreeSPM{Buf: "spm_v"},
	)

	return body
}

// gemmAndOutput declares the program's tensors and builds its body from
// phase G, the strategy's nest of 16 batched GEMMs, on: phase O's reply
// words follow G's.
func (o *WinogradOp) gemmAndOutput(st dsl.Strategy) (*ir.Program, error) {
	s := o.S
	plan, err := lower.NewPlan(o.seed, st)
	if err != nil {
		return nil, err
	}
	nest := plan.BuildNest()
	tilesR, tilesC := s.Ro/2, s.Co/2
	p := tilesR * tilesC * s.B
	cnt := tilesC * s.B
	planes := primitives.WinoPlanes
	prog := &ir.Program{Name: o.Name(), Tensors: []ir.TensorDecl{
		{Name: "in", Dims: []int{s.Ni, s.Ri(), s.Ci(), s.B}},
		{Name: "weight", Dims: []int{s.No, s.Ni, s.Kr, s.Kc}},
		{Name: "out", Dims: []int{s.No, s.Ro, s.Co, s.B}, Output: true},
		{Name: "U", Dims: []int{planes, s.No, s.Ni}, Scratch: o.PerCall, Layout: plan.Layout("U")},
		{Name: "V", Dims: []int{planes, s.Ni, p}, Scratch: true, Layout: plan.Layout("V")},
		{Name: "M", Dims: []int{planes, s.No, p}, Scratch: true, Layout: plan.Layout("M")},
	}}
	body := make([]ir.Stmt, 0, 1+len(nest)+6)
	body = append(body, &ir.Comment{Text: "phase G: 16 batched GEMMs M[xi] = U[xi]·V[xi]"})
	body = append(body, nest...)

	// Phase O: inverse transform, output channels chunked like phase I.
	outSlab := 2 * s.Co * s.B
	chO, nO, o0, oExt := chunks("och", o.capChunk(phaseBudgetElems/(outSlab+planes*cnt)), s.No)
	body = append(body,
		&ir.Comment{Text: "phase O: output transform Y = Aᵀ·m·A"},
		&ir.AllocSPM{Buf: "spm_m", Elems: ir.Const(int64(planes * chO * cnt))},
		&ir.AllocSPM{Buf: "spm_y", Elems: ir.Const(int64(chO * outSlab))},
		&ir.For{Iter: "och", Extent: ir.Const(int64(nO)), Body: []ir.Stmt{
			&ir.For{Iter: "otr", Extent: ir.Const(int64(tilesR)), Body: []ir.Stmt{
				&ir.RegionMove{Tensor: "M", Dir: ir.Get,
					Start:  []ir.Expr{ir.Const(0), o0, ir.Mul(ir.V("otr"), ir.Const(int64(cnt)))},
					Extent: []ir.Expr{ir.Const(int64(planes)), oExt, ir.Const(int64(cnt))},
					Buf:    "spm_m", BufOff: ir.Const(0),
					FrameStride: []ir.Expr{ir.Mul(oExt, ir.Const(int64(cnt))), ir.Const(int64(cnt)), ir.Const(1)}},
				&ir.Transform{Kind: ir.WinoOutputSlab, Src: "spm_m", Dst: "spm_y",
					SrcOff: ir.Const(0), DstOff: ir.Const(0),
					Args: []ir.Expr{oExt, ir.Const(int64(tilesC)), ir.Const(int64(s.B))}},
				&ir.RegionMove{Tensor: "out", Dir: ir.Put,
					Start:  []ir.Expr{o0, ir.Mul(ir.V("otr"), ir.Const(2)), ir.Const(0), ir.Const(0)},
					Extent: []ir.Expr{oExt, ir.Const(2), ir.Const(int64(s.Co)), ir.Const(int64(s.B))},
					Buf:    "spm_y", BufOff: ir.Const(0)},
			}},
		}},
		&ir.FreeSPM{Buf: "spm_m"},
		&ir.FreeSPM{Buf: "spm_y"},
	)
	prog.Body = body
	return prog, nil
}
