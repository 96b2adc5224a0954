package conv

import (
	"fmt"
	"slices"
	"sync"

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
// depends on the weights alone: the default, packed form reads U
// transformed once per weight (WinogradFilters) and is one fused nest in
// which V and M never leave SPM (fused); the per-call form keeps the
// paper's four phases through main memory.
type WinogradOp struct {
	S     Shape
	seed  *dsl.Seed
	space *dsl.Space // the per-call form's
	fused *dsl.Space // the packed form's
	// TransformChunkCap caps the channels-per-DMA chunking of the
	// transform phases (0 = automatic SPM-budget sizing). The manual
	// baseline sets 1, modelling an unfused implementation that moves one
	// channel slab per transfer. Set it before the first Compile: the
	// transform phases are compiled once, at the cap in force then.
	TransformChunkCap int
	// PerCall selects the per-call form: phases F, I, G and O, the form that
	// times one call. It files under its own library name and has its own
	// space. Set it before the first Compile, like TransformChunkCap.
	PerCall     bool
	perCallName string      // the per-call form's library name
	transforms  core.Prefix // the per-call form's phases F and I
	// region is the packed form's SPM region, in floats: what its largest
	// point needs, at most regionElems. A small shape's kernels so ask a
	// machine for a small store rather than the whole cap.
	region int
	// halo holds a padded shape's clipped slab gets of the first four p
	// tiles that compile, made on first use and shared by every program:
	// expressions are immutable. A later tile's are made afresh. It is no
	// map, so that building an operator to compile one strategy, as a warm
	// network run does, costs none.
	haloMu sync.Mutex
	halo   [4]*slabHalo
}

// slabHalo is how the packed form's slab get reads a padded input for one p
// tile fp: its rows and columns clipped to the input (lower.Span), the
// frame offset they land at, and the condition under which the frame must
// be zero-filled first.
type slabHalo struct {
	fp         int
	rows, cols lower.Clip
	off        ir.Expr
	zero       ir.Cond
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

	// The packed form tiles P in whole rows of 2×2 tiles, and V and M keep
	// the planes' layout that the slab kernels write and read. Where one
	// row of tiles at 32 channels overflows the SPM region (high resolution
	// at large batches), a p tile may be a strip of one row instead: a half,
	// a quarter or an eighth of the row's tiles, where that divides them,
	// times B images, keeping the GEMMs' reduction (ni) tile at 32 channels.
	// A shape of at most 8 input channels reads them whole in any tile; it,
	// and a row no strip divides, takes 8-channel tiles instead, whose whole
	// rows' longer transfers run faster (VGG16's conv1_1, which overflows
	// only at batch 8: 5.14 ms, its best strip 5.51 ms).
	o := &WinogradOp{S: s, seed: seed, space: sp, perCallName: opName(Winograd, s)}
	tilesC := s.Co / 2
	cnt := tilesC * s.B
	chans := []int{32, 64, 128}
	fused := dsl.NewSpace()
	if u, slab, vm, y := o.frames(min(32, s.No), min(32, s.Ni), cnt); 2*(u+slab+y)+vm > regionElems {
		for _, k := range [...]int{8, 4, 2} {
			if s.Ni > 8 && tilesC%k == 0 {
				fused.Factors["p"] = append(fused.Factors["p"], tilesC/k*s.B)
			}
		}
		if len(fused.Factors["p"]) == 0 {
			chans = []int{8, 32, 64, 128}
		}
	}
	fused.Factors["no"] = dsl.TileMenu(s.No, chans)
	fused.Factors["ni"] = dsl.TileMenu(s.Ni, chans)
	for _, rows := range dsl.TileMenu(s.Ro/2, []int{1, 2, 4, 8}) {
		fused.Factors["p"] = append(fused.Factors["p"], rows*cnt)
	}
	fused.Reorder("no", "p", "ni")
	fused.Reorder("p", "no", "ni")
	fused.Layouts["U"] = sp.Layouts["U"]
	o.fused = fused
	// The frames grow with every tile, so the largest point has the largest
	// tiles.
	u, slab, vm, y := o.frames(slices.Max(fused.Factors["no"]), slices.Max(fused.Factors["ni"]), slices.Max(fused.Factors["p"]))
	o.region = min(2*(u+slab+y)+vm, regionElems)
	return o, nil
}

// pTile decodes a p tile of the packed form: rows rows of 2×2 tiles, each
// of the shape's tilesC columns, when fp is whole rows; one row of cols
// columns when it is a strip (cols·B, cols dividing tilesC). ok is false
// for a tile that is neither.
func (o *WinogradOp) pTile(fp int) (rows, cols int, ok bool) {
	tilesC, b := o.S.Co/2, o.S.B
	switch {
	case fp <= 0:
	case fp%(tilesC*b) == 0:
		return fp / (tilesC * b), tilesC, true
	case fp < tilesC*b && fp%b == 0 && tilesC%(fp/b) == 0:
		return 1, fp / b, true
	}
	return 0, 0, false
}

// frames are the SPM frames of the fused nest at no and ni tiles fno and
// fni and a p tile fp (whole rows or a strip, pTile), in floats,
// single-buffered: the 16 planes' U tile, the input slab (2·rows + 2 rows
// of 2·cols + 2 columns), the 16 planes' V and M tiles, and the output
// slab (2·rows rows of 2·cols columns).
func (o *WinogradOp) frames(fno, fni, fp int) (u, slab, vm, y int) {
	s, planes := o.S, primitives.WinoPlanes
	rows, cols, _ := o.pTile(fp)
	return planes * fno * fni, fni * (2*rows + 2) * (2*cols + 2) * s.B, planes * (fni + fno) * fp, fno * 2 * rows * 2 * cols * s.B
}

// slabHalo returns how the slab get in of a p tile fp (pTile; nR tiles of
// rows down the image) reads a padded input through its halo, or nil for
// an unpadded shape: the first and last rows of tiles clip a row, the first
// and last strips of a row a column, and a tile of whole rows a column on
// either side.
func (o *WinogradOp) slabHalo(fp, nR int, in *ir.RegionMove) *slabHalo {
	if o.S.Pad == 0 {
		return nil
	}
	o.haloMu.Lock()
	defer o.haloMu.Unlock()
	for i, h := range o.halo {
		if h == nil {
			o.halo[i] = o.clipSlab(fp, nR, in)
			return o.halo[i]
		}
		if h.fp == fp {
			return h
		}
	}
	return o.clipSlab(fp, nR, in)
}

func (o *WinogradOp) clipSlab(fp, nR int, in *ir.RegionMove) *slabHalo {
	s := o.S
	rows, cols, _ := o.pTile(fp)
	w := 2*cols + 2
	rowSpan := lower.Span{Dim: s.Ri(), Frame: 2*rows + 2, Halo: s.Pad, Reach: s.Ro + 2, MinExtent: 2*(s.Ro/2-(nR-1)*rows) + 2}
	colSpan := lower.Span{Dim: s.Ci(), Frame: w, Halo: s.Pad, Reach: s.Co + 2, MinExtent: w}
	h := &slabHalo{fp: fp, rows: rowSpan.Clip(in.Start[1], in.Extent[1]), cols: colSpan.Clip(in.Start[2], in.Extent[2])}
	h.off = ir.Add(ir.Mul(h.rows.Off, in.FrameStride[1]), ir.Mul(h.cols.Off, in.FrameStride[2]))
	// A tile of whole rows clips the same columns of every slab, which the
	// zero-fill before the nest clears once; a strip clips them at the
	// row's edges only.
	clips := []lower.Clip{h.rows, h.cols}
	if cols == s.Co/2 {
		clips = clips[:1]
	}
	h.zero = lower.Clipped(in.Extent[1:1+len(clips)], clips)
	return h
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

// Space returns the schedule space of the operator's form.
func (o *WinogradOp) Space() *dsl.Space {
	if o.PerCall {
		return o.space
	}
	return o.fused
}

func (o *WinogradOp) capChunk(ch int) int {
	if o.TransformChunkCap > 0 && ch > o.TransformChunkCap {
		return o.TransformChunkCap
	}
	return ch
}

// Compile assembles and optimizes the program for one strategy: the fused
// nest of the packed form, or the per-call form's phases F, I, G and O. The
// per-call form's transform phases are the operator's shared prefix: only
// phases G and O are compiled per strategy, and the program is read-only.
func (o *WinogradOp) Compile(st dsl.Strategy) (*ir.Program, error) {
	if !o.PerCall {
		prog, err := o.fusedNest(st)
		if err == nil {
			prog, err = core.Optimize(prog, st)
		}
		if err != nil {
			return nil, err
		}
		prog.Body = coalesce(prog.Body, o.region)
		return prog, nil
	}
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
	if !o.PerCall {
		return o.fusedNest(st)
	}
	prog, err := o.gemmAndOutput(st)
	if err != nil {
		return nil, err
	}
	prog.Body = append(o.transformPhases(), prog.Body...)
	return prog, nil
}

// fusedNest builds the packed form as one nest, the fused Winograd of Lavin
// and Gray: for each tile of No and of P (rows rows of 2×2 tiles, or a
// strip of one row: pTile), phase I transforms each Ni tile's input slab
// into the 16 planes' V tiles in SPM, the 16 GEMMs accumulate the planes'
// M tiles there, and phase O inverse-transforms them into one output put,
// clamped at zero first when the shape carries the ReLU epilogue. Only in,
// U and out touch main memory. The Ni loop is innermost; each move sits in
// the innermost loop its region depends on. The transforms always cover
// whole frames: on a boundary tile the rows and channels past the region
// hold stale values that no GEMM or put reads.
func (o *WinogradOp) fusedNest(st dsl.Strategy) (*ir.Program, error) {
	s := o.S
	tilesR, tilesC := s.Ro/2, s.Co/2
	cnt := tilesC * s.B
	planes := primitives.WinoPlanes
	fno, fni, fp := max(st.Factors["no"], 1), max(st.Factors["ni"], 1), st.Factors["p"]
	rows, cols, ok := o.pTile(fp)
	if !ok {
		return nil, fmt.Errorf("winograd conv: p tile %d is neither whole rows of %d tiles nor a strip dividing one", fp, cnt)
	}
	for _, t := range [...]string{"V", "M"} {
		if l, ok := st.Layouts[t]; ok && !slices.IsSorted(l) {
			return nil, fmt.Errorf("winograd conv: %s stays in SPM in the planes' layout, not %v", t, l)
		}
	}
	nNo, no0, noExt := tileLoop("cno", fno, s.No)
	nNi, ni0, niExt := tileLoop("cni", fni, s.Ni)
	nR, r0, rExt := tileLoop("cp", rows, tilesR)
	// The p loop over strips walks each row's nS strips in turn: tile cp is
	// strip cp mod nS of row cp / nS, and starts at column c0.
	nP, c0 := nR, ir.Expr(ir.Const(0))
	if nS := tilesC / cols; nS > 1 {
		cp, n := ir.V("cp"), ir.Const(int64(nS))
		nP, r0, c0 = nR*nS, ir.Div(cp, n), ir.Mul(ir.Mod(cp, n), ir.Const(int64(2*cols)))
	}
	uPlane, vPlane, mPlane := fno*fni, fni*fp, fno*fp
	ci, co := 2*cols+2, 2*cols
	slab, ySlab := (2*rows+2)*ci*s.B, 2*rows*co*s.B
	u, slabs, vm, y := o.frames(fno, fni, fp)

	// The loops, outermost first: no and p in the strategy's order, then ni.
	// A dimension one tile covers has none.
	type loop struct {
		iter  string
		trips int
	}
	nest := []loop{{"cno", nNo}, {"cp", nP}, {"cni", nNi}}
	if p := slices.Index(st.Order, "p"); p >= 0 && p < slices.Index(st.Order, "no") {
		nest[0], nest[1] = nest[1], nest[0]
	}
	nest = slices.DeleteFunc(nest, func(l loop) bool { return l.trips == 1 })
	depth := func(iters ...string) int {
		d := 0
		for i, l := range nest {
			if slices.Contains(iters, l.iter) {
				d = i + 1
			}
		}
		return d
	}
	dM, dU, dI := depth("cno", "cp"), depth("cno", "cni"), depth("cp", "cni")

	// The frames must fit the region together, each one a loop moves
	// doubled by the prefetch pass.
	frame := func(elems, d int) int {
		if st.DoubleBuffer && d > 0 {
			return 2 * elems
		}
		return elems
	}
	if frame(u, dU)+frame(slabs, dI)+vm+frame(y, dM) > o.region {
		return nil, fmt.Errorf("winograd conv: fused frames exceed the SPM region (no %d, ni %d, %d rows)", fno, fni, rows)
	}
	plan, err := lower.NewPlan(o.seed, st)
	if err != nil {
		return nil, err
	}

	uStride := make([]ir.Expr, 3)
	uExt := [3]int{planes, fno, fni}
	perm := plan.Layout("U")
	for i, n := 2, 1; i >= 0; i-- {
		uStride[perm[i]] = ir.Const(int64(n))
		n *= uExt[perm[i]]
	}
	xi := ir.V("xi")
	gemm := plan.Gemm()
	planeOff := func(buf string) ir.Expr {
		n := mPlane
		switch buf {
		case "spm_U":
			n = uPlane
		case "spm_V":
			n = vPlane
		}
		return ir.Mul(xi, ir.Const(int64(n)))
	}
	gemm.AOff, gemm.BOff, gemm.COff = planeOff(gemm.A), planeOff(gemm.B), planeOff(gemm.C)

	getU := &ir.RegionMove{Tensor: "U", Dir: ir.Get,
		Start:  []ir.Expr{ir.Const(0), no0, ni0},
		Extent: []ir.Expr{ir.Const(int64(planes)), noExt, niExt},
		Buf:    "spm_U", BufOff: ir.Const(0), FrameStride: uStride}
	getIn := &ir.RegionMove{Tensor: "in", Dir: ir.Get,
		Start:  []ir.Expr{ni0, ir.Mul(r0, ir.Const(2)), c0, ir.Const(0)},
		Extent: []ir.Expr{niExt, ir.Add(ir.Mul(rExt, ir.Const(2)), ir.Const(2)), ir.Const(int64(ci)), ir.Const(int64(s.B))},
		Buf:    "spm_slab", BufOff: ir.Const(0),
		FrameStride: []ir.Expr{ir.Const(int64(slab)), ir.Const(int64(ci * s.B)), ir.Const(int64(s.B)), ir.Const(1)}}
	// A padded shape's slabs read the input through its halo: the first and
	// last rows of tiles clip a row, zero-filled first. A slab of whole rows
	// clips a column on either side, which no get writes and one zero-fill
	// of the whole frame before the nest clears; a strip clips one at the
	// row's edges, zero-filled first like a row.
	var zeros *slabZeros
	slabsE := ir.Const(int64(slabs))
	if h := o.slabHalo(fp, nR, getIn); h != nil {
		getIn.Start[1], getIn.Extent[1], getIn.Start[2], getIn.Extent[2] = h.rows.Start, h.rows.Extent, h.cols.Start, h.cols.Extent
		getIn.BufOff = h.off
		zeros = &slabZeros{args: [2]ir.Expr{slabsE, slabsE}}
		if f := frame(slabs, dI); f != slabs {
			zeros.args[1] = ir.Const(int64(f))
		}
		for i := range zeros.fill {
			zeros.fill[i] = ir.Transform{Kind: ir.ZeroFill, Dst: "spm_slab", SrcOff: ir.Const(0), DstOff: ir.Const(0), Args: zeros.args[i : i+1 : i+1]}
		}
		zeros.then[0] = &zeros.fill[0]
		zeros.guard = ir.If{Cond: h.zero, Then: zeros.then[:]}
	}
	phaseI := &ir.Transform{Kind: ir.WinoInputSlab, Src: "spm_slab", Dst: "spm_V",
		SrcOff: ir.Const(0), DstOff: ir.Const(0),
		Args: []ir.Expr{ir.Const(int64(fni)), ir.Const(int64(cols)), ir.Const(int64(ci)), ir.Const(int64(s.B)), ir.Const(int64(rows))}}
	zeroM := &ir.Transform{Kind: ir.ZeroFill, Dst: "spm_M", SrcOff: ir.Const(0), DstOff: ir.Const(0),
		Args: []ir.Expr{ir.Const(int64(planes * mPlane))}}
	phaseO := &ir.Transform{Kind: ir.WinoOutputSlab, Src: "spm_M", Dst: "spm_y",
		SrcOff: ir.Const(0), DstOff: ir.Const(0),
		Args: []ir.Expr{ir.Const(int64(fno)), ir.Const(int64(cols)), ir.Const(int64(s.B)), ir.Const(int64(rows))}}
	relu := &ir.Transform{Kind: ir.ReLU, Dst: "spm_y", SrcOff: ir.Const(0), DstOff: ir.Const(0),
		Args: []ir.Expr{ir.Const(int64(y))}}
	putOut := &ir.RegionMove{Tensor: "out", Dir: ir.Put,
		Start:  []ir.Expr{no0, ir.Mul(r0, ir.Const(2)), c0, ir.Const(0)},
		Extent: []ir.Expr{noExt, ir.Mul(rExt, ir.Const(2)), ir.Const(int64(co)), ir.Const(int64(s.B))},
		Buf:    "spm_y", BufOff: ir.Const(0),
		FrameStride: []ir.Expr{ir.Const(int64(ySlab)), ir.Const(int64(co * s.B)), ir.Const(int64(s.B)), ir.Const(1)}}

	// Build from the innermost level outwards: the 16 planes' GEMMs, then
	// each level's moves and transforms around the level below.
	var body []ir.Stmt
	inner := ir.Stmt(&ir.For{Iter: "xi", Extent: ir.Const(int64(planes)), Body: []ir.Stmt{&gemm}})
	for d := len(nest); d >= 0; d-- {
		body = make([]ir.Stmt, 0, 8)
		if d == dM {
			body = append(body, zeroM)
		}
		if d == dU {
			body = append(body, getU)
		}
		if d == dI {
			if zeros != nil {
				body = append(body, &zeros.guard)
			}
			body = append(body, getIn, phaseI)
		}
		body = append(body, inner)
		if d == dM {
			body = append(body, phaseO)
			if s.ReLU {
				body = append(body, relu)
			}
			body = append(body, putOut)
		}
		if d > 0 {
			inner = &ir.For{Iter: nest[d-1].iter, Extent: ir.Const(int64(nest[d-1].trips)), Body: body}
		}
	}
	bufs := [...]struct {
		name  string
		elems ir.Expr
	}{{"spm_U", ir.Const(int64(u))}, {"spm_slab", slabsE}, {"spm_V", ir.Const(int64(planes * vPlane))},
		{"spm_M", ir.Const(int64(planes * mPlane))}, {"spm_y", ir.Const(int64(y))}}
	prog := &ir.Program{Name: o.Name(), Tensors: []ir.TensorDecl{
		{Name: "in", Dims: []int{s.Ni, s.Ri(), s.Ci(), s.B}},
		{Name: "weight", Dims: []int{s.No, s.Ni, s.Kr, s.Kc}},
		{Name: "out", Dims: []int{s.No, s.Ro, s.Co, s.B}, Output: true},
		{Name: "U", Dims: []int{planes, s.No, s.Ni}, Layout: perm},
	}}
	prog.Body = make([]ir.Stmt, 0, 2*len(bufs)+len(body)+2)
	prog.Body = append(prog.Body, &ir.Comment{Text: "fused Winograd: V and M stay in SPM; strategy: ", Note: st})
	for _, b := range bufs {
		prog.Body = append(prog.Body, &ir.AllocSPM{Buf: b.name, Elems: b.elems})
	}
	if zeros != nil {
		prog.Body = append(prog.Body, &zeros.fill[1])
	}
	prog.Body = append(prog.Body, body...)
	for _, b := range bufs {
		prog.Body = append(prog.Body, &ir.FreeSPM{Buf: b.name})
	}
	return prog, nil
}

// slabZeros are a padded program's zero-fills of its slab frame, in one
// allocation: the guarded one before a get whose rows clip, and the one of
// the whole (doubled) frame before the nest.
type slabZeros struct {
	guard ir.If
	then  [1]ir.Stmt
	fill  [2]ir.Transform
	args  [2]ir.Expr
}

// The region is the one SPM buffer of an optimized fused program: at most
// the 40 KB per CPE that the per-call form's transform phases take,
// double-buffered, so that a fused kernel holds no more SPM than they do.
const (
	region      = "spm"
	regionElems = 2 * phaseBudgetElems
)

// coalesce places the frames of an optimized fused program at fixed offsets
// of one region of elems floats (§4.7's coalesced allocation): each frame's
// allocation goes, and each reference to it becomes the region at the
// frame's base. Every program of an operator, and of every operator whose
// space reaches the cap, so asks a machine for the same store, which one
// kernel after another reuses.
func coalesce(body []ir.Stmt, elems int) []ir.Stmt {
	base := map[string]ir.Expr{}
	out := make([]ir.Stmt, 1, len(body))
	end := int64(0)
	for _, s := range body {
		switch x := s.(type) {
		case *ir.AllocSPM:
			base[x.Buf] = ir.Const(end)
			n, _ := ir.IsConst(x.Elems)
			end += n
		case *ir.FreeSPM:
		default:
			out = append(out, s)
		}
	}
	out[0] = &ir.AllocSPM{Buf: region, Elems: ir.Const(int64(elems))}
	at := func(buf *string, off *ir.Expr) {
		if b, ok := base[*buf]; ok {
			*buf, *off = region, ir.Add(*off, b)
		}
	}
	ir.Walk(out, func(s ir.Stmt) bool {
		switch x := s.(type) {
		case *ir.Gemm:
			at(&x.A, &x.AOff)
			at(&x.B, &x.BOff)
			at(&x.C, &x.COff)
		case *ir.Transform:
			at(&x.Src, &x.SrcOff)
			at(&x.Dst, &x.DstOff)
		case *ir.DMAOp:
			at(&x.Move.Buf, &x.Move.BufOff)
		}
		return true
	})
	return append(out, &ir.FreeSPM{Buf: region})
}

// tileLoop is a loop of the fused nest over total elements in tiles of f:
// its trip count and, for iteration variable iter, the tile's start and
// extent. A dimension one tile covers has no loop and starts at zero.
func tileLoop(iter string, f, total int) (int, ir.Expr, ir.Expr) {
	_, trips, start, ext := chunks(iter, f, total)
	if trips == 1 {
		start = ir.Const(0)
	}
	return trips, start, ext
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

// transformPhases builds the per-call form's phases F and I: the phases no
// strategy decision reaches.
func (o *WinogradOp) transformPhases() []ir.Stmt {
	s := o.S
	tilesR, tilesC := s.Ro/2, s.Co/2
	cnt := tilesC * s.B // transformed values per (row of tiles)
	planes := primitives.WinoPlanes
	body := make([]ir.Stmt, 0, 14)

	// Phase F: filter transform — 9 source + 16 destination floats per
	// (no, ni) filter.
	{
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

// gemmAndOutput declares the per-call program's tensors and builds its body
// from phase G, the strategy's nest of 16 batched GEMMs, on: phase O's
// reply words follow G's.
func (o *WinogradOp) gemmAndOutput(st dsl.Strategy) (*ir.Program, error) {
	s := o.S
	if s.ReLU || s.Pad > 0 {
		return nil, fmt.Errorf("winograd conv: the per-call form has no ReLU epilogue and no halo (%v)", s)
	}
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
		{Name: "U", Dims: []int{planes, s.No, s.Ni}, Scratch: true, Layout: plan.Layout("U")},
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
