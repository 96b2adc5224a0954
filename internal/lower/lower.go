// Package lower turns a DSL schedule seed plus one schedule strategy into
// IR (§4.3's transformations made concrete):
//
//   - Loop transformation: every axis is split by its tile factor into an
//     outer loop and an in-tile extent (split); the outer loops nest in the
//     strategy's order (reorder); axes with GEMM roles and factor > 1 fuse
//     their tiles into the composite GEMM dimensions (fusion — "merging
//     loops into GEMM primitives").
//   - Layout transformation: each tensor carries a storage permutation that
//     determines both the DMA access pattern and the SPM matrix
//     interpretation (transposition flags and leading dimensions).
//   - Vectorization transformation: the strategy's vectorized dimension is
//     validated against layout and alignment rules; boundary tiles that
//     break the alignment rule get guarded lightweight zero-padding.
//
// The output still contains abstract RegionMove nodes; the optimizer package
// infers DMA (§4.5.1) and injects prefetching (§4.5.2).
package lower

import (
	"fmt"

	"swatop/internal/dsl"
	"swatop/internal/ir"
	"swatop/internal/sw26010"
)

// axisPlan is the split decision for one axis.
type axisPlan struct {
	ax     *dsl.Axis
	factor int
	outer  int     // ceil(extent/factor)
	loop   bool    // outer > 1: an outer loop exists
	tile   ir.Expr // in-tile extent: min(factor, extent - v*factor)
	start  ir.Expr // v*factor
}

// operandPlan is the SPM-frame and matrix interpretation of one operand.
type operandPlan struct {
	spec        *dsl.TensorSpec
	buf         string
	perm        []int // storage permutation (slowest→fastest)
	frameExt    []int // per tensor dim: allocated tile extent
	frameStride []int // per tensor dim: SPM frame stride
	frameElems  int
	start       []ir.Expr // region start per dim
	extent      []ir.Expr // region extent per dim
	depth       int       // nest depth at which the region is invariant
	// matrix view
	trans    bool // stored transposed w.r.t. (rows × cols) column-major
	ld       int
	rowsExpr ir.Expr // actual rows (product of row-group tile extents)
	colsExpr ir.Expr
	rowAxes  []string // storage-fastest-first composite order
	colAxes  []string
}

// Plan is the resolved lowering state; conv/gemm operator builders use it to
// compose multi-phase programs.
type Plan struct {
	Seed     *dsl.Seed
	Strategy dsl.Strategy

	axes  map[string]*axisPlan
	order []string // loop nest order, outermost first (only axes with loops)
	ops   map[dsl.OperandRole]*operandPlan
}

// Lower builds a complete single-nest program from a seed and strategy.
func Lower(seed *dsl.Seed, st dsl.Strategy) (*ir.Program, error) {
	plan, err := NewPlan(seed, st)
	if err != nil {
		return nil, err
	}
	body, err := plan.BuildNest()
	if err != nil {
		return nil, err
	}
	p := &ir.Program{Name: seed.Name, Body: body}
	for _, t := range seed.Tensors {
		p.Tensors = append(p.Tensors, ir.TensorDecl{
			Name:   t.Name,
			Dims:   append([]int(nil), t.Dims...),
			Output: t.Role == dsl.OperandC,
			Layout: plan.Layout(t.Name),
		})
	}
	return p, nil
}

// NewPlan validates a strategy against a seed and resolves the lowering
// decisions without emitting IR.
func NewPlan(seed *dsl.Seed, st dsl.Strategy) (*Plan, error) {
	if err := seed.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{Seed: seed, Strategy: st, axes: map[string]*axisPlan{}, ops: map[dsl.OperandRole]*operandPlan{}}

	for _, ax := range seed.Axes {
		f := st.Factors[ax.Name]
		if f == 0 {
			f = 1
		}
		if f < 0 || f > ax.Extent {
			return nil, fmt.Errorf("lower: axis %s: factor %d out of range (extent %d)", ax.Name, f, ax.Extent)
		}
		if (ax.Role == dsl.RoleSpatial || ax.Role == dsl.RoleReduce) && f != 1 {
			return nil, fmt.Errorf("lower: %s axis %s cannot be tiled into the GEMM primitive", ax.Role, ax.Name)
		}
		ap := &axisPlan{ax: ax, factor: f, outer: ceilDiv(ax.Extent, f)}
		ap.loop = ap.outer > 1
		v := ir.V(loopVar(ax.Name))
		if ap.loop {
			ap.start = ir.Mul(v, ir.Const(int64(f)))
			if ax.Extent%f == 0 {
				ap.tile = ir.Const(int64(f))
			} else {
				ap.tile = ir.Min(ir.Const(int64(f)), ir.Sub(ir.Const(int64(ax.Extent)), ap.start))
			}
		} else {
			ap.start = ir.Const(0)
			ap.tile = ir.Const(int64(f))
		}
		p.axes[ax.Name] = ap
	}

	if err := p.resolveOrder(); err != nil {
		return nil, err
	}
	for _, role := range []dsl.OperandRole{dsl.OperandA, dsl.OperandB, dsl.OperandC} {
		if err := p.planOperand(role); err != nil {
			return nil, err
		}
	}
	if err := p.checkMatrixConsistency(); err != nil {
		return nil, err
	}
	if err := p.checkCapacity(); err != nil {
		return nil, err
	}
	return p, nil
}

func loopVar(axis string) string { return "c" + axis }

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// resolveOrder expands the strategy's (possibly partial) order into the full
// loop nest order.
func (p *Plan) resolveOrder() error {
	seen := map[string]bool{}
	for _, name := range p.Strategy.Order {
		ap, ok := p.axes[name]
		if !ok {
			return fmt.Errorf("lower: order names unknown axis %q", name)
		}
		if seen[name] {
			return fmt.Errorf("lower: axis %q appears twice in order", name)
		}
		seen[name] = true
		if ap.loop {
			p.order = append(p.order, name)
		}
	}
	for _, ax := range p.Seed.Axes {
		if !seen[ax.Name] && p.axes[ax.Name].loop {
			p.order = append(p.order, ax.Name)
		}
	}
	return nil
}

// Layout returns the storage permutation chosen for a tensor (identity when
// the strategy does not override it).
func (p *Plan) Layout(tensor string) []int {
	if perm, ok := p.Strategy.Layouts[tensor]; ok {
		return perm
	}
	for _, t := range p.Seed.Tensors {
		if t.Name == tensor {
			perm := make([]int, len(t.Dims))
			for i := range perm {
				perm[i] = i
			}
			return perm
		}
	}
	return nil
}

// operandGroups returns the (rows, cols) role pair of an operand.
func operandGroups(role dsl.OperandRole) (rows, cols dsl.Role) {
	switch role {
	case dsl.OperandA:
		return dsl.RoleM, dsl.RoleK
	case dsl.OperandB:
		return dsl.RoleK, dsl.RoleN
	default:
		return dsl.RoleM, dsl.RoleN
	}
}

func (p *Plan) planOperand(role dsl.OperandRole) error {
	spec, err := p.Seed.Operand(role)
	if err != nil {
		return err
	}
	op := &operandPlan{spec: spec, buf: "spm_" + spec.Name}
	op.perm = p.Layout(spec.Name)
	if len(op.perm) != len(spec.Dims) {
		return fmt.Errorf("lower: tensor %s: layout %v does not match rank %d", spec.Name, op.perm, len(spec.Dims))
	}
	seenDim := make([]bool, len(spec.Dims))
	for _, d := range op.perm {
		if d < 0 || d >= len(spec.Dims) || seenDim[d] {
			return fmt.Errorf("lower: tensor %s: invalid layout %v", spec.Name, op.perm)
		}
		seenDim[d] = true
	}

	nd := len(spec.Dims)
	op.frameExt = make([]int, nd)
	op.start = make([]ir.Expr, nd)
	op.extent = make([]ir.Expr, nd)
	// dimRole[d]: role of the active axes of dim d (or -1 when inactive).
	dimRole := make([]dsl.Role, nd)
	dimAxis := make([]string, nd) // the active axis of the dim (one allowed)
	for d := 0; d < nd; d++ {
		frame := 1
		start := ir.Expr(ir.Const(0))
		extent := ir.Expr(ir.Const(1))
		role := dsl.Role(-1)
		axis := ""
		for _, term := range spec.Access[d] {
			ap := p.axes[term.Axis]
			c := int64(term.Coeff)
			start = ir.Add(start, ir.Mul(ir.Const(c), ap.start))
			// extent 1 + Σ coeff*(tile-1)
			extent = ir.Add(extent, ir.Mul(ir.Const(c), ir.Sub(ap.tile, ir.Const(1))))
			frame += term.Coeff * (ap.factor - 1)
			if ap.factor > 1 {
				if role >= 0 {
					return fmt.Errorf("lower: tensor %s dim %d: two tiled axes (%s, %s) share one dimension",
						spec.Name, d, axis, term.Axis)
				}
				role = ap.ax.Role
				axis = term.Axis
			}
			// track the deepest loop var feeding the region
			if ap.loop {
				if depth := p.loopDepth(term.Axis); depth+1 > op.depth {
					op.depth = depth + 1
				}
			}
		}
		if frame > spec.Dims[d] {
			frame = spec.Dims[d]
		}
		op.frameExt[d] = frame
		op.start[d] = start
		op.extent[d] = extent
		dimRole[d] = role
		dimAxis[d] = axis
	}

	// Frame strides follow the storage permutation.
	op.frameStride = make([]int, nd)
	s := 1
	for i := nd - 1; i >= 0; i-- {
		d := op.perm[i]
		op.frameStride[d] = s
		s *= op.frameExt[d]
	}
	op.frameElems = s

	// Matrix interpretation: active dims in storage-fastest-first order
	// must split into the two role groups contiguously.
	rowsRole, colsRole := operandGroups(role)
	var fastGroup []int // active dims, fastest first
	for i := nd - 1; i >= 0; i-- {
		d := op.perm[i]
		if op.frameExt[d] > 1 {
			fastGroup = append(fastGroup, d)
		}
	}
	var rowDims, colDims []int
	state := 0 // 0: reading first group, 1: reading second group
	var firstRole dsl.Role = -1
	for _, d := range fastGroup {
		r := dimRole[d]
		if r != rowsRole && r != colsRole {
			return fmt.Errorf("lower: tensor %s: dim %d tiled on %s axis %q, not a GEMM dimension of operand %s",
				spec.Name, d, r, dimAxis[d], role)
		}
		if firstRole == -1 {
			firstRole = r
		}
		if r == firstRole && state == 0 {
			// still in the fast group
		} else if r != firstRole {
			state = 1
		} else if state == 1 {
			return fmt.Errorf("lower: tensor %s: layout interleaves GEMM dimensions (%v)", spec.Name, fastGroup)
		}
		if r == rowsRole {
			rowDims = append(rowDims, d)
		} else {
			colDims = append(colDims, d)
		}
	}
	if firstRole == -1 {
		firstRole = rowsRole // degenerate 1×1 tile; treat as untransposed
	}
	// trans records whether the matrix is stored with its column group
	// fastest. For C this selects the transposed-output formulation
	// (Cᵀ = Bᵀ·Aᵀ with operands swapped) in gemmStmt.
	op.trans = firstRole == colsRole

	// Leading dimension: product of frame extents of the fast group dims
	// (and any interleaved extent-1 dims, which contribute 1).
	fastRole := firstRole
	ld := 1
	for i := nd - 1; i >= 0; i-- {
		d := op.perm[i]
		if op.frameExt[d] > 1 && dimRole[d] != fastRole {
			break
		}
		ld *= op.frameExt[d]
	}
	op.ld = ld

	// Composite extents and axis orders; partial tiles only on the slowest
	// axis of each group.
	var err2 error
	op.rowsExpr, op.rowAxes, err2 = p.groupProduct(spec, dimAxis, rowDims, op.perm)
	if err2 != nil {
		return err2
	}
	op.colsExpr, op.colAxes, err2 = p.groupProduct(spec, dimAxis, colDims, op.perm)
	if err2 != nil {
		return err2
	}

	p.ops[role] = op
	return nil
}

// groupProduct computes the actual composite extent of a dim group and its
// storage-fastest-first axis order, enforcing the partial-tile rule.
func (p *Plan) groupProduct(spec *dsl.TensorSpec, dimAxis []string, dims []int, perm []int) (ir.Expr, []string, error) {
	// dims are already fastest-first (built from reversed perm).
	prod := ir.Expr(ir.Const(1))
	var axes []string
	for i, d := range dims {
		axis := dimAxis[d]
		ap := p.axes[axis]
		partial := ap.loop && ap.ax.Extent%ap.factor != 0
		if partial && i != len(dims)-1 {
			return nil, nil, fmt.Errorf("lower: tensor %s: partially tiled axis %q must be the slowest of its GEMM dimension",
				spec.Name, axis)
		}
		prod = ir.Mul(prod, ap.tile)
		axes = append(axes, axis)
	}
	return prod, axes, nil
}

func (p *Plan) loopDepth(axis string) int {
	for i, name := range p.order {
		if name == axis {
			return i
		}
	}
	return -1
}

// checkMatrixConsistency verifies that composite GEMM dimensions enumerate
// identically in the operands sharing them, and that the vectorization rule
// holds for full tiles.
func (p *Plan) checkMatrixConsistency() error {
	a, b, c := p.ops[dsl.OperandA], p.ops[dsl.OperandB], p.ops[dsl.OperandC]
	if !sameAxes(a.rowAxes, c.rowAxes) {
		return fmt.Errorf("lower: M axis order differs between A %v and C %v", a.rowAxes, c.rowAxes)
	}
	if !sameAxes(a.colAxes, b.rowAxes) {
		return fmt.Errorf("lower: K axis order differs between A %v and B %v", a.colAxes, b.rowAxes)
	}
	if !sameAxes(b.colAxes, c.colAxes) {
		return fmt.Errorf("lower: N axis order differs between B %v and C %v", b.colAxes, c.colAxes)
	}

	// Vector alignment on full tiles: the vec dimension's full-tile product
	// must be a multiple of the vector width (boundary tiles are padded at
	// run time).
	vecProd := 1
	axes := p.mAxes()
	if p.Strategy.Vec == ir.VecN {
		axes = p.nAxes()
	}
	for _, name := range axes {
		vecProd *= p.axes[name].factor
	}
	if vecProd%sw26010.VectorWidth != 0 {
		return fmt.Errorf("lower: vectorized dimension tile %d not a multiple of %d", vecProd, sw26010.VectorWidth)
	}
	return nil
}

func (p *Plan) mAxes() []string { return p.Seed.RoleAxes(dsl.RoleM) }
func (p *Plan) nAxes() []string { return p.Seed.RoleAxes(dsl.RoleN) }

func sameAxes(x, y []string) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// checkCapacity prunes schedules whose SPM frames do not fit. Under
// prefetching, every frame whose moves sit inside a loop is doubled (input
// gets are prefetched, output puts go asynchronous).
func (p *Plan) checkCapacity() error {
	var sizes []int
	for _, op := range p.ops {
		n := op.frameElems
		if p.Strategy.DoubleBuffer && op.depth >= 1 {
			n *= 2
		}
		sizes = append(sizes, n)
	}
	if !sw26010.FitsSPM(sizes...) {
		return fmt.Errorf("lower: SPM frames exceed capacity: %v floats", sizes)
	}
	return nil
}

// BuildNest emits the loop nest with RegionMoves and the GEMM call.
func (p *Plan) BuildNest() ([]ir.Stmt, error) {
	a, b, c := p.ops[dsl.OperandA], p.ops[dsl.OperandB], p.ops[dsl.OperandC]

	// Can the initial C fetch be replaced by an SPM zero-fill? Only when no
	// reduction loop is *outside* C's residency level: then each C region
	// is visited exactly once and starts from zero. Reduction loops inside
	// keep C resident in SPM and accumulate there; reduction loops outside
	// force a re-fetch of partial sums from memory instead.
	cZeroInit := !p.reductionOutside(c.depth)

	gemm, err := p.gemmStmt()
	if err != nil {
		return nil, err
	}

	// Build from the innermost level outwards.
	core := []ir.Stmt{gemm}
	for depth := len(p.order); depth >= 0; depth-- {
		var pre, post []ir.Stmt
		for _, op := range []*operandPlan{a, b} {
			if op.depth == depth {
				pre = append(pre, p.inputMoves(op)...)
			}
		}
		if c.depth == depth {
			if cZeroInit {
				pre = append(pre, &ir.Transform{
					Kind: ir.ZeroFill, Dst: c.buf, DstOff: ir.Const(0), SrcOff: ir.Const(0),
					Args: []ir.Expr{ir.Const(int64(c.frameElems))},
				})
			} else {
				pre = append(pre, p.moveStmt(c, ir.Get))
			}
			post = append(post, p.moveStmt(c, ir.Put))
		}
		body := append(pre, core...)
		body = append(body, post...)
		if depth == 0 {
			core = body
			break
		}
		name := p.order[depth-1]
		core = []ir.Stmt{&ir.For{
			Iter:   loopVar(name),
			Extent: ir.Const(int64(p.axes[name].outer)),
			Body:   body,
		}}
	}

	var out []ir.Stmt
	out = append(out, &ir.Comment{Text: "strategy: ", Note: p.Strategy})
	for _, op := range []*operandPlan{a, b, c} {
		out = append(out, &ir.AllocSPM{Buf: op.buf, Elems: ir.Const(int64(op.frameElems))})
	}
	out = append(out, core...)
	for _, op := range []*operandPlan{a, b, c} {
		out = append(out, &ir.FreeSPM{Buf: op.buf})
	}
	return out, nil
}

// reductionOutside reports whether any loop strictly outside the given
// depth is a reduction (K or reduce-role) loop.
func (p *Plan) reductionOutside(depth int) bool {
	for i := 0; i < depth; i++ {
		r := p.axes[p.order[i]].ax.Role
		if r == dsl.RoleK || r == dsl.RoleReduce {
			return true
		}
	}
	return false
}

// inputMoves emits the (optionally pad-guarded) Get for an input operand.
func (p *Plan) inputMoves(op *operandPlan) []ir.Stmt {
	var out []ir.Stmt
	if pad := p.vecPadOperand(); pad == op {
		// Lightweight zero padding (§4.5.3): when the boundary tile's
		// vectorized extent is not a multiple of the vector width, clear
		// the frame so the rounded-up GEMM call multiplies zeros.
		vecExpr := op.rowsExpr
		if op.spec.Role == dsl.OperandB {
			vecExpr = op.colsExpr
		}
		if _, isConst := ir.IsConst(vecExpr); !isConst {
			out = append(out, &ir.If{
				Cond: ir.Cond{Op: ir.NE, L: ir.Mod(vecExpr, ir.Const(sw26010.VectorWidth)), R: ir.Const(0)},
				Then: []ir.Stmt{&ir.Transform{
					Kind: ir.ZeroFill, Dst: op.buf, DstOff: ir.Const(0), SrcOff: ir.Const(0),
					Args: []ir.Expr{ir.Const(int64(op.frameElems))},
				}},
			})
		}
	}
	out = append(out, p.moveStmt(op, ir.Get))
	return out
}

// vecPadOperand returns the input operand whose frame needs zero padding at
// unaligned boundaries (A for vecM, B for vecN).
func (p *Plan) vecPadOperand() *operandPlan {
	if p.Strategy.Vec == ir.VecM {
		return p.ops[dsl.OperandA]
	}
	return p.ops[dsl.OperandB]
}

func (p *Plan) moveStmt(op *operandPlan, dir ir.MoveDir) ir.Stmt {
	fs := make([]ir.Expr, len(op.frameStride))
	for i, s := range op.frameStride {
		fs[i] = ir.Const(int64(s))
	}
	return &ir.RegionMove{
		Tensor:      op.spec.Name,
		Dir:         dir,
		Start:       append([]ir.Expr(nil), op.start...),
		Extent:      append([]ir.Expr(nil), op.extent...),
		Buf:         op.buf,
		BufOff:      ir.Const(0),
		FrameStride: fs,
	}
}

func (p *Plan) gemmStmt() (ir.Stmt, error) {
	a, b, c := p.ops[dsl.OperandA], p.ops[dsl.OperandB], p.ops[dsl.OperandC]

	m := c.rowsExpr
	n := c.colsExpr
	k := a.colsExpr
	// Round the vectorized dimension up to the vector width; the padded
	// rows/columns multiply zeros from the guarded frame clear.
	round := func(e ir.Expr) ir.Expr {
		if _, ok := ir.IsConst(e); ok {
			v := e.Eval(nil)
			if v%sw26010.VectorWidth == 0 {
				return e
			}
		}
		w := ir.Const(sw26010.VectorWidth)
		return ir.Mul(ir.Div(ir.Add(e, ir.Const(sw26010.VectorWidth-1)), w), w)
	}
	if p.Strategy.Vec == ir.VecM {
		m = round(m)
	} else {
		n = round(n)
	}

	if !c.trans {
		return &ir.Gemm{
			A: a.buf, B: b.buf, C: c.buf,
			AOff: ir.Const(0), BOff: ir.Const(0), COff: ir.Const(0),
			M: m, N: n, K: k,
			LDA: ir.Const(int64(a.ld)), LDB: ir.Const(int64(b.ld)), LDC: ir.Const(int64(c.ld)),
			ATrans: a.trans, BTrans: b.trans,
			Vec:        p.Strategy.Vec,
			Accumulate: true,
		}, nil
	}

	// C is stored with its N group fastest: compute the transposed problem
	// Cᵀ[N×M] += Bᵀ[N×K] × Aᵀ[K×M]. Operand storage is untouched — only
	// the primitive's view flips: the old B becomes the left operand
	// (transposed iff it was *not* transposed before), and vice versa. The
	// user-level vectorized dimension (M or N axes) keeps its meaning, so
	// the primitive-level flag flips too.
	vec := ir.VecM
	if p.Strategy.Vec == ir.VecM {
		vec = ir.VecN
	}
	return &ir.Gemm{
		A: b.buf, B: a.buf, C: c.buf,
		AOff: ir.Const(0), BOff: ir.Const(0), COff: ir.Const(0),
		M: n, N: m, K: k,
		LDA: ir.Const(int64(b.ld)), LDB: ir.Const(int64(a.ld)), LDC: ir.Const(int64(c.ld)),
		ATrans: !b.trans, BTrans: !a.trans,
		Vec:        vec,
		Accumulate: true,
	}, nil
}
