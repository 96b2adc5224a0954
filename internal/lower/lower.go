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
	"slices"

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
// Its per-dimension slices are windows of the plan's shared backing arrays.
type operandPlan struct {
	spec        *dsl.TensorSpec
	buf         string
	perm        []int // storage permutation (slowest→fastest)
	frameExt    []int // per tensor dim: allocated tile extent
	frameStride []int // per tensor dim: SPM frame stride
	frameElems  int
	start       []ir.Expr // region start per dim
	extent      []ir.Expr // region extent per dim
	strideExpr  []ir.Expr // frameStride as constants
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

	axes  []axisPlan     // per seed axis, in declaration order
	order []*axisPlan    // loop nest order, outermost first (only axes with loops)
	ops   [3]operandPlan // by dsl.OperandRole
}

// maxRank bounds the tensor rank whose per-dimension scratch stays on the
// stack while an operand is planned; a higher rank spills to the heap.
const maxRank = 8

// Lower builds a complete single-nest program from a seed and strategy.
func Lower(seed *dsl.Seed, st dsl.Strategy) (*ir.Program, error) {
	plan, err := NewPlan(seed, st)
	if err != nil {
		return nil, err
	}
	p := &ir.Program{Name: seed.Name, Body: plan.BuildNest(), Tensors: make([]ir.TensorDecl, 0, len(seed.Tensors))}
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
	p := &Plan{Seed: seed, Strategy: st, axes: make([]axisPlan, len(seed.Axes))}

	for i, ax := range seed.Axes {
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
		ap := &p.axes[i]
		*ap = axisPlan{ax: ax, factor: f, outer: ceilDiv(ax.Extent, f)}
		ap.loop = ap.outer > 1
		if ap.loop {
			_, v := ax.LoopVar()
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
	}

	if err := p.resolveOrder(); err != nil {
		return nil, err
	}
	// Every operand's per-dimension state lives in one backing array per
	// element type: ints hold perm, frame extents and frame strides, exprs
	// the region start, extent and frame-stride constants, names the
	// composite axis orders (a dimension holds at most one tiled axis).
	rank := 0
	for _, t := range seed.Tensors {
		rank += len(t.Dims)
	}
	b := backing{ints: make([]int, 3*rank), exprs: make([]ir.Expr, 3*rank), names: make([]string, 0, rank)}
	for _, role := range [...]dsl.OperandRole{dsl.OperandA, dsl.OperandB, dsl.OperandC} {
		if err := p.planOperand(role, &b); err != nil {
			return nil, err
		}
	}
	if err := p.checkMatrixConsistency(); err != nil {
		return nil, err
	}
	if err := p.checkCapacity(); err != nil {
		return nil, err
	}
	// The ReLU epilogue clamps a finished output: a C region that a
	// reduction outside its residency puts partial sums of has none.
	if seed.ReLU && p.reductionOutside(p.ops[dsl.OperandC].depth) {
		return nil, fmt.Errorf("lower: ReLU epilogue under a reduction loop outside %s's residency", p.ops[dsl.OperandC].spec.Name)
	}
	return p, nil
}

// backing holds a plan's shared per-dimension arrays; each operand takes
// its windows from the front.
type backing struct {
	ints  []int
	exprs []ir.Expr
	names []string
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// axis returns the plan of a seed axis, or nil.
func (p *Plan) axis(name string) *axisPlan {
	for i := range p.axes {
		if p.axes[i].ax.Name == name {
			return &p.axes[i]
		}
	}
	return nil
}

// resolveOrder expands the strategy's (possibly partial) order into the full
// loop nest order.
func (p *Plan) resolveOrder() error {
	order := p.Strategy.Order
	p.order = make([]*axisPlan, 0, len(p.axes))
	for j, name := range order {
		ap := p.axis(name)
		if ap == nil {
			return fmt.Errorf("lower: order names unknown axis %q", name)
		}
		if slices.Contains(order[:j], name) {
			return fmt.Errorf("lower: axis %q appears twice in order", name)
		}
		if ap.loop {
			p.order = append(p.order, ap)
		}
	}
	for i := range p.axes {
		if ap := &p.axes[i]; ap.loop && !slices.Contains(order, ap.ax.Name) {
			p.order = append(p.order, ap)
		}
	}
	return nil
}

// Layout returns the storage permutation chosen for a tensor (identity when
// the strategy does not override it).
func (p *Plan) Layout(tensor string) []int {
	for i := range p.ops {
		if op := &p.ops[i]; op.spec.Name == tensor {
			return op.perm
		}
	}
	return nil
}

// operandGroups holds the (rows, cols) role pair of each operand.
var operandGroups = [...][2]dsl.Role{
	dsl.OperandA: {dsl.RoleM, dsl.RoleK},
	dsl.OperandB: {dsl.RoleK, dsl.RoleN},
	dsl.OperandC: {dsl.RoleM, dsl.RoleN},
}

func (p *Plan) planOperand(role dsl.OperandRole, b *backing) error {
	spec, err := p.Seed.Operand(role)
	if err != nil {
		return err
	}
	nd := len(spec.Dims)
	op := &p.ops[role]
	*op = operandPlan{spec: spec, buf: "spm_" + spec.Name}
	ints, exprs := b.ints[:3*nd:3*nd], b.exprs[:3*nd:3*nd]
	b.ints, b.exprs = b.ints[3*nd:], b.exprs[3*nd:]
	if perm, ok := p.Strategy.Layouts[spec.Name]; ok {
		op.perm = perm
	} else {
		op.perm = ints[:nd:nd]
		for i := range op.perm {
			op.perm[i] = i
		}
	}
	if len(op.perm) != nd {
		return fmt.Errorf("lower: tensor %s: layout %v does not match rank %d", spec.Name, op.perm, nd)
	}
	for i, d := range op.perm {
		if d < 0 || d >= nd || slices.Index(op.perm, d) != i {
			return fmt.Errorf("lower: tensor %s: invalid layout %v", spec.Name, op.perm)
		}
	}

	op.frameExt = ints[nd : 2*nd : 2*nd]
	op.frameStride = ints[2*nd:]
	op.start = exprs[:nd:nd]
	op.extent = exprs[nd : 2*nd : 2*nd]
	op.strideExpr = exprs[2*nd:]
	// dimAxis[d]: the one tiled axis of dim d, or nil when it has none.
	var dimBuf [maxRank]*axisPlan
	dimAxis := dimBuf[:0]
	for d := 0; d < nd; d++ {
		frame := 1
		start := ir.Expr(ir.Const(0))
		extent := ir.Expr(ir.Const(1))
		var tiled *axisPlan
		for _, term := range spec.Access[d] {
			ap := p.axis(term.Axis)
			c := int64(term.Coeff)
			start = ir.Add(start, ir.Mul(ir.Const(c), ap.start))
			// extent 1 + Σ coeff*(tile-1)
			extent = ir.Add(extent, ir.Mul(ir.Const(c), ir.Sub(ap.tile, ir.Const(1))))
			frame += term.Coeff * (ap.factor - 1)
			if ap.factor > 1 {
				if tiled != nil {
					return fmt.Errorf("lower: tensor %s dim %d: two tiled axes (%s, %s) share one dimension",
						spec.Name, d, tiled.ax.Name, term.Axis)
				}
				tiled = ap
			}
			// track the deepest loop var feeding the region
			if ap.loop {
				if depth := slices.Index(p.order, ap); depth+1 > op.depth {
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
		dimAxis = append(dimAxis, tiled)
	}

	// Frame strides follow the storage permutation.
	s := 1
	for i := nd - 1; i >= 0; i-- {
		d := op.perm[i]
		op.frameStride[d] = s
		s *= op.frameExt[d]
	}
	op.frameElems = s
	for d, st := range op.frameStride {
		op.strideExpr[d] = ir.Const(int64(st))
	}

	// Matrix interpretation: active dims in storage-fastest-first order
	// must split into the two role groups contiguously.
	rowsRole, colsRole := operandGroups[role][0], operandGroups[role][1]
	var rowBuf, colBuf [maxRank]int
	rowDims, colDims := rowBuf[:0], colBuf[:0]
	second := false // reading the second group
	var firstRole dsl.Role = -1
	for i := nd - 1; i >= 0; i-- {
		d := op.perm[i]
		if op.frameExt[d] <= 1 {
			continue
		}
		// A frame extent above one needs a tiled axis.
		r := dimAxis[d].ax.Role
		if r != rowsRole && r != colsRole {
			return fmt.Errorf("lower: tensor %s: dim %d tiled on %s axis %q, not a GEMM dimension of operand %s",
				spec.Name, d, r, dimAxis[d].ax.Name, role)
		}
		if firstRole == -1 {
			firstRole = r
		}
		if r != firstRole {
			second = true
		} else if second {
			return fmt.Errorf("lower: tensor %s: layout %v interleaves GEMM dimensions", spec.Name, op.perm)
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
	op.ld = 1
	for i := nd - 1; i >= 0; i-- {
		d := op.perm[i]
		if op.frameExt[d] > 1 && dimAxis[d].ax.Role != firstRole {
			break
		}
		op.ld *= op.frameExt[d]
	}

	// Composite extents and axis orders; partial tiles only on the slowest
	// axis of each group.
	if op.rowsExpr, op.rowAxes, err = groupProduct(spec, dimAxis, rowDims, b); err != nil {
		return err
	}
	if op.colsExpr, op.colAxes, err = groupProduct(spec, dimAxis, colDims, b); err != nil {
		return err
	}
	return nil
}

// span is what the plan knows of the regions of a haloed tensor dimension,
// whose start (the operand's) addresses the padded tensor: they reach as
// far as the access does, and the narrowest is the access over every
// axis's narrowest tile.
func (p *Plan) span(spec *dsl.TensorSpec, d, frame int) Span {
	sp := Span{Dim: spec.Dims[d], Frame: frame, Halo: spec.Halo[d], Reach: 1, MinExtent: 1}
	for _, term := range spec.Access[d] {
		ap := p.axis(term.Axis)
		sp.Reach += term.Coeff * (ap.ax.Extent - 1)
		sp.MinExtent += term.Coeff * (min(ap.factor, ap.ax.Extent-(ap.outer-1)*ap.factor) - 1)
	}
	return sp
}

// groupProduct computes the actual composite extent of a dim group and its
// storage-fastest-first axis order, enforcing the partial-tile rule. The
// order is a window of the backing's names.
func groupProduct(spec *dsl.TensorSpec, dimAxis []*axisPlan, dims []int, b *backing) (ir.Expr, []string, error) {
	// dims are already fastest-first (built from reversed perm).
	prod := ir.Expr(ir.Const(1))
	n := len(b.names)
	for i, d := range dims {
		ap := dimAxis[d]
		partial := ap.loop && ap.ax.Extent%ap.factor != 0
		if partial && i != len(dims)-1 {
			return nil, nil, fmt.Errorf("lower: tensor %s: partially tiled axis %q must be the slowest of its GEMM dimension",
				spec.Name, ap.ax.Name)
		}
		prod = ir.Mul(prod, ap.tile)
		b.names = append(b.names, ap.ax.Name)
	}
	return prod, b.names[n:len(b.names):len(b.names)], nil
}

// checkMatrixConsistency verifies that composite GEMM dimensions enumerate
// identically in the operands sharing them, and that the vectorization rule
// holds for full tiles.
func (p *Plan) checkMatrixConsistency() error {
	a, b, c := &p.ops[dsl.OperandA], &p.ops[dsl.OperandB], &p.ops[dsl.OperandC]
	if !slices.Equal(a.rowAxes, c.rowAxes) {
		return fmt.Errorf("lower: M axis order differs between A %v and C %v", a.rowAxes, c.rowAxes)
	}
	if !slices.Equal(a.colAxes, b.rowAxes) {
		return fmt.Errorf("lower: K axis order differs between A %v and B %v", a.colAxes, b.rowAxes)
	}
	if !slices.Equal(b.colAxes, c.colAxes) {
		return fmt.Errorf("lower: N axis order differs between B %v and C %v", b.colAxes, c.colAxes)
	}

	// Vector alignment on full tiles: the vec dimension's full-tile product
	// must be a multiple of the vector width (boundary tiles are padded at
	// run time).
	vecRole := dsl.RoleM
	if p.Strategy.Vec == ir.VecN {
		vecRole = dsl.RoleN
	}
	vecProd := 1
	for i := range p.axes {
		if p.axes[i].ax.Role == vecRole {
			vecProd *= p.axes[i].factor
		}
	}
	if vecProd%sw26010.VectorWidth != 0 {
		return fmt.Errorf("lower: vectorized dimension tile %d not a multiple of %d", vecProd, sw26010.VectorWidth)
	}
	return nil
}

// checkCapacity prunes schedules whose SPM frames do not fit. Under
// prefetching, every frame whose moves sit inside a loop is doubled (input
// gets are prefetched, output puts go asynchronous).
func (p *Plan) checkCapacity() error {
	var sizes [len(p.ops)]int
	for i, op := range p.ops {
		sizes[i] = op.frameElems
		if p.Strategy.DoubleBuffer && op.depth >= 1 {
			sizes[i] *= 2
		}
	}
	if !sw26010.FitsSPM(sizes[:]...) {
		return fmt.Errorf("lower: SPM frames exceed capacity: %v floats", sizes)
	}
	return nil
}

// BuildNest emits the loop nest with RegionMoves and the GEMM call, and,
// when the seed carries the ReLU epilogue, the clamp of C's frame before its
// put. It allocates per nest, not per statement: the nodes a nest holds
// once are one allocation, and its level loops, statement lists, moves,
// zero-fills, the clamp and their expressions come from one exactly sized
// slab each.
func (p *Plan) BuildNest() []ir.Stmt {
	a, b, c := &p.ops[dsl.OperandA], &p.ops[dsl.OperandB], &p.ops[dsl.OperandC]
	ops := [...]*operandPlan{a, b, c}

	// Can the initial C fetch be replaced by an SPM zero-fill? Only when no
	// reduction loop is *outside* C's residency level: then each C region
	// is visited exactly once and starts from zero. Reduction loops inside
	// keep C resident in SPM and accumulate there; reduction loops outside
	// force a re-fetch of partial sums from memory instead.
	cZeroInit := !p.reductionOutside(c.depth)
	guard, vecExpr := p.padGuard()
	// An input with a halo moves its clipped regions (halo.go); where a
	// region can lie wholly outside the tensor, the GEMM runs only inside.
	var zero [2]ir.Cond
	var halo [2]*haloGet
	var off [2]ir.Expr
	var insides [2 * maxRank]ir.Cond
	inside := insides[:0]
	for i, op := range ops[:2] {
		off[i] = ir.Const(0)
		if op == guard {
			// Lightweight zero padding (§4.5.3): when the boundary tile's
			// vectorized extent is not a multiple of the vector width, clear
			// the frame so the rounded-up GEMM call multiplies zeros.
			zero[i] = ir.Cond{Op: ir.NE, L: ir.Mod(vecExpr, ir.Const(sw26010.VectorWidth)), R: ir.Const(0)}
		}
		if op.spec.Halo == nil {
			continue
		}
		h := p.halo(op)
		halo[i], inside = h, append(inside, h.inside...)
		for d := range op.start {
			off[i] = ir.Add(off[i], ir.Mul(h.clips[d].Off, op.strideExpr[d]))
		}
		switch {
		case h.zero.L == nil:
		case zero[i].L == nil:
			zero[i] = h.zero
		default: // both the vector guard and the clip: either leaves a remainder
			zero[i].L = ir.Add(zero[i].L, ir.Sub(h.zero.R, h.zero.L))
		}
	}

	// A nest gets A and B, gets or zero-fills C, clamps and puts C, and
	// zero-fills each guarded input. Its lists hold the moves, the clamp,
	// each guard and its Then, the Then of each GEMM condition, an inner
	// statement per level, and the comment, allocs and frees.
	moves, zeros, stmts := 4, 0, 12+len(p.order)+len(inside)
	if cZeroInit {
		moves, zeros = 3, 1
	}
	nifs := len(inside)
	for i := range zero {
		if zero[i].L != nil {
			zeros, stmts, nifs = zeros+1, stmts+2, nifs+1
		}
	}
	if p.Seed.ReLU {
		zeros, stmts = zeros+1, stmts+1
	}
	n := &nest{
		comment: ir.Comment{Text: "strategy: ", Note: p.Strategy},
		gemm:    p.gemmStmt(),
		fors:    make(ir.Slab[ir.For], len(p.order)),
		stmts:   make(ir.Slab[ir.Stmt], stmts),
		moves:   make(ir.Slab[ir.RegionMove], moves),
		zeros:   make(ir.Slab[ir.Transform], zeros),
		exprs:   make(ir.Slab[ir.Expr], 3*(len(a.start)+len(b.start)+(moves-2)*len(c.start))+zeros),
	}
	for i, op := range ops {
		n.alloc[i] = ir.AllocSPM{Buf: op.buf, Elems: ir.Const(int64(op.frameElems))}
		n.free[i] = ir.FreeSPM{Buf: op.buf}
	}
	ifs := make(ir.Slab[ir.If], nifs)

	// Build from the innermost level outwards, each level's list in a
	// scratch array first; the outermost one is the program's list.
	var scratch [16]ir.Stmt
	inner := ir.Stmt(&n.gemm)
	for _, cond := range inside {
		inner = ifs.New(ir.If{Cond: cond, Then: append(n.stmts.List(1), inner)})
	}
	for depth := len(p.order); ; depth-- {
		body := scratch[:0]
		if depth == 0 {
			body = append(body, &n.comment, &n.alloc[0], &n.alloc[1], &n.alloc[2])
		}
		for i, op := range ops[:2] {
			if op.depth != depth {
				continue
			}
			if zero[i].L != nil {
				body = append(body, ifs.New(ir.If{Cond: zero[i], Then: append(n.stmts.List(1), n.onFrame(ir.ZeroFill, op))}))
			}
			body = append(body, n.move(op, ir.Get, halo[i], off[i]))
		}
		if c.depth == depth {
			if cZeroInit {
				body = append(body, n.onFrame(ir.ZeroFill, c))
			} else {
				body = append(body, n.move(c, ir.Get, nil, ir.Const(0)))
			}
		}
		body = append(body, inner)
		if c.depth == depth {
			if p.Seed.ReLU {
				body = append(body, n.onFrame(ir.ReLU, c))
			}
			body = append(body, n.move(c, ir.Put, nil, ir.Const(0)))
		}
		if depth == 0 {
			body = append(body, &n.free[0], &n.free[1], &n.free[2])
			return append(n.stmts.List(len(body)), body...)
		}
		ap := p.order[depth-1]
		iter, _ := ap.ax.LoopVar()
		list := append(n.stmts.List(len(body)), body...)
		inner = n.fors.New(ir.For{Iter: iter, Extent: ir.Const(int64(ap.outer)), Body: list})
	}
}

// nest is what one BuildNest allocates at once: the nodes a nest holds
// once, or once per operand, and the slabs it takes its other nodes from.
type nest struct {
	comment ir.Comment
	gemm    ir.Gemm
	alloc   [3]ir.AllocSPM
	free    [3]ir.FreeSPM
	fors    ir.Slab[ir.For]
	stmts   ir.Slab[ir.Stmt]
	moves   ir.Slab[ir.RegionMove]
	zeros   ir.Slab[ir.Transform] // the zero-fills and the clamp
	exprs   ir.Slab[ir.Expr]
}

// reductionOutside reports whether any loop strictly outside the given
// depth is a reduction (K or reduce-role) loop.
func (p *Plan) reductionOutside(depth int) bool {
	for _, ap := range p.order[:depth] {
		if r := ap.ax.Role; r == dsl.RoleK || r == dsl.RoleReduce {
			return true
		}
	}
	return false
}

// padGuard returns the input operand whose frame needs zero padding at
// unaligned boundaries (A for vecM, B for vecN) and its vectorized extent,
// or nil when that extent is constant.
func (p *Plan) padGuard() (*operandPlan, ir.Expr) {
	op, vecExpr := &p.ops[dsl.OperandA], p.ops[dsl.OperandA].rowsExpr
	if p.Strategy.Vec != ir.VecM {
		op, vecExpr = &p.ops[dsl.OperandB], p.ops[dsl.OperandB].colsExpr
	}
	if _, isConst := ir.IsConst(vecExpr); isConst {
		return nil, nil
	}
	return op, vecExpr
}

// haloGet is how a nest moves a haloed operand for one shape of tiles: its
// regions clipped to the tensor, the condition under which they leave part
// of the frame unwritten, and those under which they meet the tensor at
// all. It depends on the tiles of the axes the tensor's access names and
// nothing else of a strategy, so it is made once per operator and tiles.
type haloGet struct {
	clips  [maxRank]Clip
	zero   ir.Cond
	inside []ir.Cond
}

// halo returns the haloed operand's haloGet for the plan's tiles.
func (p *Plan) halo(op *operandPlan) *haloGet {
	key := [8]int{int(op.spec.Role)}
	k := 1
	for _, terms := range op.spec.Access {
		for _, term := range terms {
			if k < len(key) {
				key[k] = p.axis(term.Axis).factor
			}
			k++
		}
	}
	if k <= len(key) {
		if h, ok := p.Seed.Derived(key); ok {
			return h.(*haloGet)
		}
	}
	h := &haloGet{}
	for d := range op.start {
		if op.spec.Halo[d] == 0 {
			h.clips[d] = Clip{Start: op.start[d], Extent: op.extent[d], Off: ir.Const(0)}
			continue
		}
		h.clips[d] = p.span(op.spec, d, op.frameExt[d]).Clip(op.start[d], op.extent[d])
		if c := h.clips[d].Inside; c.L != nil {
			h.inside = append(h.inside, c)
		}
	}
	h.zero = Clipped(op.extent, h.clips[:len(op.start)])
	if k <= len(key) {
		return p.Seed.Derive(key, h).(*haloGet)
	}
	return h
}

// move builds a move of an operand's region; its start, extent and frame
// strides are one window of the expression slab.
func (n *nest) move(op *operandPlan, dir ir.MoveDir, h *haloGet, off ir.Expr) ir.Stmt {
	nd := len(op.start)
	exprs := append(append(append(n.exprs.List(3*nd), op.start...), op.extent...), op.strideExpr...)
	if h != nil {
		for d, c := range h.clips[:nd] {
			exprs[d], exprs[nd+d] = c.Start, c.Extent
		}
	}
	return n.moves.New(ir.RegionMove{
		Tensor:      op.spec.Name,
		Dir:         dir,
		Start:       exprs[:nd:nd],
		Extent:      exprs[nd : 2*nd : 2*nd],
		Buf:         op.buf,
		BufOff:      off,
		FrameStride: exprs[2*nd:],
	})
}

// onFrame runs an in-place kernel over an operand's whole frame: a
// zero-fill, or the ReLU clamp.
func (n *nest) onFrame(kind ir.TransformKind, op *operandPlan) ir.Stmt {
	return n.zeros.New(ir.Transform{
		Kind: kind, Dst: op.buf, DstOff: ir.Const(0), SrcOff: ir.Const(0),
		Args: append(n.exprs.List(1), ir.Const(int64(op.frameElems))),
	})
}

// Gemm returns the nest's GEMM call on the operands' frames at offset
// zero, for a builder that composes its own nest around it.
func (p *Plan) Gemm() ir.Gemm { return p.gemmStmt() }

func (p *Plan) gemmStmt() ir.Gemm {
	a, b, c := &p.ops[dsl.OperandA], &p.ops[dsl.OperandB], &p.ops[dsl.OperandC]

	m := c.rowsExpr
	n := c.colsExpr
	k := a.colsExpr
	// Round the vectorized dimension up to the vector width; the padded
	// rows/columns multiply zeros from the guarded frame clear.
	round := func(e ir.Expr) ir.Expr {
		if v, ok := ir.IsConst(e); ok && v%sw26010.VectorWidth == 0 {
			return e
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
		return ir.Gemm{
			A: a.buf, B: b.buf, C: c.buf,
			AOff: ir.Const(0), BOff: ir.Const(0), COff: ir.Const(0),
			M: m, N: n, K: k,
			LDA: ir.Const(int64(a.ld)), LDB: ir.Const(int64(b.ld)), LDC: ir.Const(int64(c.ld)),
			ATrans: a.trans, BTrans: b.trans,
			Vec:        p.Strategy.Vec,
			Accumulate: true,
		}
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
	return ir.Gemm{
		A: b.buf, B: a.buf, C: c.buf,
		AOff: ir.Const(0), BOff: ir.Const(0), COff: ir.Const(0),
		M: n, N: m, K: k,
		LDA: ir.Const(int64(b.ld)), LDB: ir.Const(int64(a.ld)), LDC: ir.Const(int64(c.ld)),
		ATrans: !b.trans, BTrans: !a.trans,
		Vec:        vec,
		Accumulate: true,
	}
}
