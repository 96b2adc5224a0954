package lower

import (
	"fmt"

	"swatop/internal/dsl"
	"swatop/internal/ir"
)

// LowerPadded implements the *traditional* zero-padding baseline of §4.5.3
// (evaluated in Fig. 11): instead of handling boundary tiles in SPM, every
// operand is first copied into a fully padded main-memory workspace (axes
// rounded up to multiples of their tile factors), the nest then runs with
// no boundaries at all, and the output is copied back. The copy phases pay
// two full DMA round trips — the overhead swATOP's lightweight scheme
// avoids.
func LowerPadded(seed *dsl.Seed, st dsl.Strategy) (*ir.Program, error) {
	if err := seed.Validate(); err != nil {
		return nil, err
	}
	for _, t := range seed.Tensors {
		if t.Halo != nil {
			return nil, fmt.Errorf("lower: traditional padding of %s's halo is not modelled", t.Name)
		}
	}
	// Padded axis extents.
	padExt := map[string]int{}
	anyPad := false
	for _, ax := range seed.Axes {
		f := st.Factors[ax.Name]
		if f <= 0 {
			f = 1
		}
		e := ceilDiv(ax.Extent, f) * f
		padExt[ax.Name] = e
		if e != ax.Extent {
			anyPad = true
		}
	}
	if !anyPad {
		// Nothing to pad: identical to the normal lowering.
		return Lower(seed, st)
	}

	// Build the padded seed over scratch tensors.
	ps := dsl.NewSeed(seed.Name + "_padded")
	ps.ReLU = seed.ReLU
	for _, ax := range seed.Axes {
		ps.AddAxis(ax.Name, padExt[ax.Name], ax.Role)
	}
	padName := func(n string) string { return "pad_" + n }
	padDims := map[string][]int{}
	for _, t := range seed.Tensors {
		dims := make([]int, len(t.Dims))
		for d, terms := range t.Access {
			reach := 1
			for _, term := range terms {
				reach += term.Coeff * (padExt[term.Axis] - 1)
			}
			dims[d] = reach
		}
		padDims[t.Name] = dims
		ps.AddTensor(padName(t.Name), dims, t.Role, t.Access...)
	}

	// The strategy's layouts apply to the padded tensors.
	pst := st
	pst.Layouts = map[string][]int{}
	for name, perm := range st.Layouts {
		pst.Layouts[padName(name)] = perm
	}

	plan, err := NewPlan(ps, pst)
	if err != nil {
		return nil, err
	}
	nest := plan.BuildNest()

	prog := &ir.Program{Name: seed.Name + "_tradpad"}
	for _, t := range seed.Tensors {
		prog.Tensors = append(prog.Tensors, ir.TensorDecl{
			Name:   t.Name,
			Dims:   append([]int(nil), t.Dims...),
			Output: t.Role == dsl.OperandC,
		})
		prog.Tensors = append(prog.Tensors, ir.TensorDecl{
			Name:    padName(t.Name),
			Dims:    padDims[t.Name],
			Scratch: true,
			Layout:  plan.Layout(padName(t.Name)),
		})
	}

	// Copy-in phases for inputs, the nest, then copy-out for the output.
	var body []ir.Stmt
	body = append(body, &ir.Comment{Text: "traditional padding: materialize padded operands"})
	for _, t := range seed.Tensors {
		if t.Role == dsl.OperandC {
			continue
		}
		cp, err := EmitTensorCopy(t.Name, padName(t.Name), t.Dims)
		if err != nil {
			return nil, err
		}
		body = append(body, cp...)
	}
	body = append(body, nest...)
	body = append(body, &ir.Comment{Text: "traditional padding: copy result back"})
	out, err := seed.Operand(dsl.OperandC)
	if err != nil {
		return nil, err
	}
	cp, err := EmitTensorCopy(padName(out.Name), out.Name, out.Dims)
	if err != nil {
		return nil, err
	}
	body = append(body, cp...)
	prog.Body = body
	return prog, nil
}

// copyChunkElems bounds the SPM staging buffer of padding copies.
const copyChunkElems = 256 * 1024

// EmitTensorCopy emits a chunked main-memory src→dst copy through SPM over
// the given logical region (both tensors must cover dims; dst may be
// larger). The chunking dimension is the slowest one whose inner row fits
// the staging buffer; any dimension above it becomes a full loop. Baseline
// builders use it to model the repacking passes manual libraries need.
func EmitTensorCopy(src, dst string, dims []int) ([]ir.Stmt, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("copy %s->%s: scalar tensors unsupported", src, dst)
	}
	// innerElems[d] = product of dims[d+1:].
	inner := make([]int, len(dims))
	prod := 1
	for d := len(dims) - 1; d >= 0; d-- {
		inner[d] = prod
		prod *= dims[d]
	}
	split := len(dims) - 1
	for d := range dims {
		if inner[d] <= copyChunkElems {
			split = d
			break
		}
	}
	chunk := copyChunkElems / inner[split]
	if chunk < 1 {
		chunk = 1
	}
	if chunk > dims[split] {
		chunk = dims[split]
	}
	nchunks := ceilDiv(dims[split], chunk)

	buf := fmt.Sprintf("spm_copy_%s_%s", src, dst)
	tag := fmt.Sprintf("%s_%s", src, dst)
	chunkIter := "cp_" + tag

	start := make([]ir.Expr, len(dims))
	extent := make([]ir.Expr, len(dims))
	for d := 0; d < split; d++ {
		start[d] = ir.V(fmt.Sprintf("cpo%d_%s", d, tag))
		extent[d] = ir.Const(1)
	}
	c0 := ir.Mul(ir.V(chunkIter), ir.Const(int64(chunk)))
	start[split] = c0
	if dims[split]%chunk == 0 {
		extent[split] = ir.Const(int64(chunk))
	} else {
		extent[split] = ir.Min(ir.Const(int64(chunk)), ir.Sub(ir.Const(int64(dims[split])), c0))
	}
	for d := split + 1; d < len(dims); d++ {
		start[d] = ir.Const(0)
		extent[d] = ir.Const(int64(dims[d]))
	}

	mk := func(tensorName string, dir ir.MoveDir) *ir.RegionMove {
		return &ir.RegionMove{
			Tensor: tensorName,
			Dir:    dir,
			Start:  append([]ir.Expr(nil), start...),
			Extent: append([]ir.Expr(nil), extent...),
			Buf:    buf,
			BufOff: ir.Const(0),
		}
	}
	body := []ir.Stmt{mk(src, ir.Get), mk(dst, ir.Put)}
	loop := ir.Stmt(&ir.For{Iter: chunkIter, Extent: ir.Const(int64(nchunks)), Body: body})
	for d := split - 1; d >= 0; d-- {
		loop = &ir.For{
			Iter:   fmt.Sprintf("cpo%d_%s", d, tag),
			Extent: ir.Const(int64(dims[d])),
			Body:   []ir.Stmt{loop},
		}
	}
	return []ir.Stmt{
		&ir.AllocSPM{Buf: buf, Elems: ir.Const(int64(chunk * inner[split]))},
		loop,
		&ir.FreeSPM{Buf: buf},
	}, nil
}
