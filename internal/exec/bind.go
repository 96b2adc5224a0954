package exec

import (
	"slices"

	"swatop/internal/ir"
	"swatop/internal/sw26010"
	"swatop/internal/tensor"
)

// Binding: before a program runs, every name in it — variables, SPM
// buffers, reply words, tensors — is resolved to a slot and every
// expression to an ir.Code, so running a statement hashes nothing. The
// bound form lives on the run's state and dies with it; the program itself
// is only read, so concurrent runs may share one.

// node is one bound statement. Its codes are consecutive in state.codes
// from code on, in the statement's field order; a..c depend on the kind:
//
//	Assign          c = variable
//	For             c = variable, body = nodes[a:b]
//	If              then = nodes[a:b], else = nodes[b:c]
//	AllocSPM, Free  a = buffer
//	moves           a = tensor (-1 when undeclared), b = buffer, c = reply word
//	DMAWait         c = reply word
//	Gemm            a, b, c = buffers A, B, C
//	Transform       a, b = buffers Src, Dst
//
// Variables are slots of the ir.Scope, tensors indices into the program's
// declarations, buffers and reply words indices into state.names.
type node struct {
	s       ir.Stmt
	code    int32
	a, b, c int32
}

// named is what a buffer or reply-word name stands for during the run: the
// SPM buffer while it is allocated, the issues on the reply word not yet
// waited for (one name may be both). The table is small and searched
// linearly, at bind time only.
type named struct {
	name   string
	buf    *sw26010.SPMBuffer
	issued int
}

// binder walks a program twice with the same code: once counting what the
// arenas must hold, once filling them.
type binder struct {
	st       *state
	p        *ir.Program
	counting bool
	// Arena sizes (upper bounds for the name tables) and the widest region.
	nodes, codes, ops, vars, names, rank int
}

// bind builds the bound program; its body is nodes[0:len(p.Body)].
func (st *state) bind(p *ir.Program) {
	b := binder{st: st, p: p, counting: true}
	b.fill(p.Body, b.take(len(p.Body)))
	st.scope = ir.NewScope(b.vars, b.ops)
	st.nodes = make([]node, b.nodes)
	st.codes = make([]ir.Code, 0, b.codes)
	st.names = make([]named, 0, b.names)
	if st.opt.Trace != nil {
		st.labels = make([]string, b.nodes)
	}
	scratch := make([]int, 2*b.rank)
	st.start, st.extent = scratch[:0:b.rank], scratch[b.rank:b.rank]

	b = binder{st: st, p: p}
	b.fill(p.Body, b.take(len(p.Body)))
	st.frame = st.scope.NewFrame()
}

// take sets aside n consecutive nodes: a statement list's own statements
// are laid out together, nested lists after them.
func (b *binder) take(n int) int32 {
	at := b.nodes
	b.nodes += n
	return int32(at)
}

// fill binds the statements of a list into the nodes taken for it.
func (b *binder) fill(body []ir.Stmt, at int32) {
	for _, s := range body {
		n := node{s: s, code: int32(b.codes)}
		switch x := s.(type) {
		case *ir.Assign:
			n.c = b.variable(x.Var)
			b.expr(x.Val)
		case *ir.For:
			n.c = b.variable(x.Iter)
			b.expr(x.Extent)
			n.a = b.take(len(x.Body))
			n.b = n.a + int32(len(x.Body))
			b.fill(x.Body, n.a)
		case *ir.If:
			b.expr(x.Cond.L, x.Cond.R)
			n.a = b.take(len(x.Then) + len(x.Else))
			n.b = n.a + int32(len(x.Then))
			n.c = n.b + int32(len(x.Else))
			b.fill(x.Then, n.a)
			b.fill(x.Else, n.b)
		case *ir.AllocSPM:
			b.names++
			n.a = b.name(x.Buf)
			b.expr(x.Elems)
		case *ir.FreeSPM:
			n.a = b.name(x.Buf)
		case *ir.RegionMove:
			// Un-inferred moves issue and wait on a reply word of their own.
			b.move(&n, at, x, "__sync")
		case *ir.DMAOp:
			b.move(&n, at, &x.Move, x.Reply)
		case *ir.DMAWait:
			n.c = b.name(x.Reply)
			b.expr(x.Times)
		case *ir.Gemm:
			n.a, n.b, n.c = b.name(x.A), b.name(x.B), b.name(x.C)
			b.expr(x.M, x.N, x.K, x.LDA, x.LDB, x.LDC, x.AOff, x.BOff, x.COff)
		case *ir.Transform:
			if x.Src == "" || x.Dst == "" {
				b.names++ // the unused operand's empty name takes a slot too
			}
			n.a, n.b = b.name(x.Src), b.name(x.Dst)
			b.expr(x.SrcOff, x.DstOff)
			b.expr(x.Args...)
		}
		if !b.counting {
			b.st.nodes[at] = n
		}
		at++
	}
}

func (b *binder) move(n *node, at int32, mv *ir.RegionMove, reply string) {
	b.names++
	b.rank = max(b.rank, len(mv.Start))
	n.a = int32(slices.IndexFunc(b.p.Tensors, func(d ir.TensorDecl) bool { return d.Name == mv.Tensor }))
	n.b, n.c = b.name(mv.Buf), b.name(reply)
	b.expr(mv.Start...)
	b.expr(mv.Extent...)
	b.expr(mv.BufOff)
	b.expr(mv.FrameStride...)
	if !b.counting && b.st.labels != nil {
		// The trace label is the statement's, not the transfer's: format
		// it once.
		b.st.labels[at] = mv.Dir.String() + " " + mv.Tensor
	}
}

func (b *binder) expr(es ...ir.Expr) {
	for _, e := range es {
		if b.counting {
			b.ops += ir.OpCount(e)
		} else {
			b.st.codes = append(b.st.codes, b.st.scope.Bind(e))
		}
	}
	b.codes += len(es)
}

func (b *binder) variable(name string) int32 {
	if b.counting {
		b.vars++
		return 0
	}
	return int32(b.st.scope.Slot(name))
}

func (b *binder) name(name string) int32 {
	if b.counting {
		return 0
	}
	i := slices.IndexFunc(b.st.names, func(n named) bool { return n.name == name })
	if i < 0 {
		i = len(b.st.names)
		b.st.names = append(b.st.names, named{name: name})
	}
	return int32(i)
}

// hasLayout reports whether t is stored as dims in perm order (slowest to
// fastest): whether tensor.NewVirtual(dims, perm) succeeds and has t's
// strides.
func hasLayout(t *tensor.Tensor, dims, perm []int) bool {
	if len(perm) != len(dims) {
		return false
	}
	s := 1
	for i := len(perm) - 1; i >= 0; i-- {
		d := perm[i]
		if d < 0 || d >= len(dims) || dims[d] <= 0 || t.Strides[d] != s || slices.Contains(perm[i+1:], d) {
			return false
		}
		s *= dims[d]
	}
	return true
}
