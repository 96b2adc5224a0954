package ir

import (
	"fmt"
	"slices"
	"sync"
)

// The walker is the one interpreter of a program's control flow. Bind
// resolves every name in a program — variables, SPM buffers, reply words,
// tensors — to a slot and every expression to a Code, so a walk hashes no
// name. The walker runs Assign, For and If itself and hands the rest to a
// Leaf, which gives the walk its meaning: the executor times and computes
// (internal/exec), the estimator sums Eq. (1)/(2) (internal/costmodel), the
// featurizer tallies the iteration-0 path (internal/search). The program is
// only read, so concurrent walks may share one.

// Leaf is what a walk means: the loop policy, the branch and assignment
// charges and the effects, called in program order; an error ends the walk.
type Leaf interface {
	// Loop runs a loop of extent ≥ 0 trips, calling body.Run(i) for each
	// iteration it visits.
	Loop(extent int64, body Body) error
	// Branch runs the arm an If's condition selected.
	Branch(arm Body) error
	Assign()
	Alloc(buf int, elems int64) error
	Free(buf int) error
	// Move is a transfer; an un-inferred RegionMove is a Move and then a
	// Wait of 1 on a reply word of its own.
	Move(x *RegionMove, op *Op) error
	Wait(reply int, times int64) error
	Gemm(x *Gemm, op *Op) error
	Transform(x *Transform, op *Op) error
}

// FirstPass is the leaf of an iteration-0 walk: each loop with trips runs
// its first iteration, each If its arm, and effects do nothing. A leaf
// embeds it for what it leaves alone.
type FirstPass struct{}

func (FirstPass) Loop(extent int64, body Body) error {
	if extent == 0 {
		return nil
	}
	return body.Run(0)
}
func (FirstPass) Branch(arm Body) error           { return arm.Run(0) }
func (FirstPass) Assign()                         {}
func (FirstPass) Alloc(int, int64) error          { return nil }
func (FirstPass) Free(int) error                  { return nil }
func (FirstPass) Move(*RegionMove, *Op) error     { return nil }
func (FirstPass) Wait(int, int64) error           { return nil }
func (FirstPass) Gemm(*Gemm, *Op) error           { return nil }
func (FirstPass) Transform(*Transform, *Op) error { return nil }

// Op is an effect statement as its leaf sees it, valid during the call: its
// position among the bound statements (below Len), its name slots, a move's
// region (the leaf checks it against its tensor) and its expressions, each
// evaluated when the leaf asks. The walker reuses one Op and sets only its
// integers: an effect stores no pointer, so costs no GC write barrier.
// Slots and expressions follow the statement's fields:
//
//	moves      A tensor declaration, B buffer, C reply word;
//	           Start..., Extent..., BufOff, FrameStride...
//	Gemm       A, B, C; M, N, K, LDA, LDB, LDC, AOff, BOff, COff
//	Transform  A Src, B Dst; SrcOff, DstOff, Args...
//
// Buffers and reply words are slots below Names.
type Op struct {
	Index, A, B, C int
	w              *Walker
	code, end      int32 // the statement's codes are w.codes[code:end]
	start, extent  int   // a move's rank of each, in w.region
}

// Arg evaluates the statement's k-th expression.
func (o *Op) Arg(k int) int64 { return o.w.frame.Eval(o.w.codes[o.code:o.end][k]) }

// Start and Extent are a move's region.
func (o *Op) Start() []int  { return o.w.region[:o.start:o.start] }
func (o *Op) Extent() []int { return o.w.region[o.start : o.start+o.extent] }

// Frame returns the first and the last offset a move's frame touches in its
// buffer: BufOff, and BufOff plus each extent less one times the frame
// stride, which is packed to the region when the move gives none. It
// writes the strides to stride unless that is nil.
func (o *Op) Frame(stride []int) (first, last int) {
	codes, ext := o.w.codes[o.code+int32(o.start+o.extent):o.end], o.Extent()
	first = int(o.w.frame.Eval(codes[0]))
	last = first
	for d, packed := len(ext)-1, 1; d >= 0; d-- {
		s := packed
		if len(codes) > 1 {
			s = int(o.w.frame.Eval(codes[1+d]))
		}
		if stride != nil {
			stride[d] = s
		}
		last += (ext[d] - 1) * s
		packed *= ext[d]
	}
	return first, last
}

// Body is a loop's body or an If's arm.
type Body struct {
	w      *Walker
	lo, hi int32
	iter   *Var // nil for an arm
}

// Run walks the statements, a loop body's with its iterator bound to i.
func (b Body) Run(i int64) error {
	if b.iter != nil {
		*b.iter = Var{Val: i, Bound: true}
	}
	return b.w.run(b.lo, b.hi)
}

// Walker is a bound program: the statements laid out as nodes, each list's
// own statements consecutive (a loop body or an arm is an index range), each
// statement's expressions as consecutive Codes in field order, its names as
// slots. Its arenas are pooled: Bind reuses those of a finished walk,
// unless an owner keeps the walker ((*Walker).Bind).
type Walker struct {
	p     *Program
	leaf  Leaf
	scope Scope
	frame Frame
	nodes []node
	codes []Code
	// names are the SPM buffers and reply words (one name may be both),
	// searched linearly, at bind time only.
	names []string
	// op is the effect being called; region is the scratch a move's start
	// and extent are evaluated into.
	op     Op
	region []int
	owned  bool // bound by (*Walker).Bind: kept by its owner, never pooled
}

// node is one bound statement, its codes from code on; a..c are
//
//	Assign, For     c = variable; a For's body is nodes[a:b]
//	If              then = nodes[a:b], else = nodes[b:c]
//	AllocSPM, Free  a = buffer
//	DMAWait         c = reply word
//	the rest        Op's A, B, C
type node struct {
	s       Stmt
	code    int32
	a, b, c int32
}

var walkers = sync.Pool{New: func() any { return new(Walker) }}

// Bind returns p's bound form, on a pooled walker's arenas.
func Bind(p *Program) *Walker {
	w := walkers.Get().(*Walker)
	w.bind(p)
	return w
}

// Bind binds p on w's own arenas, for an owner that keeps w across walks
// (the zero Walker is empty); Run returns such a walker to no pool.
func (w *Walker) Bind(p *Program) *Walker {
	w.owned = true
	w.bind(p)
	return w
}

func (w *Walker) bind(p *Program) {
	w.p, w.nodes, w.codes, w.names = p, w.nodes[:0], w.codes[:0], w.names[:0]
	w.scope = Scope{names: w.scope.names[:0], ops: w.scope.ops[:0]}
	w.fill(p.Body, w.take(len(p.Body)))
	w.frame.reset(&w.scope)
	w.op.w = w
}

// Len is the number of bound statements.
func (w *Walker) Len() int { return len(w.nodes) }

// Names is the number of buffer and reply-word slots.
func (w *Walker) Names() int { return len(w.names) }

// Name returns a buffer's or reply word's name.
func (w *Walker) Name(slot int) string { return w.names[slot] }

// Run walks the program through leaf. A walker from the package's Bind goes
// back to the pool, not to be used again; a kept one may be bound again.
func (w *Walker) Run(leaf Leaf) error {
	defer func() {
		clear(w.nodes) // a pooled or kept walker keeps no program alive
		w.p, w.leaf = nil, nil
		if !w.owned {
			walkers.Put(w)
		}
	}()
	w.leaf = leaf
	return w.run(0, int32(len(w.p.Body)))
}

// eval computes the i-th code of the bound program.
func (w *Walker) eval(i int32) int64 { return w.frame.Eval(w.codes[i]) }

// run walks nodes[lo:hi]; the statement switch is inside the loop, so a
// statement costs no call of its own.
func (w *Walker) run(lo, hi int32) (err error) {
	for i := lo; i < hi && err == nil; i++ {
		n := &w.nodes[i]
		switch x := n.s.(type) {
		case *Assign:
			w.frame.vars[n.c] = Var{Val: w.eval(n.code), Bound: true}
			w.leaf.Assign()
		case *If:
			arm := Body{w: w, lo: n.b, hi: n.c}
			if x.Cond.Op.Holds(w.eval(n.code), w.eval(n.code+1)) {
				arm.lo, arm.hi = n.a, n.b
			}
			err = w.leaf.Branch(arm)
		case *For:
			extent := w.eval(n.code)
			if extent < 0 {
				return fmt.Errorf("loop %s: negative extent %d", x.Iter, extent)
			}
			v := &w.frame.vars[n.c]
			saved := *v // the loop shadows an outer variable of the same name
			err = w.leaf.Loop(extent, Body{w, n.a, n.b, v})
			*v = saved
		case *DMAOp:
			err = w.move(i, &x.Move)
		case *DMAWait:
			err = w.leaf.Wait(int(n.c), w.eval(n.code))
		case *Gemm:
			err = w.leaf.Gemm(x, w.effect(i, 9))
		case *Transform:
			err = w.leaf.Transform(x, w.effect(i, 2+len(x.Args)))
		case *RegionMove:
			if err = w.move(i, x); err == nil {
				err = w.leaf.Wait(int(n.c), 1)
			}
		case *AllocSPM:
			err = w.leaf.Alloc(int(n.a), w.eval(n.code))
		case *FreeSPM:
			err = w.leaf.Free(int(n.a))
		case *Comment:
		default:
			err = fmt.Errorf("unknown statement %T", n.s)
		}
	}
	return err
}

// effect sets up op for the i-th statement, whose expressions are codes
// many.
func (w *Walker) effect(i int32, codes int) *Op {
	n, op := &w.nodes[i], &w.op
	op.Index, op.A, op.B, op.C = int(i), int(n.a), int(n.b), int(n.c)
	op.code, op.end = n.code, n.code+int32(codes)
	return op
}

func (w *Walker) move(i int32, x *RegionMove) error {
	op := w.effect(i, len(x.Start)+len(x.Extent)+1+len(x.FrameStride))
	if op.A < 0 {
		return fmt.Errorf("dma: unknown tensor %q", x.Tensor)
	}
	// Start and extent are the move's first codes.
	op.start, op.extent = len(x.Start), len(x.Extent)
	if len(w.region) < op.start+op.extent {
		w.region = make([]int, op.start+op.extent)
	}
	for k, c := range w.codes[op.code:][:op.start+op.extent] {
		w.region[k] = int(w.frame.Eval(c))
	}
	return w.leaf.Move(x, op)
}

// take sets aside n consecutive nodes: a list's own statements are laid out
// together, nested lists after them.
func (w *Walker) take(n int) int32 {
	at := len(w.nodes)
	w.nodes = append(w.nodes, make([]node, n)...)
	return int32(at)
}

// fill binds the statements of a list into the nodes taken for it.
func (w *Walker) fill(body []Stmt, at int32) {
	for _, s := range body {
		n := node{s: s, code: int32(len(w.codes))}
		switch x := s.(type) {
		case *Assign:
			n.c = int32(w.scope.Slot(x.Var))
			w.exprs(x.Val)
		case *For:
			n.c = int32(w.scope.Slot(x.Iter))
			w.exprs(x.Extent)
			n.a = w.take(len(x.Body))
			n.b = n.a + int32(len(x.Body))
			w.fill(x.Body, n.a)
		case *If:
			w.exprs(x.Cond.L, x.Cond.R)
			n.a = w.take(len(x.Then) + len(x.Else))
			n.b = n.a + int32(len(x.Then))
			n.c = n.b + int32(len(x.Else))
			w.fill(x.Then, n.a)
			w.fill(x.Else, n.b)
		case *AllocSPM:
			n.a = w.name(x.Buf)
			w.exprs(x.Elems)
		case *FreeSPM:
			n.a = w.name(x.Buf)
		case *RegionMove:
			w.bindMove(&n, x, "__sync")
		case *DMAOp:
			w.bindMove(&n, &x.Move, x.Reply)
		case *DMAWait:
			n.c = w.name(x.Reply)
			w.exprs(x.Times)
		case *Gemm:
			n.a, n.b, n.c = w.name(x.A), w.name(x.B), w.name(x.C)
			w.exprs(x.M, x.N, x.K, x.LDA, x.LDB, x.LDC, x.AOff, x.BOff, x.COff)
		case *Transform:
			n.a, n.b = w.name(x.Src), w.name(x.Dst)
			w.exprs(x.SrcOff, x.DstOff)
			w.exprs(x.Args...)
		}
		w.nodes[at] = n
		at++
	}
}

func (w *Walker) bindMove(n *node, mv *RegionMove, reply string) {
	n.a = int32(slices.IndexFunc(w.p.Tensors, func(d TensorDecl) bool { return d.Name == mv.Tensor }))
	n.b, n.c = w.name(mv.Buf), w.name(reply)
	w.exprs(mv.Start...)
	w.exprs(mv.Extent...)
	w.exprs(mv.BufOff)
	w.exprs(mv.FrameStride...)
}

func (w *Walker) exprs(es ...Expr) {
	for _, e := range es {
		w.codes = append(w.codes, w.scope.Bind(e))
	}
}

func (w *Walker) name(name string) int32 { return int32(slot(&w.names, name)) }
