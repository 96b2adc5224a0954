package optimizer

import (
	"fmt"
	"slices"
	"strconv"

	"swatop/internal/ir"
)

// InjectPrefetch implements §4.5.2, hiding memory access latency by double
// buffering. For every loop whose body directly issues RegionMoves:
//
//   - SPM frames of the moved buffers are doubled; all references inside
//     the loop are offset by the iteration parity.
//   - Gets become: an initial DMA issue before the loop nest (all enclosing
//     iterators at 0), a wait at the top of each iteration, and a
//     prefetching issue of the *next* iteration's region into the other
//     half. The next iteration's index vector is inferred by the generated
//     nested if-then-else chain over the enclosing loop variables
//     (Φ(I⃗) of the paper).
//   - Puts become asynchronous, waited two iterations later (when their
//     half is about to be reused), with a drain after the loop nest.
//
// The pass must run before InferDMA (it consumes RegionMoves).
func InjectPrefetch(p *ir.Program) error {
	n := 0
	body, err := prefetchBody(p.Body, &n)
	if err != nil {
		return err
	}
	p.Body = body
	return nil
}

// prefetchBody is InjectPrefetch over a statement list, numbering reply
// words on from *n and advancing it.
func prefetchBody(body []ir.Stmt, n *int) ([]ir.Stmt, error) {
	pf := &prefetcher{nreply: *n}
	// A program allocates its buffers at top level.
	allocs := 0
	for _, s := range body {
		if _, ok := s.(*ir.AllocSPM); ok {
			allocs++
		}
	}
	pf.bufs = make([]spmBuf, 0, allocs)
	var z passSize
	pf.scan(body, 0, &z)
	pf.chain, pf.frames = make([]loopCtx, 0, z.depth), make([]frame, 0, z.loopGets+z.loopPuts)
	pf.gets, pf.puts = make([]getSite, 0, z.loopGets), make([]putSite, 0, z.loopPuts)
	// Preludes add a counter per loop and up to two statements per get,
	// postludes two drains per put.
	pf.post = make([]ir.Stmt, 0, 2*z.puts)
	out, err := pf.topLevel(body, z.loops+2*z.gets+cap(pf.post))
	if err != nil {
		return nil, err
	}
	*n = pf.nreply
	return out, nil
}

// passSize is a pass's loop depth, loops, gets, puts, and most gets and puts in one loop.
type passSize struct{ depth, loops, gets, puts, loopGets, loopPuts int }

// scan records the buffers body allocates, in pre-order, and sizes it.
func (pf *prefetcher) scan(body []ir.Stmt, depth int, z *passSize) {
	z.depth = max(z.depth, depth)
	var moves [3]int // by direction
	for _, s := range body {
		switch x := s.(type) {
		case *ir.AllocSPM:
			pf.bufs = append(pf.bufs, spmBuf{alloc: x})
		case *ir.For:
			z.loops++
			pf.scan(x.Body, depth+1, z)
		case *ir.If:
			pf.scan(x.Then, depth, z)
			pf.scan(x.Else, depth, z)
		case *ir.RegionMove:
			moves[x.Dir]++
		}
	}
	gets, puts := moves[ir.Get], moves[ir.Put]+moves[ir.PutAcc]
	z.gets, z.puts = z.gets+gets, z.puts+puts
	z.loopGets, z.loopPuts = max(z.loopGets, gets), max(z.loopPuts, puts)
}

// prefetcher is one pass's state. Everything on it lives for one
// InjectPrefetch call; the per-loop slices are scratch that each loop
// refills in site order.
type prefetcher struct {
	bufs   []spmBuf
	nreply int
	chain  []loopCtx // the enclosing loops of the loop being rewritten
	post   []ir.Stmt // the current phase root's postlude
	gets   []getSite // per loop: direct gets, in body order
	puts   []putSite // per loop: direct puts, in body order
	frames []frame   // per loop: the buffers it moves, in body order

	// Per loop: the nodes it emits, a slab per kind (slabs); lists holds the
	// new body and every Then, exprs the issues' start, extent and strides.
	assigns ir.Slab[ir.Assign]
	ifs     ir.Slab[ir.If]
	waits   ir.Slab[ir.DMAWait]
	ops     ir.Slab[ir.DMAOp]
	zeros   ir.Slab[ir.Transform]
	lists   ir.Slab[ir.Stmt]
	exprs   ir.Slab[ir.Expr]
}

// spmBuf is an AllocSPM of the program and whether a loop doubled it.
type spmBuf struct {
	alloc   *ir.AllocSPM
	doubled bool
}

// loopCtx is one loop of the chain. Its names and expressions are built the
// first time a loop below it (or it) moves data, once per pass; its extent
// is the loop's own.
type loopCtx struct {
	iter   string
	ext    ir.Expr // the loop's constant extent
	nx     string  // "nx_"+iter: the inferred next index
	ctr    string  // "g_"+iter: the loop's iteration counter
	v, nxV ir.Expr // V(iter), V(nx)
	inc    ir.Expr // iter + 1
}

// getSite is a direct get of a loop: its position, the optional zero-fill
// guard before it, and snapshots of both taken before the parity offsets
// (the prefetch issues are built from the un-offset originals; the offsets
// only reassign BufOff/DstOff, so a shallow copy is a clean one).
type getSite struct {
	idx   int
	move  ir.RegionMove
	guard *ir.If
	zero  ir.Transform
	frame int // index into prefetcher.frames
	reply string
	stmts int // an issue's statements: the move and any guard
}

type putSite struct {
	idx   int
	mv    *ir.RegionMove
	frame int
}

// frame is a buffer a loop moves: its parity offsets for this iteration and
// the next, and the reply word its puts share ("" if it has none).
type frame struct {
	buf       string
	cur, next ir.Expr
	put       string
}

// topLevel processes a statement list that is *outside* any loop: each For
// found here roots an independent prefetch region (a phase). Preludes go
// straight into the output.
func (pf *prefetcher) topLevel(body []ir.Stmt, extra int) ([]ir.Stmt, error) {
	out := make([]ir.Stmt, 0, len(body)+extra)
	for _, s := range body {
		f, ok := s.(*ir.For)
		if ok {
			_, ok = ir.IsConst(f.Extent)
		}
		if !ok {
			out = append(out, s)
			continue
		}
		pf.chain = append(pf.chain[:0], loopCtx{iter: f.Iter, ext: f.Extent})
		pf.post = pf.post[:0]
		var err error
		if out, err = pf.loop(out, f); err != nil {
			return nil, err
		}
		out = append(out, f)
		out = append(out, pf.post...)
	}
	return out, nil
}

// loop transforms one loop (children first), the last of pf.chain. It
// appends the loop's prelude to pre and returns it, and its postlude to
// pf.post.
func (pf *prefetcher) loop(pre []ir.Stmt, f *ir.For) ([]ir.Stmt, error) {
	mark, depth := len(pre), len(pf.chain)
	// Children first.
	for _, s := range f.Body {
		inner, ok := s.(*ir.For)
		if !ok {
			continue
		}
		if _, cok := ir.IsConst(inner.Extent); !cok {
			continue
		}
		pf.chain = append(pf.chain[:depth], loopCtx{iter: inner.Iter, ext: inner.Extent})
		var err error
		if pre, err = pf.loop(pre, inner); err != nil {
			return nil, err
		}
	}

	guards, putBufs := pf.collect(f.Body)
	gets, puts := pf.gets, pf.puts
	if len(gets) == 0 && len(puts) == 0 {
		return pre, nil
	}
	chain := pf.chain[:depth]
	for i := range chain {
		chain[i].build()
	}
	n := pf.slabs(len(f.Body), depth, guards, putBufs)

	ctr := chain[depth-1].ctr
	ctrV := ir.V(ctr)
	parity := func(delta int64) ir.Expr {
		return ir.Mod(ir.Add(ctrV, ir.Const(delta)), ir.Const(2))
	}
	cur, next := parity(0), parity(1)
	pre = slices.Insert(pre, mark, ir.Stmt(pf.assigns.New(ir.Assign{Var: ctr, Val: ir.Const(0)})))

	// Double the frames and rewrite buffer references by parity.
	for i := range pf.frames {
		fr := &pf.frames[i]
		b := pf.buf(fr.buf)
		if b == nil {
			return nil, fmt.Errorf("prefetch: no allocation found for buffer %q", fr.buf)
		}
		elems, cok := ir.IsConst(b.alloc.Elems)
		if !cok {
			return nil, fmt.Errorf("prefetch: non-constant frame size for %q", fr.buf)
		}
		if b.doubled {
			return nil, fmt.Errorf("prefetch: buffer %q double-buffered twice", fr.buf)
		}
		b.alloc.Elems = ir.Const(elems * 2)
		b.doubled = true
		size := ir.Const(elems)
		fr.cur, fr.next = ir.Mul(cur, size), ir.Mul(next, size)
	}
	pf.offsetRefs(f.Body)

	// The new body: get waits, put waits, the chain (an assign per loop, the
	// increment, the wrap), issues, what is left of the old body, the
	// counter.
	body := pf.lists.List(n)
	// 1. Waits for this iteration's gets.
	for i := range gets {
		gets[i].reply = pf.reply("pfg")
		body = append(body, pf.waits.New(ir.DMAWait{Reply: gets[i].reply, Times: ir.Const(1)}))
	}
	// 2. Guarded waits for put halves about to be reused; the first put of a
	// buffer names its reply word and queues its drain after the nest.
	for _, p := range puts {
		fr := &pf.frames[p.frame]
		if fr.put == "" {
			fr.put = pf.reply("pfp")
			pf.post = append(pf.post, pf.waitIf(ctrV, 1, fr.put), pf.waitIf(ctrV, 2, fr.put))
		}
		body = append(body, pf.waitIf(ctrV, 2, fr.put))
	}
	// 3. Next-index inference (Assign + nested If), shared by all gets, and
	// the prefetch issues.
	last := len(chain) - 1
	for _, c := range chain {
		body = append(body, pf.assigns.New(ir.Assign{Var: c.nx, Val: c.v}))
	}
	body = append(body, pf.assigns.New(ir.Assign{Var: chain[last].nx, Val: chain[last].inc}))
	// Wrap handling: if the incremented iterator overflowed, reset it and
	// carry into the next-outer one, recursively — the nested if-then-else
	// structure of §4.5.2.
	if last >= 1 {
		body = append(body, pf.wrap(chain, last))
	}
	valid := ir.Cond{Op: ir.LT, L: chain[0].nxV, R: chain[0].ext}
	for i := range gets {
		g := &gets[i]
		then := pf.issue(pf.lists.List(g.stmts), g, subst{chain: chain}, pf.frames[g.frame].next)
		body = append(body, pf.ifs.New(ir.If{Cond: valid, Then: then}))
	}
	// 4. Original body with gets (and their guards) removed and puts async.
	gi, pi := 0, 0
	for i, s := range f.Body {
		switch {
		case gi < len(gets) && i == gets[gi].idx:
			gi++
		case gi < len(gets) && i == gets[gi].idx-1 && gets[gi].guard != nil:
		case pi < len(puts) && i == puts[pi].idx:
			body = append(body, pf.ops.New(ir.DMAOp{Move: *puts[pi].mv, Reply: pf.frames[puts[pi].frame].put}))
			pi++
		default:
			body = append(body, s)
		}
	}
	// 5. Iteration counter.
	body = append(body, pf.assigns.New(ir.Assign{Var: ctr, Val: ir.Add(ctrV, ir.Const(1))}))
	f.Body = body

	// Prelude: initial issues with all chain iterators at zero.
	for i := range gets {
		pre = pf.issue(pre, &gets[i], subst{chain: chain, zero: true}, ir.Const(0))
	}
	return pre, nil
}

// slabs sizes the loop's node slabs from what collect found, and returns
// the new body's length (see loop). Each get is issued twice with its
// guard, each put buffer drains twice, a wrap holds the next one.
func (pf *prefetcher) slabs(old, depth, guards, putBufs int) int {
	gets, puts := len(pf.gets), len(pf.puts)
	waitIfs, wraps := puts+2*putBufs, depth-1
	body := gets + puts + depth + min(wraps, 1) + old - guards + 2
	exprs := 0
	for i := range pf.gets {
		mv := &pf.gets[i].move
		exprs += 2 * (len(mv.Start) + len(mv.Extent) + len(mv.FrameStride))
	}
	pf.assigns, pf.waits = make(ir.Slab[ir.Assign], 3*depth+1), make(ir.Slab[ir.DMAWait], gets+waitIfs)
	pf.ifs, pf.ops = make(ir.Slab[ir.If], waitIfs+wraps+gets+2*guards), make(ir.Slab[ir.DMAOp], 2*gets+puts)
	pf.zeros, pf.exprs = make(ir.Slab[ir.Transform], 2*guards), make(ir.Slab[ir.Expr], exprs)
	pf.lists = make(ir.Slab[ir.Stmt], body+waitIfs+gets+3*guards+max(3*wraps-1, 0))
	return body
}

// collect records the direct gets (with their zero-fill guards) and puts of a
// loop body, and the buffers they move, in body order. It returns the number
// of guards and of buffers the loop puts.
func (pf *prefetcher) collect(body []ir.Stmt) (guards, putBufs int) {
	pf.gets, pf.puts, pf.frames = pf.gets[:0], pf.puts[:0], pf.frames[:0]
	for i, s := range body {
		mv, ok := s.(*ir.RegionMove)
		if !ok {
			continue
		}
		fr := pf.touch(mv.Buf)
		if mv.Dir != ir.Get {
			if !slices.ContainsFunc(pf.puts, func(p putSite) bool { return p.frame == fr }) {
				putBufs++
			}
			pf.puts = append(pf.puts, putSite{idx: i, mv: mv, frame: fr})
			continue
		}
		g := getSite{idx: i, move: *mv, frame: fr, stmts: 1}
		if i > 0 {
			if iff, ok := body[i-1].(*ir.If); ok && len(iff.Then) == 1 && len(iff.Else) == 0 {
				if zf, ok := iff.Then[0].(*ir.Transform); ok && zf.Kind == ir.ZeroFill && zf.Dst == mv.Buf {
					g.guard, g.zero, g.stmts = iff, *zf, 2
					guards++
				}
			}
		}
		pf.gets = append(pf.gets, g)
	}
	return guards, putBufs
}

// touch returns the index of buf in pf.frames, adding it if it is new.
func (pf *prefetcher) touch(buf string) int {
	if i := pf.frame(buf); i >= 0 {
		return i
	}
	pf.frames = append(pf.frames, frame{buf: buf})
	return len(pf.frames) - 1
}

func (pf *prefetcher) frame(buf string) int {
	return slices.IndexFunc(pf.frames, func(f frame) bool { return f.buf == buf })
}

// buf returns the program's (last) allocation of a buffer, or nil.
func (pf *prefetcher) buf(name string) *spmBuf {
	for i := len(pf.bufs) - 1; i >= 0; i-- {
		if pf.bufs[i].alloc.Buf == name {
			return &pf.bufs[i]
		}
	}
	return nil
}

// build makes the loop's names and expressions the first time they are
// needed. Both names are windows of one string.
func (c *loopCtx) build() {
	if c.nx != "" {
		return
	}
	names := "nx_" + c.iter + "g_" + c.iter
	k := len("nx_") + len(c.iter)
	c.nx, c.ctr = names[:k], names[k:]
	c.v, c.nxV = ir.V(c.iter), ir.V(c.nx)
	c.inc = ir.Add(c.v, ir.Const(1))
}

// subst replaces the iterators of a loop chain by their inferred next
// indices, or by zero.
type subst struct {
	chain []loopCtx
	zero  bool
}

func (s subst) of(name string) (ir.Expr, bool) {
	for i := range s.chain {
		if s.chain[i].iter == name {
			if s.zero {
				return ir.Const(0), true
			}
			return s.chain[i].nxV, true
		}
	}
	return nil, false
}

// wrap builds the carry of chain[d] into chain[d-1], and recursively
// outwards.
func (pf *prefetcher) wrap(chain []loopCtx, d int) ir.Stmt {
	then := append(pf.lists.List(2+min(d-1, 1)),
		pf.assigns.New(ir.Assign{Var: chain[d].nx, Val: ir.Const(0)}),
		pf.assigns.New(ir.Assign{Var: chain[d-1].nx, Val: chain[d-1].inc}))
	if d-1 >= 1 {
		then = append(then, pf.wrap(chain, d-1))
	}
	return pf.ifs.New(ir.If{Cond: ir.Cond{Op: ir.EQ, L: chain[d].nxV, R: chain[d].ext}, Then: then})
}

// waitIf is `if ctr >= n: dma_wait reply x1`.
func (pf *prefetcher) waitIf(ctr ir.Expr, n int64, reply string) ir.Stmt {
	then := append(pf.lists.List(1), pf.waits.New(ir.DMAWait{Reply: reply, Times: ir.Const(1)}))
	return pf.ifs.New(ir.If{Cond: ir.Cond{Op: ir.GE, L: ctr, R: ir.Const(n)}, Then: then})
}

// issue appends the (optionally pad-guarded) prefetch issue of a get to dst,
// with substituted iterators and a parity buffer offset. The issue's
// start, extent and frame strides are one window of the expression slab.
// The guard and the move share one memo: a clipped move's start, extent,
// offset and zero-fill condition share their subtrees (lower.Span).
func (pf *prefetcher) issue(dst []ir.Stmt, g *getSite, s subst, off ir.Expr) []ir.Stmt {
	sub := s.of
	var m ir.Memo
	if g.guard != nil {
		zf := pf.zeros.New(g.zero)
		zf.DstOff = ir.Add(m.Subst(zf.DstOff, sub), off)
		cond := g.guard.Cond
		cond.L = m.Subst(cond.L, sub)
		cond.R = m.Subst(cond.R, sub)
		then := append(pf.lists.List(1), zf)
		dst = append(dst, pf.ifs.New(ir.If{Cond: cond, Then: then}))
	}
	mv := g.move
	n0, n1 := len(mv.Start), len(mv.Start)+len(mv.Extent)
	exprs := pf.exprs.List(n1 + len(mv.FrameStride))[:n1+len(mv.FrameStride)]
	mv.Start = substAll(exprs[:n0:n0], mv.Start, sub, &m)
	mv.Extent = substAll(exprs[n0:n1:n1], mv.Extent, sub, &m)
	mv.FrameStride = substAll(exprs[n1:], mv.FrameStride, sub, &m)
	mv.BufOff = ir.Add(m.Subst(mv.BufOff, sub), off)
	return append(dst, pf.ops.New(ir.DMAOp{Move: mv, Reply: g.reply}))
}

// substAll writes the substituted src into dst (of the same length); an
// empty src stays nil.
func substAll(dst, src []ir.Expr, sub func(string) (ir.Expr, bool), m *ir.Memo) []ir.Expr {
	if len(src) == 0 {
		return nil
	}
	for i, e := range src {
		dst[i] = m.Subst(e, sub)
	}
	return dst
}

func (pf *prefetcher) reply(prefix string) string {
	pf.nreply++
	return prefix + strconv.Itoa(pf.nreply)
}

// offsetRefs adds each moved buffer's parity offset to every reference to
// it in a subtree (GEMM operands, transforms, region moves).
func (pf *prefetcher) offsetRefs(body []ir.Stmt) {
	for _, s := range body {
		switch x := s.(type) {
		case *ir.For:
			pf.offsetRefs(x.Body)
		case *ir.If:
			pf.offsetRefs(x.Then)
			pf.offsetRefs(x.Else)
		case *ir.Gemm:
			x.AOff = pf.offset(x.A, x.AOff)
			x.BOff = pf.offset(x.B, x.BOff)
			x.COff = pf.offset(x.C, x.COff)
		case *ir.Transform:
			x.SrcOff = pf.offset(x.Src, x.SrcOff)
			x.DstOff = pf.offset(x.Dst, x.DstOff)
		case *ir.RegionMove:
			x.BufOff = pf.offset(x.Buf, x.BufOff)
		case *ir.DMAOp:
			x.Move.BufOff = pf.offset(x.Move.Buf, x.Move.BufOff)
		}
	}
}

func (pf *prefetcher) offset(buf string, e ir.Expr) ir.Expr {
	if i := pf.frame(buf); i >= 0 {
		return ir.Add(e, pf.frames[i].cur)
	}
	return e
}
