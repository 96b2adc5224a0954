// Package optimizer implements swATOP's IR optimizations (§4.5):
//
//   - DMA inference: abstract RegionMove nodes become concrete
//     DMAOp/DMAWait pairs.
//   - Hiding memory access latency: automatic software prefetching (double
//     buffering) with next-iteration index inference over the enclosing
//     loop variables, generated as the nested if-then-else structure the
//     paper describes.
//   - Boundary processing support: the lightweight zero-padding guards the
//     lowering emits are carried through both passes; the traditional
//     whole-tensor padding baseline lives in the lower package.
package optimizer

import (
	"fmt"
	"strconv"

	"swatop/internal/ir"
)

// InferDMA replaces every remaining RegionMove by an asynchronous DMAOp
// followed immediately by its DMAWait (the synchronous pattern; the
// prefetch pass produces split pairs itself). The printed per-CPE
// descriptor attributes are not stored: the code generator derives them
// from the move (ir.RegionMove.Attrs) for the one program it prints.
//
// The program is rewritten in place: only a statement list that directly
// holds a RegionMove is copied. Reply words are numbered in the order the
// moves are met in pre-order.
func InferDMA(p *ir.Program) {
	n := 0
	p.Body = inferDMA(p.Body, &n)
}

// Replies is where a program's reply-word numbering stands after a part of
// it has been optimized: the prefetch pass's counter and InferDMA's. A
// program optimized in parts passes each part's end state on to the next,
// and so names its reply words as optimizing it whole would.
type Replies struct{ Prefetch, DMA int }

// Optimize runs InjectPrefetch, if prefetch is set, and InferDMA over the
// statements of a program that follow the part r ends, in place, and
// advances r. The top-level list it returns may be a new one.
func Optimize(body []ir.Stmt, prefetch bool, r *Replies) ([]ir.Stmt, error) {
	if prefetch {
		var err error
		if body, err = prefetchBody(body, &r.Prefetch); err != nil {
			return nil, fmt.Errorf("prefetch: %w", err)
		}
	}
	return inferDMA(body, &r.DMA), nil
}

func inferDMA(body []ir.Stmt, n *int) []ir.Stmt {
	var out []ir.Stmt // nil until the list's first move
	ops, waits := ir.Slab[ir.DMAOp](nil), ir.Slab[ir.DMAWait](nil)
	for i, s := range body {
		switch x := s.(type) {
		case *ir.For:
			x.Body = inferDMA(x.Body, n)
		case *ir.If:
			x.Then = inferDMA(x.Then, n)
			x.Else = inferDMA(x.Else, n)
		case *ir.RegionMove:
			if out == nil {
				moves := 0
				for _, s := range body[i:] {
					if _, ok := s.(*ir.RegionMove); ok {
						moves++
					}
				}
				out = append(make([]ir.Stmt, 0, len(body)+moves), body[:i]...)
				ops, waits = make(ir.Slab[ir.DMAOp], moves), make(ir.Slab[ir.DMAWait], moves)
			}
			reply := "rw" + strconv.Itoa(*n)
			*n++
			out = append(out, ops.New(ir.DMAOp{Move: *x, Reply: reply}), waits.New(ir.DMAWait{Reply: reply, Times: ir.Const(1)}))
			continue
		}
		if out != nil {
			out = append(out, s)
		}
	}
	if out == nil {
		return body
	}
	return out
}
