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
	"strconv"

	"swatop/internal/ir"
)

// InferDMA replaces every remaining RegionMove by an asynchronous DMAOp
// followed immediately by its DMAWait (the synchronous pattern; the
// prefetch pass produces split pairs itself). The printed per-CPE
// descriptor attributes are not stored: the code generator derives them
// from the move (ir.RegionMove.Attrs) for the one program it prints.
func InferDMA(p *ir.Program) {
	n := 0
	p.Body = ir.Rewrite(p.Body, func(s ir.Stmt) []ir.Stmt {
		mv, ok := s.(*ir.RegionMove)
		if !ok {
			return nil
		}
		reply := "rw" + strconv.Itoa(n)
		n++
		return []ir.Stmt{&ir.DMAOp{Move: *mv, Reply: reply}, &ir.DMAWait{Reply: reply, Times: ir.Const(1)}}
	})
}
