package lower

import "swatop/internal/ir"

// Boundary processing of a halo (§4.5.3). A tensor with a halo is read as
// if it carried a zero border that no memory holds (a convolution's input
// at −Pad): a region move whose region the tensor's bounds clip moves only
// the inside part, into its frame at the matching offset, and the builder
// zero-fills the frame first on the tiles where the clip applies (Clipped).
// A region that can lie wholly outside the tensor is never moved as such —
// CheckRegion rejects an empty extent — so its move takes a legal stand-in
// and the builder skips what would read the frame (Clip.Inside). This file
// is the one place that knows the rule; the implicit nest, explicit
// im2col and the fused Winograd nest all clip through it.

// Span is what a builder knows statically of one dimension of a move's
// regions over all its iterations. A region is [v−Halo, v−Halo+e) for a
// start v ≥ 0 in the padded tensor and an extent e with v+e ≤ Reach, e at
// least MinExtent; the tensor holds [0, Dim) and the frame Frame elements.
type Span struct {
	Dim, Frame, Halo, Reach, MinExtent int
}

// Clip is one dimension of a region move clipped to its tensor: the move's
// start and extent, and the frame offset they land at.
type Clip struct {
	Start, Extent, Off ir.Expr
	// Inside, when its L is set, holds exactly where the region meets the
	// tensor; where it does not, the move reads a stand-in the caller must
	// not use. It is unset when every region of the span meets the tensor.
	Inside ir.Cond
}

// Meets reports whether every region of the span meets the tensor: none is
// as narrow as the halo it can lie in.
func (sp Span) Meets() bool {
	return sp.MinExtent > sp.Halo && sp.MinExtent > sp.Reach-sp.Halo-sp.Dim
}

// Clip clips the region of padded start v and extent e to the tensor. A
// closed v and e give closed results. max(v−Halo, 0) is v − min(v, Halo),
// so a clip costs a few nodes over v, whose loop variables the prefetch
// pass substitutes.
func (sp Span) Clip(v, e ir.Expr) Clip {
	h, dim := ir.Const(int64(sp.Halo)), ir.Const(int64(sp.Dim))
	right := sp.Reach-sp.Halo > sp.Dim
	switch {
	case sp.Halo == 0 && !right:
		return Clip{Start: v, Extent: e, Off: ir.Const(0)}
	case sp.Meets():
		m := ir.Min(v, h)
		c := Clip{Start: ir.Sub(v, m), Off: ir.Sub(h, m)}
		if right {
			c.Extent = ir.Sub(ir.Min(ir.Add(v, ir.Sub(e, h)), dim), c.Start)
		} else {
			c.Extent = ir.Sub(e, c.Off)
		}
		return c
	}
	// A region may lie wholly outside: the move is a stand-in inside the
	// tensor, at least one element wide and inside its frame.
	start := ir.Sub(v, h)
	if x, ok := ir.IsConst(e); ok && x == 1 && sp.Frame == 1 {
		// (v − Halo) mod Dim is the start where the region meets the tensor.
		s := ir.Mod(ir.Add(v, ir.Const(int64(sp.Dim-sp.Halo))), dim)
		return Clip{Start: s, Extent: e, Off: ir.Const(0), Inside: ir.Cond{Op: ir.EQ, L: s, R: start}}
	}
	lo := ir.Sub(v, ir.Min(v, h))
	inside := ir.Sub(ir.Min(ir.Add(start, e), dim), lo)
	ext := ir.Add(ir.Sub(inside, ir.Min(inside, ir.Const(1))), ir.Const(1)) // max(inside, 1)
	s := ir.Min(lo, ir.Const(int64(sp.Dim-1)))
	off := ir.Sub(s, start)
	off = ir.Min(ir.Sub(off, ir.Min(off, ir.Const(0))), ir.Sub(ir.Const(int64(sp.Frame)), ext))
	return Clip{Start: s, Extent: ext, Off: off, Inside: ir.Cond{Op: ir.GT, L: inside, R: ir.Const(0)}}
}

// Clipped is the condition under which moves of the given extents, clipped
// to clips, leave part of their frame unwritten: some clip moved less than
// its region. It is unset (L nil) when no clip changes an extent.
func Clipped(extents []ir.Expr, clips []Clip) ir.Cond {
	var want, got ir.Expr = ir.Const(0), ir.Const(0)
	for i, c := range clips {
		if c.Extent != extents[i] {
			want, got = ir.Add(want, extents[i]), ir.Add(got, c.Extent)
		}
	}
	if want == got {
		return ir.Cond{}
	}
	return ir.Cond{Op: ir.NE, L: got, R: want}
}
