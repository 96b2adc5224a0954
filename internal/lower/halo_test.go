package lower

import (
	"testing"

	"swatop/internal/ir"
)

// clipCase runs one region of a span through Span.Clip and Clipped the way
// a builder does, on closed expressions: zero-fill the frame where Clipped
// holds, then move the clipped part of the tensor (element i holds i+1)
// into the frame. Where the region meets the tensor the first extent
// elements of the frame must read the zero-padded tensor at the region;
// wherever it does not, the move must still be a legal stand-in.
func clipCase(t *testing.T, sp Span, v, e int) {
	t.Helper()
	c := sp.Clip(ir.Const(int64(v)), ir.Const(int64(e)))
	val := func(x ir.Expr) int {
		n, ok := ir.IsConst(x)
		if !ok {
			t.Fatalf("%+v [%d+%d): clip of closed expressions is open: %s", sp, v, e, x)
		}
		return int(n)
	}
	holds := func(c ir.Cond) bool { return c.Op.Holds(int64(val(c.L)), int64(val(c.R))) }
	s, ext, off := val(c.Start), val(c.Extent), val(c.Off)
	if s < 0 || ext < 1 || s+ext > sp.Dim || off < 0 || off+ext > sp.Frame {
		t.Fatalf("%+v [%d+%d): illegal move [%d+%d) at frame offset %d", sp, v, e, s, ext, off)
	}
	meets := v+e > sp.Halo && v-sp.Halo < sp.Dim
	if c.Inside.L == nil && !meets {
		t.Fatalf("%+v [%d+%d): the region lies outside the tensor and no condition says so", sp, v, e)
	}
	if c.Inside.L != nil && holds(c.Inside) != meets {
		t.Fatalf("%+v [%d+%d): Inside holds %v, the region meets the tensor %v", sp, v, e, !meets, meets)
	}
	if !meets {
		return
	}
	frame := make([]int, sp.Frame)
	for i := range frame {
		frame[i] = -1 // stale
	}
	if z := Clipped([]ir.Expr{ir.Const(int64(e))}, []Clip{c}); z.L != nil && holds(z) {
		clear(frame)
	}
	for i := 0; i < ext; i++ {
		frame[off+i] = s + i + 1
	}
	for i := 0; i < e; i++ {
		want := 0
		if x := v - sp.Halo + i; x >= 0 && x < sp.Dim {
			want = x + 1
		}
		if frame[i] != want {
			t.Fatalf("%+v [%d+%d): frame[%d] = %d, the padded tensor holds %d (move [%d+%d) at %d)",
				sp, v, e, i, frame[i], want, s, ext, off)
		}
	}
}

// spanCase decodes a span and one of its regions from fuzz bytes: a tensor
// of 1..32, a halo below it, a frame at least the region, a reach up to the
// padded extent and a smallest extent up to the region's.
func spanCase(dim, halo, ext, v, frame, reach, minExt uint8) (Span, int, int) {
	sp := Span{Dim: int(dim%32) + 1}
	sp.Halo = int(halo) % min(sp.Dim, 4)
	padded := sp.Dim + 2*sp.Halo
	sp.Reach = padded - int(reach)%padded
	e := int(ext)%sp.Reach + 1
	start := int(v) % (sp.Reach - e + 1)
	sp.Frame = e + int(frame%4)
	sp.MinExtent = 1 + int(minExt)%e
	return sp, start, e
}

// TestClipRegions checks every region of small spans, each span both as
// one whose regions all meet the tensor (the smallest extent above the
// halo) and as one whose regions may not.
func TestClipRegions(t *testing.T) {
	for dim := 1; dim <= 6; dim++ {
		for halo := 0; halo < min(dim, 3); halo++ {
			reach := dim + 2*halo
			for e := 1; e <= reach; e++ {
				for frame := e; frame <= e+1; frame++ {
					for minExt := 1; minExt <= e; minExt++ {
						sp := Span{Dim: dim, Frame: frame, Halo: halo, Reach: reach, MinExtent: minExt}
						for v := 0; v+e <= reach; v++ {
							clipCase(t, sp, v, e)
						}
					}
				}
			}
		}
	}
}

// FuzzClip is TestClipRegions on any span and region.
func FuzzClip(f *testing.F) {
	f.Add(uint8(8), uint8(1), uint8(3), uint8(0), uint8(0), uint8(0), uint8(2))
	f.Add(uint8(7), uint8(1), uint8(1), uint8(8), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(4), uint8(2), uint8(2), uint8(5), uint8(1), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, dim, halo, ext, v, frame, reach, minExt uint8) {
		sp, start, e := spanCase(dim, halo, ext, v, frame, reach, minExt)
		clipCase(t, sp, start, e)
	})
}
