package tensor

import (
	"testing"
	"testing/quick"
)

func TestNewContiguousRowMajor(t *testing.T) {
	x := New("x", 2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if got := x.Strides; got[0] != 12 || got[1] != 4 || got[2] != 1 {
		t.Fatalf("strides = %v, want [12 4 1]", got)
	}
}

func TestNewWithLayoutPermutation(t *testing.T) {
	// Column-major 2-D: dim 1 slowest, dim 0 fastest.
	x, err := NewWithLayout("x", []int{3, 5}, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if x.Strides[0] != 1 || x.Strides[1] != 3 {
		t.Fatalf("strides = %v, want [1 3]", x.Strides)
	}
	x.Set(42, 2, 4)
	if x.Data[4*3+2] != 42 {
		t.Fatalf("column-major addressing wrong: %v", x.Data)
	}
}

func TestNewWithLayoutRejectsBadPerm(t *testing.T) {
	cases := [][]int{{0}, {0, 0}, {0, 2}, {-1, 0}}
	for _, perm := range cases {
		if _, err := NewWithLayout("x", []int{2, 2}, perm); err == nil {
			t.Errorf("perm %v should be rejected", perm)
		}
	}
	if _, err := NewWithLayout("x", []int{2, 0}, []int{0, 1}); err == nil {
		t.Error("zero extent should be rejected")
	}
}

func TestOffsetPanicsOutOfRange(t *testing.T) {
	x := New("x", 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	x.At(2, 0)
}

func TestFillPatternLayoutIndependent(t *testing.T) {
	a := New("a", 4, 6)
	b, err := NewWithLayout("b", []int{4, 6}, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	a.FillPattern()
	b.FillPattern()
	if d, err := MaxAbsDiff(a, b); err != nil || d != 0 {
		t.Fatal("FillPattern must be layout independent")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := New("a", 2, 2)
	a.FillPattern()
	b := a.Clone()
	b.Set(99, 0, 0)
	if a.At(0, 0) == 99 {
		t.Fatal("Clone shares storage")
	}
}

func TestMaxAbsDiffMismatch(t *testing.T) {
	a := New("a", 2, 2)
	b := New("b", 2, 3)
	if _, err := MaxAbsDiff(a, b); err == nil {
		t.Fatal("dim mismatch should error")
	}
	c := New("c", 2)
	if _, err := MaxAbsDiff(a, c); err == nil {
		t.Fatal("rank mismatch should error")
	}
}

// flattenOne flattens a region that must fit a single descriptor.
func flattenOne(t *testing.T, r Region, x *Tensor) Blocks {
	t.Helper()
	all, err := r.FlattenMulti(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("region of %s needs %d strided descriptors, not 1", x.Name, len(all))
	}
	return all[0]
}

// newRegion is a validated region literal.
func newRegion(t *Tensor, start, extent []int) (Region, error) {
	return Region{Start: start, Extent: extent}, CheckRegion(t, start, extent)
}

func TestRegionFlattenRowMajorTail(t *testing.T) {
	// Full coverage of the fastest dims fuses into one block.
	x := New("x", 4, 8, 16)
	r, err := newRegion(x, []int{1, 0, 0}, []int{2, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	bl := flattenOne(t, r, x)
	// The partially-covered outer dim is memory adjacent, so the whole
	// region fuses into a single contiguous block.
	if bl.Offset != 128 || bl.Block != 256 || bl.Count != 1 {
		t.Fatalf("blocks = %+v", bl)
	}
}

func TestRegionFlattenStrided(t *testing.T) {
	x := New("x", 8, 16)
	r, err := newRegion(x, []int{2, 4}, []int{3, 8})
	if err != nil {
		t.Fatal(err)
	}
	bl := flattenOne(t, r, x)
	if bl.Offset != 2*16+4 || bl.Block != 8 || bl.Stride != 16 || bl.Count != 3 {
		t.Fatalf("blocks = %+v", bl)
	}
	if bl.Total() != 24 {
		t.Fatalf("total = %d, want 24", bl.Total())
	}
}

func TestRegionFlattenMultiOuterDims(t *testing.T) {
	x := New("x", 3, 4, 8)
	r, err := newRegion(x, []int{0, 1, 2}, []int{2, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// A 3-level pattern does not fit a single descriptor.
	multi, err := r.FlattenMulti(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi) != 2 {
		t.Fatalf("want 2 descriptors, got %d", len(multi))
	}
	total := 0
	for _, b := range multi {
		total += b.Total()
	}
	if total != r.Len() {
		t.Fatalf("descriptors cover %d elements, region has %d", total, r.Len())
	}
}

func TestRegionBounds(t *testing.T) {
	x := New("x", 4, 4)
	if _, err := newRegion(x, []int{0, 2}, []int{4, 3}); err == nil {
		t.Fatal("out-of-bounds region should be rejected")
	}
	if _, err := newRegion(x, []int{0}, []int{4}); err == nil {
		t.Fatal("rank mismatch should be rejected")
	}
}

func TestCopyRegionRoundTrip(t *testing.T) {
	x := New("x", 5, 7)
	x.FillPattern()
	r, err := newRegion(x, []int{1, 2}, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float32, r.Len())
	if _, err := CopyRegionOut(x, r, buf); err != nil {
		t.Fatal(err)
	}
	y := New("y", 5, 7)
	if _, err := CopyRegionIn(y, r, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if y.At(1+i, 2+j) != x.At(1+i, 2+j) {
				t.Fatalf("round trip mismatch at (%d,%d)", i, j)
			}
		}
	}
	// Outside the region stays zero.
	if y.At(0, 0) != 0 {
		t.Fatal("copy leaked outside region")
	}
}

func TestAccumulateRegionIn(t *testing.T) {
	x := New("x", 2, 2)
	x.Fill(1)
	r, _ := newRegion(x, []int{0, 0}, []int{2, 2})
	if _, err := AccumulateRegionIn(x, r, []float32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	want := []float32{2, 3, 4, 5}
	for i, w := range want {
		if x.Data[i] != w {
			t.Fatalf("data[%d] = %v, want %v", i, x.Data[i], w)
		}
	}
}

func TestCopyRegionBufferTooSmall(t *testing.T) {
	x := New("x", 2, 2)
	r, _ := newRegion(x, []int{0, 0}, []int{2, 2})
	if _, err := CopyRegionOut(x, r, make([]float32, 3)); err == nil {
		t.Fatal("short dst must error")
	}
	if _, err := CopyRegionIn(x, r, make([]float32, 3)); err == nil {
		t.Fatal("short src must error")
	}
	if _, err := AccumulateRegionIn(x, r, make([]float32, 3)); err == nil {
		t.Fatal("short src must error")
	}
}

// Property: flattening a region into block descriptors and gathering via the
// descriptors equals CopyRegionOut for arbitrary small shapes.
func TestFlattenMatchesCopyQuick(t *testing.T) {
	f := func(d0, d1, s0, s1, e0, e1 uint8) bool {
		dims := []int{int(d0%5) + 1, int(d1%6) + 1}
		x := New("x", dims...)
		x.FillPattern()
		start := []int{int(s0) % dims[0], int(s1) % dims[1]}
		ext := []int{int(e0)%(dims[0]-start[0]) + 1, int(e1)%(dims[1]-start[1]) + 1}
		r, err := newRegion(x, start, ext)
		if err != nil {
			return false
		}
		direct := make([]float32, r.Len())
		if _, err := CopyRegionOut(x, r, direct); err != nil {
			return false
		}
		descs, err := r.FlattenMulti(x)
		if err != nil {
			return false
		}
		var viaBlocks []float32
		for _, b := range descs {
			for c := 0; c < b.Count; c++ {
				off := b.Offset + c*b.Stride
				viaBlocks = append(viaBlocks, x.Data[off:off+b.Block]...)
			}
		}
		if len(viaBlocks) != len(direct) {
			return false
		}
		for i := range direct {
			if direct[i] != viaBlocks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIm2colAgainstDirectConv(t *testing.T) {
	s := ConvShape{B: 2, Ni: 3, No: 4, Ro: 5, Co: 5, Kr: 3, Kc: 3}
	in := NewConvInput(s)
	w := NewConvFilter(s)
	in.FillPattern()
	w.FillPattern()

	ref, err := ReferenceConv(in, w, s)
	if err != nil {
		t.Fatal(err)
	}

	col, err := Im2col(in, s)
	if err != nil {
		t.Fatal(err)
	}
	wm, err := FilterMatrix(w, s)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := ReferenceGemm(wm, col, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := OutputFromMatrix(prod, s)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := MaxAbsDiff(ref, out); d > 1e-3 {
		t.Fatalf("explicit-GEMM path differs from direct conv by %g", d)
	}
}

func TestIm2colValidation(t *testing.T) {
	s := ConvShape{B: 1, Ni: 2, No: 2, Ro: 4, Co: 4, Kr: 3, Kc: 3}
	bad := New("in", 2, 4, 4, 1) // not pre-padded
	if _, err := Im2col(bad, s); err == nil {
		t.Fatal("unpadded input should be rejected")
	}
	if _, err := FilterMatrix(New("w", 1, 1, 1, 1), s); err == nil {
		t.Fatal("bad filter dims should be rejected")
	}
	if _, err := OutputFromMatrix(New("m", 1, 1), s); err == nil {
		t.Fatal("bad matrix dims should be rejected")
	}
}

func TestConvShapeFLOPs(t *testing.T) {
	s := ConvShape{B: 2, Ni: 3, No: 4, Ro: 5, Co: 6, Kr: 3, Kc: 3}
	want := int64(2 * 2 * 3 * 4 * 5 * 6 * 9)
	if s.FLOPs() != want {
		t.Fatalf("FLOPs = %d, want %d", s.FLOPs(), want)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (ConvShape{}).Validate(); err == nil {
		t.Fatal("zero shape should be invalid")
	}
}

func TestReferenceGemmShapes(t *testing.T) {
	a := New("a", 2, 3)
	b := New("b", 4, 2)
	if _, err := ReferenceGemm(a, b, 1, 0); err == nil {
		t.Fatal("inner dim mismatch should error")
	}
	if _, err := ReferenceGemm(New("a", 2), b, 1, 0); err == nil {
		t.Fatal("rank mismatch should error")
	}
}
