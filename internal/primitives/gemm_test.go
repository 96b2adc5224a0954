package primitives

import (
	"math"
	"testing"
	"testing/quick"

	"swatop/internal/ir"
	"swatop/internal/sw26010"
	"swatop/internal/tensor"
)

// packColMajor converts a row-major rank-2 tensor into a column-major slice
// with the given leading dimension.
func packColMajor(t *tensor.Tensor, ld int) []float32 {
	rows, cols := t.Dims[0], t.Dims[1]
	out := make([]float32, ld*cols)
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			out[j*ld+i] = t.At(i, j)
		}
	}
	return out
}

func gemmAgainstOracle(t *testing.T, spec GemmSpec) {
	t.Helper()
	am := tensor.New("a", spec.M, spec.K)
	bm := tensor.New("b", spec.K, spec.N)
	am.FillPattern()
	bm.FillPattern()
	want, err := tensor.ReferenceGemm(am, bm, 1, 0)
	if err != nil {
		t.Fatal(err)
	}

	var a, b []float32
	if spec.ATrans {
		// stored K×M column-major
		at := tensor.New("at", spec.K, spec.M)
		for i := 0; i < spec.M; i++ {
			for k := 0; k < spec.K; k++ {
				at.Set(am.At(i, k), k, i)
			}
		}
		a = packColMajor(at, spec.LDA)
	} else {
		a = packColMajor(am, spec.LDA)
	}
	if spec.BTrans {
		bt := tensor.New("bt", spec.N, spec.K)
		for k := 0; k < spec.K; k++ {
			for j := 0; j < spec.N; j++ {
				bt.Set(bm.At(k, j), j, k)
			}
		}
		b = packColMajor(bt, spec.LDB)
	} else {
		b = packColMajor(bm, spec.LDB)
	}

	c := make([]float32, spec.LDC*spec.N)
	if err := Gemm(spec, a, b, c); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < spec.N; j++ {
		for i := 0; i < spec.M; i++ {
			w := want.At(i, j)
			g := c[j*spec.LDC+i]
			if math.Abs(float64(w-g)) > 1e-3 {
				t.Fatalf("variant %+v: C(%d,%d) = %g, want %g", spec, i, j, g, w)
			}
		}
	}
}

func TestGemmAllEightVariants(t *testing.T) {
	for _, at := range []bool{false, true} {
		for _, bt := range []bool{false, true} {
			for _, vec := range []ir.VecDim{ir.VecM, ir.VecN} {
				spec := GemmSpec{
					M: 8, N: 12, K: 5,
					LDA: 16, LDB: 16, LDC: 16,
					ATrans: at, BTrans: bt, Vec: vec,
				}
				gemmAgainstOracle(t, spec)
			}
		}
	}
}

func TestGemmAccumulate(t *testing.T) {
	spec := GemmSpec{M: 4, N: 4, K: 4, LDA: 4, LDB: 4, LDC: 4, Accumulate: true}
	a := make([]float32, 16)
	b := make([]float32, 16)
	c := make([]float32, 16)
	for i := range a {
		a[i] = 1
		b[i] = 1
		c[i] = 10
	}
	if err := Gemm(spec, a, b, c); err != nil {
		t.Fatal(err)
	}
	if c[0] != 14 { // 10 + K*1
		t.Fatalf("accumulate: c[0] = %g, want 14", c[0])
	}
	spec.Accumulate = false
	if err := Gemm(spec, a, b, c); err != nil {
		t.Fatal(err)
	}
	if c[0] != 4 {
		t.Fatalf("overwrite: c[0] = %g, want 4", c[0])
	}
}

func TestGemmValidate(t *testing.T) {
	bad := []GemmSpec{
		{M: 0, N: 4, K: 4, LDA: 4, LDB: 4, LDC: 4},
		{M: 4, N: 4, K: 4, LDA: 3, LDB: 4, LDC: 4},               // LDA < M
		{M: 4, N: 4, K: 4, LDA: 4, LDB: 3, LDC: 4},               // LDB < K
		{M: 4, N: 4, K: 4, LDA: 4, LDB: 4, LDC: 3},               // LDC < M
		{M: 6, N: 4, K: 4, LDA: 6, LDB: 4, LDC: 6},               // vecM, M%4 != 0
		{M: 4, N: 6, K: 4, LDA: 4, LDB: 4, LDC: 4, Vec: ir.VecN}, // vecN, N%4 != 0
		{M: 4, N: 4, K: 8, LDA: 4, LDB: 8, LDC: 4, ATrans: true}, // LDA < K when A^T
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("case %d: %+v should fail validation", i, s)
		}
	}
	ok := GemmSpec{M: 6, N: 4, K: 4, LDA: 6, LDB: 4, LDC: 6, Vec: ir.VecN}
	if err := ok.Validate(); err != nil {
		t.Errorf("vecN with M=6 should be valid: %v", err)
	}
}

func TestGemmShortBuffers(t *testing.T) {
	spec := GemmSpec{M: 4, N: 4, K: 4, LDA: 4, LDB: 4, LDC: 4}
	buf := make([]float32, 15)
	full := make([]float32, 16)
	if err := Gemm(spec, buf, full, full); err == nil {
		t.Fatal("short A must error")
	}
	if err := Gemm(spec, full, buf, full); err == nil {
		t.Fatal("short B must error")
	}
	if err := Gemm(spec, full, full, buf); err == nil {
		t.Fatal("short C must error")
	}
}

func TestGemmTimeScaling(t *testing.T) {
	base := GemmSpec{M: 64, N: 64, K: 64, LDA: 64, LDB: 64, LDC: 64}
	t1, err := GemmTime(base)
	if err != nil {
		t.Fatal(err)
	}
	doubleK := base
	doubleK.K = 128
	doubleK.LDB = 128
	t2, err := GemmTime(doubleK)
	if err != nil {
		t.Fatal(err)
	}
	if t2 <= t1 || t2 > 2.5*t1 {
		t.Fatalf("K scaling off: %g -> %g", t1, t2)
	}
	// Near-peak efficiency on a big aligned call: ≥ 55% of 742 GFLOPS.
	big := GemmSpec{M: 512, N: 512, K: 512, LDA: 512, LDB: 512, LDC: 512}
	tb, _ := GemmTime(big)
	gflops := float64(big.FLOPs()) / tb / 1e9
	if gflops < 0.55*sw26010.PeakGFlops || gflops > sw26010.PeakGFlops {
		t.Fatalf("512³ gemm = %.0f GFLOPS (peak %.0f)", gflops, sw26010.PeakGFlops)
	}
}

func TestGemmTimeLayoutMatters(t *testing.T) {
	// vecM with column-major A (M leading) must beat vecM with transposed A.
	fast := GemmSpec{M: 256, N: 256, K: 256, LDA: 256, LDB: 256, LDC: 256, Vec: ir.VecM}
	slow := fast
	slow.ATrans = true
	tf, _ := GemmTime(fast)
	ts, _ := GemmTime(slow)
	if ts <= tf {
		t.Fatalf("layout should matter: fast %g, slow %g", tf, ts)
	}
}

func TestGemmTimeRemainderPenalty(t *testing.T) {
	aligned := GemmSpec{M: 256, N: 256, K: 128, LDA: 256, LDB: 128, LDC: 256}
	odd := GemmSpec{M: 260, N: 252, K: 128, LDA: 260, LDB: 128, LDC: 260}
	ta, _ := GemmTime(aligned)
	to, _ := GemmTime(odd)
	perFlopAligned := ta / float64(aligned.FLOPs())
	perFlopOdd := to / float64(odd.FLOPs())
	if perFlopOdd <= perFlopAligned {
		t.Fatal("mesh-unaligned shapes must pay a remainder penalty per flop")
	}
}

func TestSpecializedVariant(t *testing.T) {
	spec := GemmSpec{M: 256, N: 256, K: 256, LDA: 256, LDB: 256, LDC: 256}
	plain, _ := GemmTime(spec)
	spec.Specialized = true
	fast, _ := GemmTime(spec)
	if fast >= plain {
		t.Fatal("specialized variant must be faster on its sweet spot")
	}
	// Off the sweet spot the flag is inert.
	off := GemmSpec{M: 200, N: 256, K: 256, LDA: 200, LDB: 256, LDC: 200, Specialized: true}
	offPlain := off
	offPlain.Specialized = false
	a, _ := GemmTime(off)
	b, _ := GemmTime(offPlain)
	if a != b {
		t.Fatal("specialization must not apply off the sweet spot")
	}
	if !SpecializedApplies(512, 256, 512) || SpecializedApplies(512, 255, 512) {
		t.Fatal("SpecializedApplies predicate wrong on alignment")
	}
	// Square-like only: 4× aspect ratio is outside the tuned kernels.
	if SpecializedApplies(512, 256, 1024) {
		t.Fatal("skinny shapes must not qualify for the specialized kernel")
	}
}

func TestGemmTimeInvalidSpec(t *testing.T) {
	if _, err := GemmTime(GemmSpec{M: -1, N: 4, K: 4, LDA: 4, LDB: 4, LDC: 4}); err == nil {
		t.Fatal("invalid spec must error")
	}
}

// Property: GemmTime is positive, and monotone in M for mesh-aligned shapes
// (multiples of 32 keep every 4×4 register block full, so no remainder
// penalty interferes; unaligned shapes may legitimately be slower per flop
// than larger aligned ones).
func TestGemmTimeMonotoneQuick(t *testing.T) {
	f := func(m0, n0, k0 uint8) bool {
		m := (int(m0%16) + 1) * 32
		n := (int(n0%16) + 1) * 32
		k := (int(k0%16) + 1) * 8
		s := GemmSpec{M: m, N: n, K: k, LDA: m, LDB: k, LDC: m}
		t1, err := GemmTime(s)
		if err != nil || t1 <= 0 {
			return false
		}
		s2 := GemmSpec{M: m + 32, N: n, K: k, LDA: m + 32, LDB: k, LDC: m + 32}
		t2, err := GemmTime(s2)
		return err == nil && t2 >= t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestElems(t *testing.T) {
	s := GemmSpec{M: 8, N: 12, K: 5, LDA: 16, LDB: 16, LDC: 16}
	a, b, c := s.Elems()
	if a != 16*5 || b != 16*12 || c != 16*12 {
		t.Fatalf("elems = %d %d %d", a, b, c)
	}
	s.ATrans, s.BTrans = true, true
	a, b, _ = s.Elems()
	if a != 16*8 || b != 16*5 {
		t.Fatalf("transposed elems = %d %d", a, b)
	}
}
