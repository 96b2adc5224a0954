package baseline

import (
	"testing"

	"swatop/internal/conv"
	"swatop/internal/exec"
	"swatop/internal/gemm"
	"swatop/internal/ir"
	"swatop/internal/tensor"
)

func TestSwDNNRejectsBatchOne(t *testing.T) {
	s := conv.Shape{B: 1, Ni: 64, No: 64, Ro: 16, Co: 16, Kr: 3, Kc: 3}
	if _, err := SwDNNImplicit(s); err == nil {
		t.Fatal("swDNN must reject batch 1 (Fig. 5's missing manual bars)")
	}
}

func TestSwDNNImplicitCorrect(t *testing.T) {
	s := conv.Shape{B: 32, Ni: 24, No: 20, Ro: 6, Co: 6, Kr: 3, Kc: 3}
	prog, err := SwDNNImplicit(s)
	if err != nil {
		t.Fatal(err)
	}
	binds, err := conv.Bind(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Run(prog, binds, exec.Options{Functional: true}); err != nil {
		t.Fatalf("exec: %v", err)
	}
	want, err := tensor.ReferenceConv(binds["in"], binds["weight"], s)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(want, binds["out"]); d > 5e-2 {
		t.Fatalf("swDNN baseline wrong by %g", d)
	}
}

func TestXMathGemmCorrectUnaligned(t *testing.T) {
	p := gemm.Params{M: 100, N: 52, K: 40}
	prog, err := XMathGemm(p)
	if err != nil {
		t.Fatal(err)
	}
	binds, err := conv.Bind(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Run(prog, binds, exec.Options{Functional: true}); err != nil {
		t.Fatalf("exec: %v", err)
	}
	want, _ := tensor.ReferenceGemm(binds["A"], binds["B"], 1, 0)
	if d, _ := tensor.MaxAbsDiff(want, binds["C"]); d > 2e-2 {
		t.Fatalf("xMath baseline wrong by %g", d)
	}
}

func TestXMathUsesSpecializedKernels(t *testing.T) {
	prog, err := XMathGemm(gemm.Params{M: 512, N: 512, K: 512})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	ir.Walk(prog.Body, func(s ir.Stmt) bool {
		if g, ok := s.(*ir.Gemm); ok && g.Specialized {
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("xMath program should carry specialized GEMM calls")
	}
}

func TestManualWinogradCorrect(t *testing.T) {
	s := conv.Shape{B: 2, Ni: 8, No: 8, Ro: 6, Co: 6, Kr: 3, Kc: 3}
	prog, err := ManualWinograd(s)
	if err != nil {
		t.Fatal(err)
	}
	binds, err := conv.Bind(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Run(prog, binds, exec.Options{Functional: true}); err != nil {
		t.Fatalf("exec: %v", err)
	}
	want, _ := tensor.ReferenceConv(binds["in"], binds["weight"], s)
	if d, _ := tensor.MaxAbsDiff(want, binds["out"]); d > 5e-2 {
		t.Fatalf("manual winograd wrong by %g", d)
	}
}

func TestManualExplicitCorrect(t *testing.T) {
	s := conv.Shape{B: 2, Ni: 4, No: 8, Ro: 6, Co: 6, Kr: 3, Kc: 3}
	prog, err := ManualExplicit(s)
	if err != nil {
		t.Fatal(err)
	}
	binds, err := conv.Bind(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Run(prog, binds, exec.Options{Functional: true}); err != nil {
		t.Fatalf("exec: %v", err)
	}
	w4 := tensor.NewConvFilter(s)
	for no := 0; no < s.No; no++ {
		for ni := 0; ni < s.Ni; ni++ {
			for kr := 0; kr < s.Kr; kr++ {
				for kc := 0; kc < s.Kc; kc++ {
					w4.Set(binds["weight2d"].At(no, (ni*s.Kr+kr)*s.Kc+kc), no, ni, kr, kc)
				}
			}
		}
	}
	want, _ := tensor.ReferenceConv(binds["in"], w4, s)
	got, err := conv.ExplicitOutput4D(binds["out2d"], s)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(want, got); d > 5e-2 {
		t.Fatalf("manual explicit wrong by %g", d)
	}
}

func TestXMathBlockSnapping(t *testing.T) {
	cases := map[int]int{8192: 256, 256: 256, 200: 256, 100: 128, 64: 64}
	for in, want := range cases {
		if got := xmathBlock(in); got != want {
			t.Errorf("xmathBlock(%d) = %d, want %d", in, got, want)
		}
	}
	if manualBlock(300) != 256 || manualBlock(50) != 48 || manualBlock(3) != 3 {
		t.Fatalf("manualBlock wrong: %d %d %d", manualBlock(300), manualBlock(50), manualBlock(3))
	}
}
