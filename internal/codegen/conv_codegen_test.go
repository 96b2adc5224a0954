package codegen

import (
	"strings"
	"testing"

	"swatop/internal/conv"
	"swatop/internal/dsl"
	"swatop/internal/ir"
)

// The code generator must handle every node kind the three convolution
// lowerings produce — including the Winograd transform calls and the
// multi-phase structure.
func TestEmitCWinogradProgram(t *testing.T) {
	s := conv.Shape{B: 8, Ni: 32, No: 32, Ro: 16, Co: 16, Kr: 3, Kc: 3}
	op, err := conv.NewWinogradOp(s)
	if err != nil {
		t.Fatal(err)
	}
	op.PerCall = true
	prog, err := op.Compile(dsl.Strategy{
		Factors:      map[string]int{"no": 32, "ni": 32, "p": 256},
		Order:        []string{"xi", "no", "p", "ni"},
		Layouts:      map[string][]int{"U": {0, 1, 2}, "V": {0, 1, 2}, "M": {0, 1, 2}},
		Vec:          ir.VecM,
		DoubleBuffer: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := EmitC(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"phase F: filter transform",
		"phase I: input transform",
		"phase G: 16 batched GEMMs",
		"phase O: output transform",
		"sw_wino_filter(",
		"sw_wino_input_slab(",
		"sw_wino_output_slab(",
		"spm_gemm_",
		"float *in, float *weight, float *out, float *U, float *V, float *M",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("winograd C missing %q", want)
		}
	}
	if strings.Count(src, "{") != strings.Count(src, "}") {
		t.Fatal("unbalanced braces")
	}
}

func TestEmitCImplicitConvProgram(t *testing.T) {
	s := conv.Shape{B: 32, Ni: 64, No: 64, Ro: 14, Co: 14, Kr: 3, Kc: 3}
	op, err := conv.NewImplicitOp(s)
	if err != nil {
		t.Fatal(err)
	}
	st := dsl.Strategy{
		Factors:      map[string]int{"no": 64, "ni": 64, "co": 2, "b": 32},
		Order:        []string{"ro", "co", "no", "kr", "kc", "ni"},
		Layouts:      map[string][]int{"weight": {2, 3, 0, 1}, "in": {0, 1, 2, 3}, "out": {0, 1, 2, 3}},
		Vec:          ir.VecN,
		DoubleBuffer: true,
	}
	prog, err := op.Compile(st)
	if err != nil {
		t.Fatal(err)
	}
	src, err := EmitC(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"for (long cro = 0; cro < 14; cro++)",
		"for (long ckr = 0; ckr < 3; ckr++)",
		// The batch-fastest output layout routes through the transposed-C
		// formulation, flipping the user-level vecN to primitive vecM.
		"SW_VEC_M",
		"// dma get in",
		"// dma put out",
		"if (nx_cro <", // prefetch validity guard (outermost chain iterator)
	} {
		if !strings.Contains(src, want) {
			t.Errorf("implicit conv C missing %q\n%s", want, src[:min(len(src), 2000)])
		}
	}
}

func TestEmitCExplicitConvProgram(t *testing.T) {
	s := conv.Shape{B: 4, Ni: 8, No: 16, Ro: 8, Co: 8, Kr: 3, Kc: 3}
	op, err := conv.NewExplicitOp(s)
	if err != nil {
		t.Fatal(err)
	}
	st := dsl.Strategy{
		Factors:      map[string]int{"m": 16, "n": 64, "k": 72},
		Order:        []string{"m", "n", "k"},
		Layouts:      map[string][]int{"weight2d": {0, 1}, "col": {0, 1}, "out2d": {1, 0}},
		Vec:          ir.VecM,
		DoubleBuffer: true,
	}
	prog, err := op.Compile(st)
	if err != nil {
		t.Fatal(err)
	}
	src, err := EmitC(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"phase 1: im2col materialization", "phase 2: tiled GEMM", "col"} {
		if !strings.Contains(src, want) {
			t.Errorf("explicit conv C missing %q", want)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
