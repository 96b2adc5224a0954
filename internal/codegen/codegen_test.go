package codegen

import (
	"strings"
	"testing"

	"swatop/internal/core"
	"swatop/internal/dsl"
	"swatop/internal/gemm"
	"swatop/internal/ir"
	"swatop/internal/lower"
)

func compileGemm(t *testing.T, p gemm.Params, db bool) *ir.Program {
	t.Helper()
	seed, err := gemm.Seed(p)
	if err != nil {
		t.Fatal(err)
	}
	st := dsl.Strategy{
		Factors:      map[string]int{"m": 32, "n": 32, "k": 32},
		Order:        []string{"m", "n", "k"},
		Layouts:      map[string][]int{"C": {1, 0}},
		Vec:          ir.VecM,
		DoubleBuffer: db,
	}
	prog, err := core.Compile(seed, st)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestEmitCStructure(t *testing.T) {
	prog := compileGemm(t, gemm.Params{M: 64, N: 64, K: 64}, true)
	src, err := EmitC(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"__thread_local float spm_region[",
		"#define spm_A (spm_region + 0)",
		"void gemm_64x64x64(float *A, float *B, float *C)",
		"athread_row()",
		"swDMA(",
		"swDMAWait(",
		"spm_gemm_",
		"SW_VEC_M",
		"for (long cm = 0; cm < 2; cm++)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated C missing %q\n%s", want, src)
		}
	}
	if strings.Count(src, "{") != strings.Count(src, "}") {
		t.Fatal("unbalanced braces in generated C")
	}
	if strings.Count(src, "(") != strings.Count(src, ")") {
		t.Fatal("unbalanced parentheses in generated C")
	}
}

func TestEmitCDoubleBufferArtifacts(t *testing.T) {
	prog := compileGemm(t, gemm.Params{M: 128, N: 128, K: 128}, true)
	src, err := EmitC(prog)
	if err != nil {
		t.Fatal(err)
	}
	// Next-iteration inference and parity offsets appear in the code.
	for _, want := range []string{"nx_ck", "g_ck", "% 2)"} {
		if !strings.Contains(src, want) {
			t.Errorf("prefetching artifact %q missing from generated C", want)
		}
	}
	// The doubled frames are reflected in the region size: all three
	// 32×32 frames double-buffered (inputs prefetched, output put async).
	if !strings.Contains(src, "spm_region[6144]") {
		t.Errorf("coalesced region size wrong:\n%s", firstLines(src, 12))
	}
}

func TestEmitCBoundaryMin(t *testing.T) {
	prog := compileGemm(t, gemm.Params{M: 50, N: 44, K: 38}, false)
	src, err := EmitC(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "min(") {
		t.Error("boundary extents should appear as min() in generated C")
	}
	if !strings.Contains(src, "spm_zerofill(") {
		t.Error("lightweight padding zero-fill missing")
	}
}

// TestEmitCReLUEpilogue: a GEMM with the ReLU epilogue clamps its C frame
// in place, in SPM, before the C put; its plain twin has no clamp.
func TestEmitCReLUEpilogue(t *testing.T) {
	p := gemm.Params{M: 64, N: 64, K: 64, ReLU: true}
	src, err := EmitC(compileGemm(t, p, false))
	if err != nil {
		t.Fatal(err)
	}
	relu, put := strings.Index(src, "spm_relu(spm_C + "), strings.Index(src, "spm_C + 0, (1024)/64, 32, stride(C), SPM_TO_MEM")
	if relu < 0 || put <= relu {
		t.Errorf("no in-place spm_relu of spm_C before its put:\n%s", src)
	}
	p.ReLU = false
	if plain, err := EmitC(compileGemm(t, p, false)); err != nil || strings.Contains(plain, "spm_relu(") {
		t.Errorf("a GEMM without the epilogue emits spm_relu (%v)", err)
	}
}

func TestEmitCRejectsUninferredMoves(t *testing.T) {
	seed, _ := gemm.Seed(gemm.Params{M: 32, N: 32, K: 32})
	st := dsl.Strategy{
		Factors: map[string]int{"m": 32, "n": 32, "k": 32},
		Layouts: map[string][]int{"C": {1, 0}},
		Vec:     ir.VecM,
	}
	prog, err := lower.Lower(seed, st) // no optimizer passes
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EmitC(prog); err == nil {
		t.Fatal("un-inferred RegionMoves must be rejected")
	}
}

func TestEmitCSpecializedKernelName(t *testing.T) {
	prog := compileGemm(t, gemm.Params{M: 64, N: 64, K: 64}, false)
	ir.Walk(prog.Body, func(s ir.Stmt) bool {
		if g, ok := s.(*ir.Gemm); ok {
			g.Specialized = true
		}
		return true
	})
	src, err := EmitC(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "_asm256(") {
		t.Error("specialized kernel name missing")
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
