package conv

import (
	"strings"
	"testing"
	"testing/quick"

	"swatop/internal/core"
	"swatop/internal/dsl"
	"swatop/internal/exec"
	"swatop/internal/ir"
	"swatop/internal/tensor"
)

// Property: the implicit conv pipeline is correct for random small shapes
// and random fusion/tile choices.
func TestImplicitConvPropertyQuick(t *testing.T) {
	f := func(b0, ni0, no0, r0, fno0, fni0, fco0, vec0 uint8) bool {
		s := Shape{
			B:  int(b0%4)*2 + 2, // 2..8, even
			Ni: int(ni0%2)*16 + 16,
			No: int(no0%3)*8 + 8,
			Ro: int(r0%3)*2 + 4,
			Co: int(r0%3)*2 + 4,
			Kr: 3, Kc: 3,
		}
		fnos := []int{8, 16, 24}
		fnis := []int{16, 32}
		fcos := []int{1, 2, 4}
		st := dsl.Strategy{
			Factors: map[string]int{
				"no": minInt(fnos[int(fno0)%3], s.No),
				"ni": minInt(fnis[int(fni0)%2], s.Ni),
				"co": minInt(fcos[int(fco0)%3], s.Co),
				"b":  s.B,
			},
			Order:        []string{"ro", "co", "no", "kr", "kc", "ni"},
			Layouts:      map[string][]int{"out": {0, 1, 2, 3}},
			Vec:          ir.VecDim(int(vec0) % 2),
			DoubleBuffer: true,
		}
		op, err := NewImplicitOp(s)
		if err != nil {
			return false
		}
		prog, err := op.Compile(st)
		if err != nil {
			return true // pruned (vec alignment etc.)
		}
		binds, err := Bind(prog)
		if err != nil {
			return false
		}
		if _, err := exec.Run(prog, binds, exec.Options{Functional: true}); err != nil {
			t.Logf("exec %v %v: %v", s, st, err)
			return false
		}
		want, err := tensor.ReferenceConv(binds["in"], binds["weight"], s)
		if err != nil {
			return false
		}
		if d, _ := tensor.MaxAbsDiff(want, binds["out"]); d > 5e-2 {
			t.Logf("wrong by %g: %v %v", d, s, st)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestImplicitSpaceSizesPaperBand(t *testing.T) {
	// The paper reports average schedule-space sizes of ~350-450 per conv
	// layer (Table 3); our spaces should be the same order of magnitude.
	op, err := NewImplicitOp(Shape{B: 32, Ni: 256, No: 256, Ro: 28, Co: 28, Kr: 3, Kc: 3})
	if err != nil {
		t.Fatal(err)
	}
	raw := 1
	for _, f := range op.Space().Factors {
		raw *= len(f)
	}
	raw *= len(op.Space().Orders) * len(op.Space().Vecs)
	for _, l := range op.Space().Layouts {
		raw *= len(l)
	}
	if raw < 100 || raw > 2000 {
		t.Fatalf("raw space %d outside the paper's order of magnitude", raw)
	}
}

func TestWinogradChunkCap(t *testing.T) {
	s := Shape{B: 2, Ni: 16, No: 16, Ro: 8, Co: 8, Kr: 3, Kc: 3}
	op, err := NewPerCallOp(Winograd, s)
	if err != nil {
		t.Fatal(err)
	}
	st := winogradStrategy(16, 16, 32, ir.VecM)
	free, err := op.Compile(st)
	if err != nil {
		t.Fatal(err)
	}
	capOp, err := NewWinogradOp(s)
	if err != nil {
		t.Fatal(err)
	}
	capOp.PerCall = true
	capOp.TransformChunkCap = 1
	capped, err := capOp.Compile(st)
	if err != nil {
		t.Fatal(err)
	}
	// The capped transforms are shared like the automatic ones.
	raw, err := capOp.CompileRaw(st)
	if err == nil {
		raw, err = core.Optimize(raw, st)
	}
	if err != nil || ir.Print(capped) != ir.Print(raw) {
		t.Fatalf("capped program differs from the raw one optimized whole (err %v)", err)
	}
	bf, _ := exec.BindVirtual(free)
	rf, err := exec.Run(free, bf, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bc, _ := exec.BindVirtual(capped)
	rc, err := exec.Run(capped, bc, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Seconds <= rf.Seconds {
		t.Fatalf("chunk cap 1 should be slower: %.3g vs %.3g", rc.Seconds, rf.Seconds)
	}
	if rc.Counters.DMAOps <= rf.Counters.DMAOps {
		t.Fatal("chunk cap 1 should issue more DMA operations")
	}
}

func TestExplicitHelpers(t *testing.T) {
	s := Shape{B: 2, Ni: 3, No: 4, Ro: 5, Co: 5, Kr: 3, Kc: 3}
	w := tensor.NewConvFilter(s)
	w.FillPattern()
	w2, err := ExplicitWeight2D(w, s)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Dims[0] != s.No || w2.Dims[1] != s.Ni*9 {
		t.Fatalf("weight2d dims %v", w2.Dims)
	}
	if w2.At(1, (1*s.Kr+1)*s.Kc+1) != w.At(1, 1, 1, 1) {
		t.Fatal("weight flattening order wrong")
	}
	m := tensor.New("m", s.No, s.Ro*s.Co*s.B)
	m.FillPattern()
	out4, err := ExplicitOutput4D(m, s)
	if err != nil {
		t.Fatal(err)
	}
	if out4.At(2, 1, 3, 1) != m.At(2, (1*s.Co+3)*s.B+1) {
		t.Fatal("output scatter order wrong")
	}
}

func TestImplicitIRShowsAlgorithm2Structure(t *testing.T) {
	// Golden-ish check: the lowered implicit conv shows the paper's Alg. 2
	// structure — spatial loops outside, DMA-fed GEMM primitives inside.
	s := Shape{B: 32, Ni: 64, No: 64, Ro: 8, Co: 8, Kr: 3, Kc: 3}
	op, err := NewImplicitOp(s)
	if err != nil {
		t.Fatal(err)
	}
	st := implicitStrategy(64, 64, 2, ir.VecN, []int{0, 1, 2, 3})
	st.Factors["b"] = s.B
	prog, err := op.Compile(st)
	if err != nil {
		t.Fatal(err)
	}
	out := ir.Print(prog)
	for _, want := range []string{
		"for cro in [0, 8):",
		"for ckr in [0, 3):",
		"gemm",
		"dma_get",
		"dma_put",
		"nx_", // auto-prefetching next-iteration inference
	} {
		if !strings.Contains(out, want) {
			t.Errorf("implicit conv IR missing %q", want)
		}
	}
}
