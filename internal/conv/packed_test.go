package conv_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"swatop/internal/conv"
	"swatop/internal/dsl"
	"swatop/internal/exec"
	"swatop/internal/goldenpoints"
	"swatop/internal/ir"
)

// TestPackedMatchesPerCall: at every Winograd golden point (the per-call
// form) that compiles, the packed form compiles at the point's fused twin —
// the same no and ni tiles, loop order, U layout, vectorization and
// prefetching, and the largest p tile of the packed space's rows menu that
// the point's p tile holds and that compiles. Run on conv.Bind's operands
// (the packed program reading U transformed on the host from the weight
// the per-call program transforms itself), the twin writes a bit-identical
// output: each plane accumulates over the same Ni tiles in the same order.
// Timed, it takes less time. The packed program moves nothing but in, U and
// out. So does each strip twin, the same point with a p tile of one row's
// columns (every divisor of the row's tiles below it, times B), whether or
// not the packed space offers it: a strip changes which tiles a GEMM
// covers, never an output's accumulation order. Under -race only the first
// point runs functionally.
func TestPackedMatchesPerCall(t *testing.T) {
	points, err := goldenpoints.All()
	if err != nil {
		t.Fatal(err)
	}
	var packed *conv.WinogradOp
	checked, strip := 0, 0
	for _, pt := range points {
		perCall, ok := pt.Op.(*conv.WinogradOp)
		if !ok {
			continue
		}
		if !perCall.PerCall || packed != nil && packed.S != perCall.S {
			t.Fatalf("golden Winograd operator %s is not one per-call shape", perCall.Name())
		}
		if packed == nil {
			if packed, err = conv.NewWinogradOp(perCall.S); err != nil {
				t.Fatal(err)
			}
			if packed.Name() != conv.OpName(conv.Winograd, perCall.S) || packed.Name() == perCall.Name() {
				t.Fatalf("packed form named %s, per-call %s", packed.Name(), perCall.Name())
			}
		}
		want, err := perCall.Compile(pt.Strategy)
		if err != nil {
			continue
		}
		got, err := fusedTwin(packed, pt.Strategy)
		if err != nil {
			t.Fatalf("point %d: %v", pt.Index, err)
		}
		if moved := movedTensors(got); !slices.Equal(moved, []string{"U", "in", "out"}) {
			t.Fatalf("point %d: packed program moves %v", pt.Index, moved)
		}
		functional := !raceEnabled || checked == 0
		wantOut, wantSecs := runBound(t, want, functional)
		gotOut, gotSecs := runBound(t, got, functional)
		for i := range wantOut {
			if math.Float32bits(gotOut[i]) != math.Float32bits(wantOut[i]) {
				t.Fatalf("point %d: packed output[%d] = %v, per-call %v", pt.Index, i, gotOut[i], wantOut[i])
			}
		}
		if gotSecs >= wantSecs {
			t.Fatalf("point %d: packed program takes %g s, per-call %g s", pt.Index, gotSecs, wantSecs)
		}
		for _, fp := range strips(packed.S) {
			got, err := packed.Compile(packedTwin(pt.Strategy, fp))
			if err != nil {
				t.Fatalf("point %d, p tile %d: %v", pt.Index, fp, err)
			}
			if gotOut, _ = runBound(t, got, functional); !slices.EqualFunc(gotOut, wantOut, func(a, b float32) bool {
				return math.Float32bits(a) == math.Float32bits(b)
			}) {
				t.Fatalf("point %d: the strip twin at p tile %d writes another output than per-call", pt.Index, fp)
			}
			strip++
		}
		checked++
	}
	if checked == 0 || strip == 0 {
		t.Fatalf("%d Winograd golden points and %d strip twins compile", checked, strip)
	}
}

// strips are the p tiles of one row's strips of a shape: every divisor of
// its tiles across below their count, times B.
func strips(s conv.Shape) []int {
	var fps []int
	for cols := 1; cols < s.Co/2; cols++ {
		if s.Co/2%cols == 0 {
			fps = append(fps, cols*s.B)
		}
	}
	return fps
}

// fusedTwin compiles a per-call strategy's twin in the packed form's
// space: the largest p tile of the space's menu, whole rows of tiles, that
// the strategy's p tile holds and that compiles; the smallest if the
// strategy's tile holds none.
func fusedTwin(packed *conv.WinogradOp, st dsl.Strategy) (*ir.Program, error) {
	menu := slices.Clone(packed.Space().Factors["p"])
	slices.Sort(menu)
	var err error
	for i := len(menu) - 1; i >= 0; i-- {
		if menu[i] > st.Factors["p"] && i > 0 {
			continue
		}
		var prog *ir.Program
		if prog, err = packed.Compile(packedTwin(st, menu[i])); err == nil {
			return prog, nil
		}
	}
	return nil, fmt.Errorf("no fused twin in the p menu %v compiles: %w", menu, err)
}

// packedTwin is a per-call strategy's twin in the packed form at p tile
// fp: the same no and ni tiles, loop order, U layout, vectorization and
// prefetching.
func packedTwin(st dsl.Strategy, fp int) dsl.Strategy {
	return dsl.Strategy{
		Factors:      map[string]int{"no": st.Factors["no"], "ni": st.Factors["ni"], "p": fp},
		Order:        slices.DeleteFunc(slices.Clone(st.Order), func(a string) bool { return a == "xi" }),
		Layouts:      map[string][]int{"U": st.Layouts["U"]},
		Vec:          st.Vec,
		DoubleBuffer: st.DoubleBuffer,
	}
}

// runBound returns prog's timed-only seconds and, if functional, the output
// it writes from conv.Bind's operands.
func runBound(t *testing.T, prog *ir.Program, functional bool) ([]float32, float64) {
	t.Helper()
	var out []float32
	if functional {
		binds, err := conv.Bind(prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Run(prog, binds, exec.Options{Functional: true}); err != nil {
			t.Fatal(err)
		}
		out = binds["out"].Data
	}
	res, err := exec.RunVirtual(prog, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return out, res.Seconds
}

// movedTensors lists the tensors a compiled program's DMA moves, sorted.
func movedTensors(prog *ir.Program) []string {
	var moved []string
	ir.Walk(prog.Body, func(s ir.Stmt) bool {
		if op, ok := s.(*ir.DMAOp); ok && !slices.Contains(moved, op.Move.Tensor) {
			moved = append(moved, op.Move.Tensor)
		}
		return true
	})
	slices.Sort(moved)
	return moved
}
