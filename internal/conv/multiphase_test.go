package conv

import (
	"slices"
	"testing"

	"swatop/internal/dsl"
	"swatop/internal/exec"
	"swatop/internal/ir"
	"swatop/internal/tensor"
)

func explicitStrategy(fm, fn, fk int, vec ir.VecDim) dsl.Strategy {
	return dsl.Strategy{
		Factors:      map[string]int{"m": fm, "n": fn, "k": fk},
		Order:        []string{"m", "n", "k"},
		Layouts:      map[string][]int{"weight2d": {0, 1}, "col": {0, 1}, "out2d": {1, 0}},
		Vec:          vec,
		DoubleBuffer: true,
	}
}

func runExplicit(t *testing.T, s Shape, st dsl.Strategy) exec.Result {
	t.Helper()
	op, err := NewExplicitOp(s)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := op.Compile(st)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	binds, err := Bind(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(prog, binds, exec.Options{Functional: true})
	if err != nil {
		t.Fatalf("exec: %v\n%s", err, ir.Print(prog))
	}
	// Oracle: reconstruct the 4-D weight from the bound 2-D operand.
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
	want, err := tensor.ReferenceConv(binds["in"], w4, s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExplicitOutput4D(binds["out2d"], s)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(want, got); d > 5e-2 {
		t.Fatalf("explicit conv differs from direct conv by %g", d)
	}
	return res
}

func TestExplicitConvBasic(t *testing.T) {
	s := Shape{B: 2, Ni: 4, No: 8, Ro: 6, Co: 6, Kr: 3, Kc: 3}
	runExplicit(t, s, explicitStrategy(8, 24, 12, ir.VecM))
}

func TestExplicitConvBoundariesAndLayouts(t *testing.T) {
	s := Shape{B: 3, Ni: 5, No: 10, Ro: 5, Co: 7, Kr: 3, Kc: 3}
	st := explicitStrategy(8, 32, 16, ir.VecM)
	runExplicit(t, s, st)
	st.Layouts["weight2d"] = []int{1, 0}
	st.Layouts["out2d"] = []int{0, 1} // transposed-C path
	st.Vec = ir.VecN
	runExplicit(t, s, st)
}

func TestExplicitConvSmallNi(t *testing.T) {
	// The first-layer case (Ni=3) that implicit conv rejects: explicit
	// handles it — the paper uses explicit where the others cannot apply.
	s := Shape{B: 2, Ni: 3, No: 8, Ro: 8, Co: 8, Kr: 3, Kc: 3}
	runExplicit(t, s, explicitStrategy(8, 32, 9, ir.VecM))
}

func winogradStrategy(fno, fni, fp int, vec ir.VecDim) dsl.Strategy {
	return dsl.Strategy{
		Factors:      map[string]int{"no": fno, "ni": fni, "p": fp},
		Order:        []string{"xi", "no", "p", "ni"},
		Layouts:      map[string][]int{"U": {0, 1, 2}, "V": {0, 1, 2}, "M": {0, 1, 2}},
		Vec:          vec,
		DoubleBuffer: true,
	}
}

// runWinograd runs st in the per-call form and, where the strategy keeps M
// in the planes' layout, in the packed form too; each must write the direct
// convolution.
func runWinograd(t *testing.T, s Shape, st dsl.Strategy) {
	t.Helper()
	for _, perCall := range []bool{true, false} {
		op, err := NewWinogradOp(s)
		if err != nil {
			t.Fatal(err)
		}
		op.PerCall = perCall
		if !perCall && !slices.IsSorted(st.Layouts["M"]) {
			continue
		}
		prog, err := op.Compile(st)
		if err != nil {
			t.Fatalf("compile %s: %v", op.Name(), err)
		}
		binds, err := Bind(prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Run(prog, binds, exec.Options{Functional: true}); err != nil {
			t.Fatalf("exec: %v\n%s", err, ir.Print(prog))
		}
		want, err := tensor.ReferenceConv(binds["in"], binds["weight"], s)
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := tensor.MaxAbsDiff(want, binds["out"]); d > 5e-2 {
			t.Fatalf("%s differs from direct conv by %g", op.Name(), d)
		}
	}
}

func TestWinogradConvBasic(t *testing.T) {
	s := Shape{B: 2, Ni: 4, No: 8, Ro: 6, Co: 6, Kr: 3, Kc: 3}
	runWinograd(t, s, winogradStrategy(8, 4, 12, ir.VecM))
}

func TestWinogradConvLayoutsAndVec(t *testing.T) {
	s := Shape{B: 2, Ni: 4, No: 8, Ro: 4, Co: 8, Kr: 3, Kc: 3}
	st := winogradStrategy(8, 4, 16, ir.VecM)
	runWinograd(t, s, st)
	st.Layouts = map[string][]int{"U": {0, 2, 1}, "V": {0, 1, 2}, "M": {0, 2, 1}}
	runWinograd(t, s, st)
	st.Vec = ir.VecN
	runWinograd(t, s, st)
}

func TestWinogradConvBoundaryTiles(t *testing.T) {
	// ni=6 with tile 4 → K boundary; p=24 with tile 16 → N boundary.
	s := Shape{B: 2, Ni: 6, No: 8, Ro: 6, Co: 4, Kr: 3, Kc: 3}
	st := winogradStrategy(8, 4, 8, ir.VecM)
	runWinograd(t, s, st)
}

func TestWinogradRejectsInapplicable(t *testing.T) {
	if _, err := NewWinogradOp(Shape{B: 1, Ni: 4, No: 4, Ro: 7, Co: 8, Kr: 3, Kc: 3}); err == nil {
		t.Fatal("odd Ro must be rejected")
	}
	if _, err := NewWinogradOp(Shape{B: 1, Ni: 4, No: 4, Ro: 8, Co: 8, Kr: 5, Kc: 5}); err == nil {
		t.Fatal("5×5 kernel must be rejected")
	}
	if !WinogradApplies(Shape{B: 1, Ni: 4, No: 4, Ro: 8, Co: 8, Kr: 3, Kc: 3}) {
		t.Fatal("8×8 3×3 should apply")
	}
}

func TestWinogradBeatsExplicitOnItsHomeTurf(t *testing.T) {
	// Same shape, timed-only: the Winograd method's arithmetic saving must
	// show up against the explicit method (2.25× fewer multiplies).
	s := Shape{B: 8, Ni: 32, No: 32, Ro: 16, Co: 16, Kr: 3, Kc: 3}
	wop, err := NewWinogradOp(s)
	if err != nil {
		t.Fatal(err)
	}
	wprog, err := wop.Compile(winogradStrategy(32, 32, 256, ir.VecM))
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := exec.BindVirtual(wprog)
	wres, err := exec.Run(wprog, wb, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eop, err := NewExplicitOp(s)
	if err != nil {
		t.Fatal(err)
	}
	eprog, err := eop.Compile(explicitStrategy(32, 512, 128, ir.VecM))
	if err != nil {
		t.Fatal(err)
	}
	eb, _ := exec.BindVirtual(eprog)
	eres, err := exec.Run(eprog, eb, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if wres.Seconds >= eres.Seconds {
		t.Fatalf("winograd %.3g should beat explicit %.3g here", wres.Seconds, eres.Seconds)
	}
}
