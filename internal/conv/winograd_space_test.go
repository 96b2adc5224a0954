package conv_test

import (
	"testing"

	"swatop/internal/conv"
	"swatop/internal/dsl"
	"swatop/internal/exec"
	"swatop/internal/gemm"
	"swatop/internal/schedule"
	"swatop/internal/tensor"
)

// checkSpace is the differential check of one operator's whole schedule
// space: every point Dims.At(i) that compiles (every eighth under -race)
// runs functionally on conv.Bind's operands, and ref returns the operator's
// reference output without the ReLU epilogue and what the program wrote.
// The two must agree within tol once the reference is clamped at zero where
// relu is set, and the reference must hold values of both signs, or the
// clamp would go unchecked. It returns how many points compiled.
func checkSpace(t *testing.T, op dsl.Operator, relu bool, tol float64,
	ref func(binds map[string]*tensor.Tensor) (want, got *tensor.Tensor, err error)) int {
	t.Helper()
	dims, err := schedule.Describe(op.Seed(), op.Space())
	if err != nil {
		t.Fatal(err)
	}
	step := 1
	if raceEnabled {
		step = 8
	}
	compiled, neg, pos := 0, false, false
	for i := 0; i < dims.Size(); i += step {
		st := dims.At(i)
		prog, err := op.Compile(st)
		if err != nil {
			continue
		}
		compiled++
		binds, err := conv.Bind(prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Run(prog, binds, exec.Options{Functional: true}); err != nil {
			t.Fatalf("%s point %d (%v): %v", op.Name(), i, st, err)
		}
		want, got, err := ref(binds)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range want.Data {
			neg, pos = neg || v < 0, pos || v > 0
			if relu {
				want.Data[j] = max(v, 0)
			}
		}
		if d, err := tensor.MaxAbsDiff(want, got); err != nil || d > tol {
			t.Fatalf("%s point %d (%v): differs from the reference by %g (%v)", op.Name(), i, st, d, err)
		}
	}
	if compiled > 0 && !(neg && pos) {
		t.Fatalf("%s: the reference output holds one sign only", op.Name())
	}
	t.Logf("%s: %d of %d points checked", op.Name(), compiled, dims.Size())
	return compiled
}

// checkTwins runs checkSpace on a shape's operator without and with the
// ReLU epilogue: the two spaces must have exactly as many valid points.
func checkTwins(t *testing.T, build func(relu bool) (dsl.Operator, error), tol float64,
	ref func(map[string]*tensor.Tensor) (*tensor.Tensor, *tensor.Tensor, error)) {
	t.Helper()
	var valid [2]int
	for i, relu := range []bool{false, true} {
		op, err := build(relu)
		if err != nil {
			t.Fatal(err)
		}
		if valid[i] = checkSpace(t, op, relu, tol, ref); valid[i] == 0 {
			t.Fatalf("%s: no point compiles", op.Name())
		}
	}
	if valid[0] != valid[1] {
		t.Fatalf("the ReLU space has %d valid points, its plain twin %d", valid[1], valid[0])
	}
}

// convRef is the direct convolution of a program's in and weight, read
// through the 4-D weight that weight2d flattens where the program has one,
// against its out, read through the 4-D output of out2d where it has one.
func convRef(s conv.Shape) func(map[string]*tensor.Tensor) (*tensor.Tensor, *tensor.Tensor, error) {
	return func(binds map[string]*tensor.Tensor) (*tensor.Tensor, *tensor.Tensor, error) {
		w, got := binds["weight"], binds["out"]
		if w2 := binds["weight2d"]; w2 != nil {
			w = tensor.NewConvFilter(s)
			for f := range w.Data {
				w.Data[f] = w2.At(f/(s.Ni*s.Kr*s.Kc), f%(s.Ni*s.Kr*s.Kc))
			}
			var err error
			if got, err = conv.ExplicitOutput4D(binds["out2d"], s); err != nil {
				return nil, nil, err
			}
		}
		s.ReLU = false
		want, err := tensor.ReferenceConv(binds["in"], w, s)
		return want, got, err
	}
}

// TestWinogradSpaceMatchesReference is a differential check over the whole
// Winograd schedule space of small shapes: in both forms, every point that
// compiles writes the direct convolution (tensor.ReferenceConv) within the
// reference tests' tolerance, and the packed form, the one a network runs,
// max(0, that) with the ReLU epilogue, which the per-call form rejects. The
// shapes take B = 2, Ni ≠ No, partial no and ni tiles, and a P that no p
// tile divides.
func TestWinogradSpaceMatchesReference(t *testing.T) {
	shapes := []conv.Shape{
		{B: 2, Ni: 4, No: 8, Ro: 24, Co: 24, Kr: 3, Kc: 3},
		{B: 1, Ni: 36, No: 40, Ro: 10, Co: 8, Kr: 3, Kc: 3},
	}
	for _, s := range shapes {
		for _, perCall := range []bool{false, true} {
			build := func(relu bool) (*conv.WinogradOp, error) {
				s.ReLU = relu
				op, err := conv.NewWinogradOp(s)
				if err == nil {
					op.PerCall = perCall
				}
				return op, err
			}
			if perCall {
				op, err := build(true)
				if err != nil {
					t.Fatal(err)
				}
				if n := checkSpace(t, op, true, 5e-2, convRef(s)); n != 0 {
					t.Fatalf("%s: %d per-call points compile with the ReLU epilogue", op.Name(), n)
				}
				op, err = build(false)
				if err != nil {
					t.Fatal(err)
				}
				if checkSpace(t, op, false, 5e-2, convRef(s)) == 0 {
					t.Fatalf("%s: no point compiles", op.Name())
				}
				continue
			}
			checkTwins(t, func(relu bool) (dsl.Operator, error) { return build(relu) }, 5e-2, convRef(s))
		}
	}
}

// TestEpilogueSpacesMatchReference is the same check over the implicit,
// explicit and GEMM spaces, each with and without the ReLU epilogue, on
// two small shapes each: B (or N) = 2, Ni ≠ No (M ≠ K) and odd extents.
func TestEpilogueSpacesMatchReference(t *testing.T) {
	convs := []struct {
		method string
		s      conv.Shape
	}{
		{conv.Implicit, conv.Shape{B: 2, Ni: 16, No: 24, Ro: 5, Co: 7, Kr: 3, Kc: 3}},
		{conv.Implicit, conv.Shape{B: 2, Ni: 20, No: 12, Ro: 3, Co: 5, Kr: 1, Kc: 1}},
		{conv.Explicit, conv.Shape{B: 2, Ni: 3, No: 8, Ro: 5, Co: 7, Kr: 3, Kc: 3}},
		{conv.Explicit, conv.Shape{B: 2, Ni: 6, No: 4, Ro: 3, Co: 3, Kr: 1, Kc: 1}},
	}
	for _, c := range convs {
		checkTwins(t, func(relu bool) (dsl.Operator, error) {
			s := c.s
			s.ReLU = relu
			return conv.NewOp(c.method, s)
		}, 5e-2, convRef(c.s))
	}
	for _, p := range []gemm.Params{{M: 20, N: 2, K: 36}, {M: 12, N: 5, K: 30}} {
		checkTwins(t, func(relu bool) (dsl.Operator, error) {
			p.ReLU = relu
			return gemm.NewOp(p)
		}, 1e-3, func(binds map[string]*tensor.Tensor) (*tensor.Tensor, *tensor.Tensor, error) {
			want, err := tensor.ReferenceGemm(binds["A"], binds["B"], 1, 0)
			return want, binds["C"], err
		})
	}
}
