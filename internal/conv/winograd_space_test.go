package conv_test

import (
	"testing"

	"swatop/internal/conv"
	"swatop/internal/exec"
	"swatop/internal/schedule"
	"swatop/internal/tensor"
)

// TestWinogradSpaceMatchesReference is a differential check over the whole
// Winograd schedule space of small shapes: in both forms, every point
// Dims.At(i) that compiles runs functionally on conv.Bind's operands and
// writes the direct convolution (tensor.ReferenceConv) within the reference
// tests' tolerance. The shapes take B = 2, Ni ≠ No, partial no and ni
// tiles, and a P that no p tile divides. Under -race every eighth point
// runs.
func TestWinogradSpaceMatchesReference(t *testing.T) {
	shapes := []conv.Shape{
		{B: 2, Ni: 4, No: 8, Ro: 24, Co: 24, Kr: 3, Kc: 3},
		{B: 1, Ni: 36, No: 40, Ro: 10, Co: 8, Kr: 3, Kc: 3},
	}
	for _, s := range shapes {
		for _, perCall := range []bool{false, true} {
			op, err := conv.NewWinogradOp(s)
			if err != nil {
				t.Fatal(err)
			}
			op.PerCall = perCall
			dims, err := schedule.Describe(op.Seed(), op.Space())
			if err != nil {
				t.Fatal(err)
			}
			compiled := 0
			step := 1
			if raceEnabled {
				step = 8
			}
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
				want, err := tensor.ReferenceConv(binds["in"], binds["weight"], s)
				if err != nil {
					t.Fatal(err)
				}
				if d, _ := tensor.MaxAbsDiff(want, binds["out"]); d > 5e-2 {
					t.Fatalf("%s point %d (%v): differs from the direct convolution by %g", op.Name(), i, st, d)
				}
			}
			if compiled == 0 {
				t.Fatalf("%s: no point of %d compiles", op.Name(), dims.Size())
			}
			t.Logf("%s: %d of %d points checked", op.Name(), compiled, dims.Size())
		}
	}
}
