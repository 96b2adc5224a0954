// Winograd convolution: tune the F(2×2,3×3) method on a VGG16 layer,
// verify it against the direct convolution numerically, and show why its
// "efficiency" can exceed 100% when counted in direct-convolution FLOPs
// (the accounting the paper's Fig. 8 uses).
package main

import (
	"fmt"
	"log"

	"swatop"
	"swatop/internal/conv"
	"swatop/internal/dsl"
	"swatop/internal/exec"
	"swatop/internal/ir"
	"swatop/internal/sw26010"
	"swatop/internal/tensor"
)

func main() {
	tuner, err := swatop.NewTuner()
	if err != nil {
		log.Fatal(err)
	}

	// VGG16 conv4-class layer at batch 32.
	s := swatop.ConvShape{B: 32, Ni: 256, No: 256, Ro: 28, Co: 28, Kr: 3, Kc: 3}
	tuned, err := tuner.TuneConv(swatop.Winograd, s)
	if err != nil {
		log.Fatal(err)
	}
	directGF := float64(s.FLOPs()) / tuned.Seconds() / 1e9
	fmt.Printf("layer            : %v\n", s)
	fmt.Printf("selected schedule: %s\n", tuned.Strategy())
	fmt.Printf("simulated time   : %.4g ms\n", tuned.Seconds()*1e3)
	fmt.Printf("direct-conv rate : %.0f GFLOPS = %.0f%% of core-group peak\n",
		directGF, directGF/sw26010.PeakGFlops*100)
	fmt.Println("(Winograd performs ~2.25× fewer multiplies than direct conv, so")
	fmt.Println(" this accounting can exceed 100% — exactly as in the paper's Fig. 8)")

	manual, err := swatop.BaselineConvSeconds(swatop.Winograd, s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("manual (xMath)   : %.4g ms → speedup %.2fx\n", manual*1e3, manual/tuned.Seconds())

	// Functional verification on a small shape (the full layer would take
	// a while in functional simulation).
	small := conv.Shape{B: 2, Ni: 8, No: 8, Ro: 8, Co: 8, Kr: 3, Kc: 3}
	op, err := conv.NewWinogradOp(small)
	if err != nil {
		log.Fatal(err)
	}
	op.PerCall = true // the filter transform runs in the program, as in the tuned call above
	st := dsl.Strategy{
		Factors:      map[string]int{"no": 8, "ni": 8, "p": 32},
		Order:        []string{"xi", "no", "p", "ni"},
		Layouts:      map[string][]int{"U": {0, 1, 2}, "V": {0, 1, 2}, "M": {0, 1, 2}},
		Vec:          ir.VecM,
		DoubleBuffer: true,
	}
	prog, err := op.Compile(st)
	if err != nil {
		log.Fatal(err)
	}
	binds, err := conv.Bind(prog)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := exec.Run(prog, binds, exec.Options{Functional: true}); err != nil {
		log.Fatal(err)
	}
	want, err := tensor.ReferenceConv(binds["in"], binds["weight"], small)
	if err != nil {
		log.Fatal(err)
	}
	diff, err := tensor.MaxAbsDiff(want, binds["out"])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verification     : max |error| vs direct conv = %.3g (shape %v)\n", diff, small)
}
