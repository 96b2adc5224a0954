package core_test

import (
	"fmt"
	"testing"

	"swatop/internal/goldenpoints"
)

// TestCompileAllocBudget caps what compiling one candidate allocates —
// lowering, InjectPrefetch and InferDMA, the per-candidate cost of every
// tuner — at four golden points with double buffering on: a GEMM and an
// implicit, an explicit and a Winograd convolution. The caps are the counts
// measured once a lowering plan kept its per-dimension state in one backing
// array per element type and its axes in one slice, the prefetch pass
// substituted through its loop chain instead of two maps, and the explicit
// and Winograd operators compiled their strategy-independent phases once
// (the golden operators are warm here). The prefetch pass builds each issue
// straight from a shallow snapshot, and InferDMA copies only the lists that
// hold a move. The copying, map-keeping passes allocated 685, 466, 595 and
// 850, the per-field plan 473, 306, 386 and 539, and the plan without
// per-field slices 396, 206, 305 and 454.
func TestCompileAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	budget := map[string]float64{
		"gemm_200x200x200[13]":                           387,
		"implicit_conv_b1_ni128_no128_r56x56_k3x3[1020]": 197,
		"explicit_conv_b8_ni64_no96_r14x14_k3x3[13]":     194,
		"winograd_conv_b8_ni64_no96_r14x14_k3x3[13]":     298,
	}
	points, err := goldenpoints.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		name := fmt.Sprintf("%s[%d]", pt.Op.Name(), pt.Index)
		limit, ok := budget[name]
		if !ok {
			continue
		}
		delete(budget, name)
		if !pt.Strategy.DoubleBuffer {
			t.Fatalf("%s: the point does not double-buffer", name)
		}
		got := testing.AllocsPerRun(10, func() {
			if _, err := pt.Op.Compile(pt.Strategy); err != nil {
				t.Fatal(err)
			}
		})
		if got > limit {
			t.Errorf("%s: compiling allocates %v times, budget %v", name, got, limit)
		}
	}
	if len(budget) > 0 {
		t.Fatalf("not golden points: %v", budget)
	}
}
