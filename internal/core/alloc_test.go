package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"swatop/internal/goldenpoints"
)

// TestCompileAllocBudget caps what compiling one candidate allocates —
// lowering, InjectPrefetch and InferDMA, the per-candidate cost of every
// tuner — at four golden points with double buffering on: a GEMM and an
// implicit, an explicit and a Winograd convolution (the golden operators
// are warm here, so explicit and Winograd compile only their own phases).
// It caps both the allocation count and the bytes: a pass that trades
// objects for oversized backing arrays would lower the one and raise the
// other. The byte caps are what the compile allocated once the explicit and
// Winograd operators compiled their strategy-independent phases once; the
// count caps are measured after the prefetch pass and the nest builder took
// the nodes they emit from one exactly sized slab per kind, per loop and
// per nest. The copying, map-keeping passes allocated 685, 466, 595 and 850
// times, the per-field plan 473, 306, 386 and 539, the plan without
// per-field slices 396, 206, 305 and 454, the shared phases 387, 197, 194
// and 298, and the prefetch slabs 294, 135, 147 and 219.
func TestCompileAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	type cost struct{ allocs, bytes uint64 }
	budget := map[string]cost{
		"gemm_200x200x200[13]":                           {273, 22992},
		"implicit_conv_b1_ni128_no128_r56x56_k3x3[1020]": {105, 14712},
		"explicit_conv_b8_ni64_no96_r14x14_k3x3[13]":     {123, 12784},
		"winograd_conv_b8_ni64_no96_r14x14_k3x3[13]":     {192, 19632},
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
		compile := func() {
			if _, err := pt.Op.Compile(pt.Strategy); err != nil {
				t.Fatal(err)
			}
		}
		// The mean over n compiles after a warm-up, the least of three such
		// means: another goroutine's allocation can only add to one.
		const n = 10
		compile()
		got := cost{^uint64(0), ^uint64(0)}
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for j := 0; j < n; j++ {
				compile()
			}
			runtime.ReadMemStats(&after)
			got.allocs = min(got.allocs, (after.Mallocs-before.Mallocs)/n)
			got.bytes = min(got.bytes, (after.TotalAlloc-before.TotalAlloc)/n)
		}
		t.Logf("%s: %d allocations, %d B per compile", name, got.allocs, got.bytes)
		if got.allocs > limit.allocs || got.bytes > limit.bytes {
			t.Errorf("%s: compiling allocates %d times / %d B, budget %d / %d B",
				name, got.allocs, got.bytes, limit.allocs, limit.bytes)
		}
	}
	if len(budget) > 0 {
		t.Fatalf("not golden points: %v", budget)
	}
}
