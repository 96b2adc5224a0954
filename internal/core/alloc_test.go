package core_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"swatop/internal/conv"
	"swatop/internal/dsl"
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
// and 298, and the prefetch slabs 294, 135, 147 and 219; explicit and
// Winograd went down by 6 allocations and 208 B once the prefetch pass
// rebuilt an issue's shared subtrees once (ir.Memo), and the traditionally
// padded GEMM point, which builds a seed per compile, up by 64 B for the
// halo field of its three tensors.
func TestCompileAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	budget := map[string]cost{
		"gemm_200x200x200[13]":                           {273, 21856},
		"implicit_conv_b1_ni128_no128_r56x56_k3x3[1020]": {105, 13896},
		"explicit_conv_b8_ni64_no96_r14x14_k3x3[13]":     {117, 11984},
		"winograd_conv_b8_ni64_no96_r14x14_k3x3[13]":     {186, 18401},
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
		got := compileCost(t, pt.Op, pt.Strategy)
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

// compileCost is what compiling st on a warm op allocates: the mean over n
// compiles after a warm-up, the least of three such means (another
// goroutine's allocation can only add to one).
func compileCost(t *testing.T, op goldenpoints.Op, st dsl.Strategy) cost {
	t.Helper()
	compile := func() {
		if _, err := op.Compile(st); err != nil {
			t.Fatal(err)
		}
	}
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
	return got
}

type cost struct{ allocs, bytes uint64 }

// TestPaddedCompileAllocBudget caps what compiling the padded twins of two
// golden points allocates: the implicit point's strategy on the shape with
// Pad = 1, and the Winograd point's fused twin (its tiles, p in whole rows
// of tiles) in the packed form with Pad = 1, the form a network runs and
// the only one that reads a halo. They are built here, beside the goldens,
// so that the goldens' programs stay as they are. The halo's clipped move,
// its zero-fills and the GEMM's guard cost the implicit point 13 more
// allocations and 1 361 B than its unpadded twin, the Winograd point 17
// and 1 464 B more than the packed form without a pad.
func TestPaddedCompileAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	budget := map[string]cost{
		"implicit_conv_b1_ni128_no128_r56x56_k3x3_pad1[1020]":   {118, 15257},
		"winograd_fused_conv_b8_ni64_no96_r14x14_k3x3_pad1[13]": {204, 15920},
	}
	points, err := goldenpoints.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		var op, plain goldenpoints.Op
		st := pt.Strategy
		switch o := pt.Op.(type) {
		case *conv.ImplicitOp:
			s := o.S
			s.Pad = 1
			op, err = conv.NewImplicitOp(s)
			plain = pt.Op
		case *conv.WinogradOp:
			s := o.S
			plain, err = conv.NewWinogradOp(s)
			if err == nil {
				s.Pad = 1
				op, err = conv.NewWinogradOp(s)
			}
			if err == nil {
				st, err = fusedTwin(op, st)
			}
		default:
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s[%d]", op.Name(), pt.Index)
		limit, ok := budget[name]
		if !ok {
			continue
		}
		delete(budget, name)
		got, base := compileCost(t, op, st), compileCost(t, plain, st)
		t.Logf("%s: %d allocations, %d B per compile, %d and %d B over %s", name, got.allocs, got.bytes,
			got.allocs-base.allocs, got.bytes-base.bytes, plain.Name())
		if got.allocs > limit.allocs || got.bytes > limit.bytes {
			t.Errorf("%s: compiling allocates %d times / %d B, budget %d / %d B",
				name, got.allocs, got.bytes, limit.allocs, limit.bytes)
		}
	}
	if len(budget) > 0 {
		t.Fatalf("no golden point twins: %v", budget)
	}
}

// fusedTwin is a per-call Winograd strategy's twin in the packed form's
// space: its tiles and order, and the largest p tile of the space, whole
// rows of 2×2 tiles, that the strategy's p tile holds and that compiles.
func fusedTwin(packed goldenpoints.Op, st dsl.Strategy) (dsl.Strategy, error) {
	twin := dsl.Strategy{
		Factors:      map[string]int{"no": st.Factors["no"], "ni": st.Factors["ni"]},
		Order:        slices.DeleteFunc(slices.Clone(st.Order), func(a string) bool { return a == "xi" }),
		Layouts:      map[string][]int{"U": st.Layouts["U"]},
		Vec:          st.Vec,
		DoubleBuffer: st.DoubleBuffer,
	}
	menu := slices.Clone(packed.Space().Factors["p"])
	slices.Sort(menu)
	var err error
	for i := len(menu) - 1; i >= 0; i-- {
		if menu[i] > st.Factors["p"] && i > 0 {
			continue
		}
		twin.Factors["p"] = menu[i]
		if _, err = packed.Compile(twin); err == nil {
			return twin, nil
		}
	}
	return twin, fmt.Errorf("no fused twin in the p menu %v compiles: %w", menu, err)
}
