package lower_test

import (
	"strings"
	"testing"

	"swatop/internal/dsl"
	"swatop/internal/exec"
	"swatop/internal/gemm"
	"swatop/internal/ir"
	"swatop/internal/lower"
	"swatop/internal/tensor"
)

func gemmStrategy(fm, fn, fk int, vec ir.VecDim) dsl.Strategy {
	return dsl.Strategy{
		Factors: map[string]int{"m": fm, "n": fn, "k": fk},
		Order:   []string{"m", "n", "k"},
		Layouts: map[string][]int{"C": {1, 0}},
		Vec:     vec,
	}
}

// runGemm lowers a GEMM with the given strategy, runs it functionally, and
// compares against the oracle.
func runGemm(t *testing.T, p gemm.Params, st dsl.Strategy) exec.Result {
	t.Helper()
	seed, err := gemm.Seed(p)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(seed, st)
	if err != nil {
		t.Fatalf("lower(%v): %v", st, err)
	}
	binds, err := gemm.Bind(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(prog, binds, exec.Options{Functional: true})
	if err != nil {
		t.Fatalf("exec(%v): %v\n%s", st, err, ir.Print(prog))
	}
	want, err := tensor.ReferenceGemm(binds["A"], binds["B"], 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(want, binds["C"]); d > 2e-2 {
		t.Fatalf("strategy %v: result differs from oracle by %g\n%s", st, d, ir.Print(prog))
	}
	return res
}

func TestLowerGemmExactTiles(t *testing.T) {
	runGemm(t, gemm.Params{M: 64, N: 64, K: 64}, gemmStrategy(32, 32, 32, ir.VecM))
}

func TestLowerGemmBoundaryTiles(t *testing.T) {
	// 50 % 32 != 0 on every dimension: boundary processing everywhere.
	runGemm(t, gemm.Params{M: 50, N: 44, K: 38}, gemmStrategy(32, 32, 32, ir.VecM))
}

func TestLowerGemmBoundaryVecN(t *testing.T) {
	runGemm(t, gemm.Params{M: 44, N: 50, K: 38}, gemmStrategy(32, 32, 32, ir.VecN))
}

func TestLowerGemmSingleTile(t *testing.T) {
	// Factors equal to extents: no loops at all.
	runGemm(t, gemm.Params{M: 32, N: 32, K: 32}, gemmStrategy(32, 32, 32, ir.VecM))
}

func TestLowerGemmAllOrders(t *testing.T) {
	p := gemm.Params{M: 48, N: 40, K: 56}
	for _, order := range [][]string{
		{"m", "n", "k"}, {"n", "m", "k"}, {"k", "m", "n"}, {"m", "k", "n"},
	} {
		st := gemmStrategy(16, 16, 16, ir.VecM)
		st.Order = order
		runGemm(t, p, st)
	}
}

func TestLowerGemmLayouts(t *testing.T) {
	p := gemm.Params{M: 40, N: 36, K: 28}
	for _, la := range [][]int{{0, 1}, {1, 0}} {
		for _, lb := range [][]int{{0, 1}, {1, 0}} {
			st := gemmStrategy(20, 12, 14, ir.VecM)
			st.Layouts = map[string][]int{"A": la, "B": lb, "C": {1, 0}}
			runGemm(t, p, st)
		}
	}
}

func TestLowerTransposedOutputLayout(t *testing.T) {
	// C stored row-major (N fastest) lowers through the transposed
	// formulation Cᵀ = Bᵀ·Aᵀ and stays correct — including boundaries.
	for _, vec := range []ir.VecDim{ir.VecM, ir.VecN} {
		st := gemmStrategy(16, 16, 16, vec)
		st.Layouts = map[string][]int{"C": {0, 1}}
		runGemm(t, gemm.Params{M: 40, N: 36, K: 28}, st)
		st.Layouts = map[string][]int{"A": {1, 0}, "B": {1, 0}, "C": {0, 1}}
		runGemm(t, gemm.Params{M: 40, N: 36, K: 28}, st)
	}
}

func TestLowerRejectsVecMisalignment(t *testing.T) {
	seed, _ := gemm.Seed(gemm.Params{M: 32, N: 32, K: 32})
	st := gemmStrategy(10, 16, 16, ir.VecM) // vec dim tile 10 % 4 != 0
	if _, err := lower.Lower(seed, st); err == nil {
		t.Fatal("vec-misaligned full tile must be rejected")
	}
	// ...but the same factor is fine when vectorizing the other dimension.
	st.Vec = ir.VecN
	if _, err := lower.Lower(seed, st); err != nil {
		t.Fatalf("vecN with M tile 10 should lower: %v", err)
	}
}

func TestLowerRejectsOverCapacity(t *testing.T) {
	seed, err := gemm.Seed(gemm.Params{M: 4096, N: 4096, K: 4096})
	if err != nil {
		t.Fatal(err)
	}
	st := gemmStrategy(4096, 4096, 256, ir.VecM)
	if _, err := lower.Lower(seed, st); err == nil {
		t.Fatal("SPM-overflowing tiles must be rejected")
	}
}

func TestLowerRejectsTiledSpatialAxis(t *testing.T) {
	s := dsl.NewSeed("bad")
	s.AddAxis("m", 32, dsl.RoleM)
	s.AddAxis("n", 32, dsl.RoleN)
	s.AddAxis("k", 32, dsl.RoleK)
	s.AddAxis("r", 8, dsl.RoleSpatial)
	s.AddTensor("A", []int{32, 32}, dsl.OperandA, dsl.Dim("m"), dsl.Dim("k"))
	s.AddTensor("B", []int{39, 32}, dsl.OperandB, dsl.Dims(dsl.T("k", 1), dsl.T("r", 1)), dsl.Dim("n"))
	s.AddTensor("C", []int{32, 32}, dsl.OperandC, dsl.Dim("m"), dsl.Dim("n"))
	st := dsl.Strategy{
		Factors: map[string]int{"m": 16, "n": 16, "k": 16, "r": 4},
		Layouts: map[string][]int{"C": {1, 0}},
		Vec:     ir.VecM,
	}
	if _, err := lower.Lower(s, st); err == nil {
		t.Fatal("tiling a spatial axis must be rejected")
	}
}

func TestLowerHoistsInvariantMoves(t *testing.T) {
	// Order (m, n, k): A depends on (m, k) — its Get must sit inside the k
	// loop; B depends on (k, n) — also innermost; C depends on (m, n) —
	// its residency is the n loop, outside k.
	seed, _ := gemm.Seed(gemm.Params{M: 128, N: 128, K: 128})
	st := gemmStrategy(32, 32, 32, ir.VecM)
	prog, err := lower.Lower(seed, st)
	if err != nil {
		t.Fatal(err)
	}
	nest := ir.LoopNest(prog.Body)
	if len(nest) != 3 {
		t.Fatalf("want 3 loops, got %d\n%s", len(nest), ir.Print(prog))
	}
	// C's zero-fill (no reduction outside its depth) lives in the n loop
	// body, not the k loop body.
	nLoop, kLoop := nest[1], nest[2]
	cInN := false
	for _, s := range nLoop.Body {
		if tr, ok := s.(*ir.Transform); ok && tr.Kind == ir.ZeroFill && tr.Dst == "spm_C" {
			cInN = true
		}
	}
	if !cInN {
		t.Fatalf("C zero-init not hoisted to its residency loop:\n%s", ir.Print(prog))
	}
	for _, s := range kLoop.Body {
		if mv, ok := s.(*ir.RegionMove); ok && mv.Tensor == "C" {
			t.Fatalf("C moved inside the k loop:\n%s", ir.Print(prog))
		}
	}
}

func TestLowerCRefetchUnderOuterReduction(t *testing.T) {
	// Order (k, m, n): the reduction loop is outermost, so C must be
	// re-fetched (Get) and accumulated, not zero-filled.
	seed, _ := gemm.Seed(gemm.Params{M: 64, N: 64, K: 64})
	st := gemmStrategy(32, 32, 32, ir.VecM)
	st.Order = []string{"k", "m", "n"}
	prog, err := lower.Lower(seed, st)
	if err != nil {
		t.Fatal(err)
	}
	out := ir.Print(prog)
	if !strings.Contains(out, "region_get C") {
		t.Fatalf("C must be re-fetched under an outer reduction loop:\n%s", out)
	}
	// And it still computes the right answer.
	runGemm(t, gemm.Params{M: 64, N: 64, K: 64}, st)
}

func TestLowerFrameAllocationsAndFrees(t *testing.T) {
	seed, _ := gemm.Seed(gemm.Params{M: 64, N: 64, K: 64})
	prog, err := lower.Lower(seed, gemmStrategy(32, 32, 32, ir.VecM))
	if err != nil {
		t.Fatal(err)
	}
	allocs := ir.CountKind(prog.Body, func(s ir.Stmt) bool { _, ok := s.(*ir.AllocSPM); return ok })
	frees := ir.CountKind(prog.Body, func(s ir.Stmt) bool { _, ok := s.(*ir.FreeSPM); return ok })
	if allocs != 3 || frees != 3 {
		t.Fatalf("allocs=%d frees=%d, want 3/3", allocs, frees)
	}
}

// TestLowerStrategyComment: the nest opens with the strategy as a comment;
// the text is produced where it is printed, and survives cloning.
func TestLowerStrategyComment(t *testing.T) {
	seed, _ := gemm.Seed(gemm.Params{M: 64, N: 64, K: 64})
	st := gemmStrategy(32, 32, 32, ir.VecM)
	prog, err := lower.Lower(seed, st)
	if err != nil {
		t.Fatal(err)
	}
	want := "  // strategy: " + st.String() + "\n"
	if !strings.Contains(ir.Print(prog), want) || !strings.Contains(ir.Print(prog.Clone()), want) {
		t.Fatalf("printed program lacks %q:\n%s", want, ir.Print(prog))
	}
}

func TestPlanExposesEstimates(t *testing.T) {
	seed, _ := gemm.Seed(gemm.Params{M: 64, N: 64, K: 64})
	plan, err := lower.NewPlan(seed, gemmStrategy(32, 32, 32, ir.VecM))
	if err != nil {
		t.Fatal(err)
	}
	nest, err := plan.BuildNest()
	if err != nil {
		t.Fatal(err)
	}
	est := map[string]int64{}
	ir.Walk(nest, func(s ir.Stmt) bool {
		if a, ok := s.(*ir.AllocSPM); ok {
			est[a.Buf] = a.Elems.Eval(nil)
		}
		return true
	})
	if est["spm_A"] != 32*32 || est["spm_B"] != 32*32 || est["spm_C"] != 32*32 {
		t.Fatalf("frame estimates wrong: %v", est)
	}
}

func TestLowerTimingSensibleToTileSize(t *testing.T) {
	// Tiny tiles must be slower than healthy tiles on the same problem.
	p := gemm.Params{M: 256, N: 256, K: 256}
	small := runGemm(t, p, gemmStrategy(8, 8, 16, ir.VecM))
	big := runGemm(t, p, gemmStrategy(128, 128, 128, ir.VecM))
	if big.Seconds >= small.Seconds {
		t.Fatalf("128³ tiles (%.3g s) should beat 8×8×16 tiles (%.3g s)", big.Seconds, small.Seconds)
	}
}
