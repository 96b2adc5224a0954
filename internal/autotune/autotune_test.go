package autotune

import (
	"testing"

	"swatop/internal/conv"
	"swatop/internal/costmodel"
	"swatop/internal/dsl"
	"swatop/internal/exec"
	"swatop/internal/gemm"
	"swatop/internal/ir"
	"swatop/internal/schedule"
	"swatop/internal/tensor"
)

var cachedModel *costmodel.GemmModel

func model(t *testing.T) *costmodel.GemmModel {
	t.Helper()
	if cachedModel == nil {
		m, err := costmodel.FitGemmModel()
		if err != nil {
			t.Fatal(err)
		}
		cachedModel = m
	}
	return cachedModel
}

// smallOp trims the GEMM space so brute force stays fast in tests.
func smallOp(t *testing.T, p gemm.Params) *gemm.Op {
	t.Helper()
	op, err := gemm.NewOp(p)
	if err != nil {
		t.Fatal(err)
	}
	sp := op.Space()
	sp.Factors["m"] = []int{32, 64}
	sp.Factors["n"] = []int{32, 64}
	sp.Factors["k"] = []int{64, 128}
	sp.Orders = [][]string{{"m", "n", "k"}}
	sp.Layouts = map[string][][]int{"C": {{1, 0}}, "A": {{0, 1}, {1, 0}}, "B": {{0, 1}}}
	return op
}

// enumerate collects schedule.Stream into a slice.
func enumerate(op Operator) (sts []dsl.Strategy, err error) {
	err = schedule.Stream(op.Seed(), op.Space(), func(_ int, st dsl.Strategy) bool { sts = append(sts, st); return true })
	return sts, err
}

func TestEnumerateDeterministicAndComplete(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 128, N: 128, K: 128})
	s1, err := enumerate(op)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := enumerate(op)
	if err != nil {
		t.Fatal(err)
	}
	// 2 m-factors × 2 n × 2 k × 1 order × 2 A-layouts × 2 vecs = 32
	if len(s1) != 32 {
		t.Fatalf("space size = %d, want 32", len(s1))
	}
	for i := range s1 {
		if s1[i].String() != s2[i].String() {
			t.Fatalf("enumeration not deterministic at %d", i)
		}
	}
}

func TestEnumerateClipsInvalidFactors(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 48, N: 48, K: 48})
	// Factor 64 > extent 48 must be dropped, leaving only 32.
	sts, err := enumerate(op)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sts {
		if st.Factors["m"] > 48 {
			t.Fatalf("factor beyond extent leaked: %v", st)
		}
	}
}

func TestEnumerateRejectsUnknownNames(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 64, N: 64, K: 64})
	op.Space().Factors["ghost"] = []int{2}
	if _, err := schedule.Describe(op.Seed(), op.Space()); err == nil {
		t.Fatal("unknown axis must be rejected")
	}
	delete(op.Space().Factors, "ghost")
	op.Space().Layouts["Ghost"] = [][]int{{0, 1}}
	if _, err := schedule.Describe(op.Seed(), op.Space()); err == nil {
		t.Fatal("unknown tensor must be rejected")
	}
}

func TestModelBasedFindsNearOptimal(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 256, N: 256, K: 256})
	bb, err := BlackBox(op)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := ModelBased(op, model(t))
	if err != nil {
		t.Fatal(err)
	}
	if bb.Valid != mb.Valid || bb.Valid == 0 {
		t.Fatalf("tuners disagree on valid candidates: %d vs %d", bb.Valid, mb.Valid)
	}
	// The paper's Fig. 9 claim: ≤8% loss vs brute force.
	loss := mb.Best.Measured/bb.Best.Measured - 1
	if loss > 0.08 {
		t.Fatalf("model-based pick loses %.1f%% vs brute force (model %.3g, best %.3g)",
			loss*100, mb.Best.Measured, bb.Best.Measured)
	}
	// And the machine-time ledger scales with the candidate count: the
	// black-box tuner pays per candidate, swATOP pays TopK launches (the
	// Table 3 gap is candidates/TopK at real space sizes of ~350-450).
	if ratio := bb.MachineSeconds / mb.MachineSeconds; ratio < float64(bb.Valid)/(2*TopK) {
		t.Fatalf("black-box/swATOP machine time ratio %.1f too small for %d candidates",
			ratio, bb.Valid)
	}
}

func TestModelBasedBestIsRunnableAndCorrect(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 100, N: 52, K: 40}) // boundary-heavy
	mb, err := ModelBased(op, model(t))
	if err != nil {
		t.Fatal(err)
	}
	prog := mb.Best.Program
	binds, err := conv.Bind(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Run(prog, binds, exec.Options{Functional: true}); err != nil {
		t.Fatalf("best candidate fails functionally: %v", err)
	}
	want, _ := tensor.ReferenceGemm(binds["A"], binds["B"], 1, 0)
	if d, _ := tensor.MaxAbsDiff(want, binds["C"]); d > 2e-2 {
		t.Fatalf("tuned program wrong by %g", d)
	}
}

func TestTunerSkipsInvalidCandidates(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 64, N: 64, K: 64})
	// Poison the space with an over-capacity factor and a misaligned one;
	// the tuner must skip them, not fail.
	op.Space().Factors["m"] = append(op.Space().Factors["m"], 63) // 63%4 != 0 for vecM
	mb, err := ModelBased(op, model(t))
	if err != nil {
		t.Fatal(err)
	}
	if mb.Valid >= mb.SpaceSize {
		t.Fatalf("expected pruning: valid %d of %d", mb.Valid, mb.SpaceSize)
	}
}

func TestBlackBoxOnEmptySpaceFails(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 64, N: 64, K: 64})
	op.Space().Vecs = []ir.VecDim{}
	if _, err := BlackBox(op); err == nil {
		t.Fatal("empty vec candidates must error")
	}
}

func TestStrategiesAreIndependent(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 128, N: 128, K: 128})
	sts, err := enumerate(op)
	if err != nil {
		t.Fatal(err)
	}
	sts[0].Factors["m"] = 999
	if sts[1].Factors["m"] == 999 {
		t.Fatal("strategies share factor maps")
	}
}
