package costmodel

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"swatop/internal/conv"
	"swatop/internal/core"
	"swatop/internal/dsl"
	"swatop/internal/exec"
	"swatop/internal/gemm"
	"swatop/internal/ir"
	"swatop/internal/primitives"
	"swatop/internal/tensor"
)

var fitted *GemmModel

func model(t *testing.T) *GemmModel {
	t.Helper()
	if fitted == nil {
		m, err := FitGemmModel()
		if err != nil {
			t.Fatal(err)
		}
		fitted = m
	}
	return fitted
}

func TestLeastSquaresRecoversExact(t *testing.T) {
	// y = 3a + 2b - c + 5 exactly.
	truth := [4]float64{3, 2, -1, 5}
	var rows [][4]float64
	var ys []float64
	for i := 0; i < 20; i++ {
		r := [4]float64{float64(i % 7), float64((i * 3) % 5), float64((i * 7) % 11), 1}
		rows = append(rows, r)
		ys = append(ys, truth[0]*r[0]+truth[1]*r[1]+truth[2]*r[2]+truth[3])
	}
	got, err := leastSquares4(rows, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(got[i]-truth[i]) > 1e-9 {
			t.Fatalf("coef %d = %g, want %g", i, got[i], truth[i])
		}
	}
}

func TestLeastSquaresSingular(t *testing.T) {
	rows := [][4]float64{{1, 1, 0, 0}, {2, 2, 0, 0}, {3, 3, 0, 0}, {4, 4, 0, 0}}
	if _, err := leastSquares4(rows, []float64{1, 2, 3, 4}); err == nil {
		t.Fatal("collinear design must be reported singular")
	}
	if _, err := leastSquares4(rows[:2], []float64{1, 2}); err == nil {
		t.Fatal("underdetermined system must error")
	}
}

func TestGemmModelAccuracyOnAlignedShapes(t *testing.T) {
	m := model(t)
	// On mesh-aligned shapes the fit should be within a few percent.
	for _, sz := range [][3]int{{64, 64, 64}, {128, 128, 128}, {256, 128, 64}, {96, 192, 128}} {
		spec := primitives.GemmSpec{
			M: sz[0], N: sz[1], K: sz[2],
			LDA: sz[0], LDB: sz[2], LDC: sz[0],
		}
		truth, err := primitives.GemmTime(spec)
		if err != nil {
			t.Fatal(err)
		}
		pred := m.Predict(sz[0], sz[1], sz[2], false, false, ir.VecM)
		rel := math.Abs(pred-truth) / truth
		if rel > 0.10 {
			t.Errorf("shape %v: model off by %.1f%% (pred %.3g, truth %.3g)", sz, rel*100, pred, truth)
		}
	}
}

func TestGemmModelMispredictsRemainders(t *testing.T) {
	// Unaligned shapes carry remainder penalties the linear basis cannot
	// express: the model should err noticeably more there (that is the
	// designed model-vs-hardware gap of Fig. 9).
	m := model(t)
	spec := primitives.GemmSpec{M: 132, N: 124, K: 100, LDA: 132, LDB: 100, LDC: 132}
	truth, err := primitives.GemmTime(spec)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Predict(132, 124, 100, false, false, ir.VecM)
	if pred == truth {
		t.Fatal("model should not be exact on unaligned shapes")
	}
}

func TestDMATimeTransactionModel(t *testing.T) {
	tally := func(blocks ...tensor.Blocks) dmaTally {
		var a dmaTally
		for _, b := range blocks {
			a.add(b)
		}
		return a
	}
	// One aligned 128-byte block: exactly one transaction.
	one := tally(tensor.Blocks{Offset: 0, Block: 32, Stride: 32, Count: 1})
	if one.transactions != 1 || one.payload != 128 {
		t.Fatalf("aligned block: %+v, want 1 transaction / 128 payload bytes", one)
	}
	// Misaligned 32-float block spanning two transactions.
	two := tally(tensor.Blocks{Offset: 16, Block: 32, Stride: 32, Count: 1})
	if two.transactions != 2 || two.payload != 128 || two.seconds() <= one.seconds() {
		t.Fatalf("misaligned block must touch more transactions for the same payload: %+v", two)
	}
	// Bandwidth term scales with count (the single-block time is
	// startup-dominated, so compare against a generous multiple).
	many := tally(tensor.Blocks{Offset: 0, Block: 32, Stride: 64, Count: 1000})
	if many.seconds() <= 5*one.seconds() {
		t.Fatal("many blocks must cost much more than one")
	}
	// Start-up latency is charged per operation, not per descriptor: two
	// descriptors in one tally cost one start-up plus both bandwidth terms.
	pair := tally(
		tensor.Blocks{Offset: 0, Block: 32, Stride: 64, Count: 500},
		tensor.Blocks{Offset: 32000, Block: 32, Stride: 64, Count: 500})
	if pair != many {
		t.Fatalf("split pattern tallies %+v, whole pattern %+v", pair, many)
	}
}

func TestEstimateRankMismatchIsError(t *testing.T) {
	// A malformed move must fail the candidate with an error, the way
	// exec.dma does, not panic the estimator on an index out of range.
	prog := &ir.Program{
		Name:    "bad",
		Tensors: []ir.TensorDecl{{Name: "A", Dims: []int{8, 8}}},
	}
	for _, mv := range []*ir.RegionMove{
		{Tensor: "A", Start: []ir.Expr{ir.Const(0)}, Extent: []ir.Expr{ir.Const(1), ir.Const(1)}},
		{Tensor: "A", Start: []ir.Expr{ir.Const(0), ir.Const(0)}, Extent: []ir.Expr{ir.Const(1)}},
		{Tensor: "A"},
	} {
		prog.Body = []ir.Stmt{&ir.DMAOp{Move: *mv, Reply: "rw0"}}
		_, err := EstimateProgram(model(t), prog)
		if err == nil || !strings.Contains(err.Error(), "region rank") {
			t.Fatalf("start %d extent %d on a rank-2 tensor: err = %v, want a region rank error",
				len(mv.Start), len(mv.Extent), err)
		}
	}
}

// firstPass counts the DMA descriptors the estimator streams on its
// first-iteration walk of a program (every loop at iteration 0).
type firstPass struct {
	ir.FirstPass
	tensors []*tensor.Tensor
	descs   int
}

func (f *firstPass) Move(_ *ir.RegionMove, mv *ir.Op) error {
	descs, err := tensor.Region{Start: mv.Start(), Extent: mv.Extent()}.FlattenMulti(f.tensors[mv.A])
	f.descs += len(descs)
	return err
}

func firstPassDescriptors(t *testing.T, p *ir.Program) int {
	t.Helper()
	f := firstPass{}
	for _, d := range p.Tensors {
		x, err := tensor.NewVirtual(d.Name, d.Dims, d.Layout)
		if err != nil {
			t.Fatal(err)
		}
		f.tensors = append(f.tensors, x)
	}
	if err := ir.Bind(p).Run(&f); err != nil {
		t.Fatal(err)
	}
	return f.descs
}

func TestEstimateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under -race: sync.Pool drops items at random")
	}
	// Scoring a candidate must cost what it computes: EstimateProgram's
	// allocation count is a property of the program's statement structure,
	// not of how many DMA descriptors its regions flatten into. One VGG16
	// implicit-conv schedule, compiled with channel tiles of 8 and of 128,
	// gives the same statement list moving regions with >10× the
	// descriptors (half-row regions need one descriptor per channel). And
	// binding every scored candidate reuses its arenas: a steady-state
	// estimate allocates the scorer and the program's virtual descriptors,
	// one array for the Tensors and one for their dims and strides. The
	// unbound estimator allocated 26 times / 1 656 B, a descriptor per
	// tensor 8 / 648 B.
	const maxAllocs, maxBytes = 3, 624
	m := model(t)
	compile := func(tile int) (*ir.Program, int) {
		s := conv.Shape{B: 1, Ni: 512, No: 512, Ro: 28, Co: 28, Kr: 3, Kc: 3} // VGG16 conv4_x
		op, err := conv.NewImplicitOp(s)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := op.Compile(dsl.Strategy{
			Factors: map[string]int{"no": tile, "ni": tile, "co": 14, "b": 1},
			Order:   []string{"ro", "co", "no", "kr", "kc", "ni"},
			Layouts: map[string][]int{
				"weight": {2, 3, 0, 1}, "in": {0, 1, 2, 3}, "out": {0, 1, 2, 3},
			},
			Vec:          ir.VecM,
			DoubleBuffer: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return prog, firstPassDescriptors(t, prog)
	}
	small, smallDescs := compile(8)
	large, largeDescs := compile(128)
	stmts := func(p *ir.Program) int { return ir.CountKind(p.Body, func(ir.Stmt) bool { return true }) }
	if a, b := stmts(small), stmts(large); a != b {
		t.Fatalf("tiles compile to different statement lists: %d vs %d statements", a, b)
	}
	if largeDescs < 10*smallDescs {
		t.Fatalf("large tile streams %d descriptors per pass, small %d: want ≥10×", largeDescs, smallDescs)
	}
	// Allocation count and allocated bytes per call after a warm-up call (a
	// slice of descriptors is one allocation however long it is, so the count
	// alone would not see one being built), each the minimum over several
	// calls: a call that finds the walker pool emptied by a collection binds
	// on fresh arenas.
	measure := func(p *ir.Program) (allocs, bytes uint64) {
		run := func() {
			if _, err := EstimateProgram(m, p); err != nil {
				t.Fatal(err)
			}
		}
		run()
		allocs, bytes = math.MaxUint64, math.MaxUint64
		for i := 0; i < 8; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			allocs = min(allocs, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return allocs, bytes
	}
	sa, sb := measure(small)
	la, lb := measure(large)
	t.Logf("EstimateProgram: %v allocations / %d B at %d descriptors per pass, %v / %d B at %d",
		sa, sb, smallDescs, la, lb, largeDescs)
	if sa != la || lb > sb+sb/20 {
		t.Fatalf("EstimateProgram allocations grow with descriptors: %v / %d B at %d, %v / %d B at %d",
			sa, sb, smallDescs, la, lb, largeDescs)
	}
	if la > maxAllocs || lb > maxBytes {
		t.Fatalf("steady-state EstimateProgram: %v allocations / %d B, budget %d / %d B", la, lb, maxAllocs, maxBytes)
	}
}

func compileGemm(t *testing.T, p gemm.Params, st dsl.Strategy) *ir.Program {
	t.Helper()
	seed, err := gemm.Seed(p)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Compile(seed, st)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func gemmStrategy(fm, fn, fk int) dsl.Strategy {
	return dsl.Strategy{
		Factors:      map[string]int{"m": fm, "n": fn, "k": fk},
		Order:        []string{"m", "n", "k"},
		Layouts:      map[string][]int{"C": {1, 0}},
		Vec:          ir.VecM,
		DoubleBuffer: true,
	}
}

func TestEstimateVsSimulator(t *testing.T) {
	// The estimator must land within ~35% of the simulator on healthy
	// schedules — close enough to rank candidates, imperfect by design.
	m := model(t)
	for _, cfg := range []struct {
		p  gemm.Params
		st dsl.Strategy
	}{
		{gemm.Params{M: 256, N: 256, K: 256}, gemmStrategy(64, 64, 64)},
		{gemm.Params{M: 512, N: 128, K: 256}, gemmStrategy(128, 64, 128)},
		{gemm.Params{M: 200, N: 200, K: 200}, gemmStrategy(64, 64, 64)},
	} {
		prog := compileGemm(t, cfg.p, cfg.st)
		est, err := EstimateProgram(m, prog)
		if err != nil {
			t.Fatal(err)
		}
		binds, err := conv.Bind(prog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exec.Run(prog, binds, exec.Options{Functional: false})
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(est.Total()-res.Seconds) / res.Seconds
		if rel > 0.35 {
			t.Errorf("%v %v: estimate %.3g vs simulated %.3g (%.0f%% off)",
				cfg.p, cfg.st, est.Total(), res.Seconds, rel*100)
		}
	}
}

func TestEstimatorRanksTileSizes(t *testing.T) {
	// What matters for tuning is ranking: tiny tiles must be predicted
	// slower than healthy tiles, as the simulator agrees.
	m := model(t)
	p := gemm.Params{M: 256, N: 256, K: 256}
	tiny := compileGemm(t, p, gemmStrategy(8, 8, 16))
	good := compileGemm(t, p, gemmStrategy(128, 128, 128))
	et, err := EstimateProgram(m, tiny)
	if err != nil {
		t.Fatal(err)
	}
	eg, err := EstimateProgram(m, good)
	if err != nil {
		t.Fatal(err)
	}
	if eg.Total() >= et.Total() {
		t.Fatalf("estimator ranks tiny tiles (%.3g) better than 128³ (%.3g)", et.Total(), eg.Total())
	}
}

func TestEstimatorFastOnHugeProblems(t *testing.T) {
	// The two-point loop evaluation must make estimation cheap even for
	// 8192³ problems (the Listing-2 extreme).
	m := model(t)
	prog := compileGemm(t, gemm.Params{M: 8192, N: 8192, K: 8192}, gemmStrategy(256, 256, 256))
	est, err := EstimateProgram(m, prog)
	if err != nil {
		t.Fatal(err)
	}
	if est.Total() <= 0 {
		t.Fatal("estimate must be positive")
	}
}

func TestEstimateSeparatesChannels(t *testing.T) {
	m := model(t)
	prog := compileGemm(t, gemm.Params{M: 256, N: 256, K: 256}, gemmStrategy(64, 64, 64))
	est, err := EstimateProgram(m, prog)
	if err != nil {
		t.Fatal(err)
	}
	if est.DMA <= 0 || est.Compute <= 0 {
		t.Fatalf("both channels must be populated: %+v", est)
	}
	if est.Total() != math.Max(est.DMA, est.Compute) {
		t.Fatal("Total must be the channel max")
	}
}
