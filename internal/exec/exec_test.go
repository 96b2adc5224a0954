package exec

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"swatop/internal/conv"
	"swatop/internal/dsl"
	"swatop/internal/ir"
	"swatop/internal/metrics"
	"swatop/internal/sw26010"
	"swatop/internal/tensor"
	"swatop/internal/trace"
)

// manualProgram builds a tiny hand-written IR program: load two 4×4 tiles,
// multiply, store — exercising the interpreter without the lowering.
func manualProgram() *ir.Program {
	return &ir.Program{
		Name: "manual",
		Tensors: []ir.TensorDecl{
			{Name: "A", Dims: []int{4, 4}},
			{Name: "B", Dims: []int{4, 4}},
			{Name: "C", Dims: []int{4, 4}, Output: true},
		},
		Body: []ir.Stmt{
			&ir.AllocSPM{Buf: "a", Elems: ir.Const(16)},
			&ir.AllocSPM{Buf: "b", Elems: ir.Const(16)},
			&ir.AllocSPM{Buf: "c", Elems: ir.Const(16)},
			// Column-major staging: A^T view via FrameStride.
			&ir.RegionMove{Tensor: "A", Dir: ir.Get,
				Start:  []ir.Expr{ir.Const(0), ir.Const(0)},
				Extent: []ir.Expr{ir.Const(4), ir.Const(4)},
				Buf:    "a", BufOff: ir.Const(0),
				FrameStride: []ir.Expr{ir.Const(1), ir.Const(4)}},
			&ir.RegionMove{Tensor: "B", Dir: ir.Get,
				Start:  []ir.Expr{ir.Const(0), ir.Const(0)},
				Extent: []ir.Expr{ir.Const(4), ir.Const(4)},
				Buf:    "b", BufOff: ir.Const(0),
				FrameStride: []ir.Expr{ir.Const(1), ir.Const(4)}},
			&ir.Transform{Kind: ir.ZeroFill, Dst: "c", DstOff: ir.Const(0), SrcOff: ir.Const(0),
				Args: []ir.Expr{ir.Const(16)}},
			&ir.Gemm{A: "a", B: "b", C: "c",
				AOff: ir.Const(0), BOff: ir.Const(0), COff: ir.Const(0),
				M: ir.Const(4), N: ir.Const(4), K: ir.Const(4),
				LDA: ir.Const(4), LDB: ir.Const(4), LDC: ir.Const(4),
				Accumulate: true},
			&ir.RegionMove{Tensor: "C", Dir: ir.Put,
				Start:  []ir.Expr{ir.Const(0), ir.Const(0)},
				Extent: []ir.Expr{ir.Const(4), ir.Const(4)},
				Buf:    "c", BufOff: ir.Const(0),
				FrameStride: []ir.Expr{ir.Const(1), ir.Const(4)}},
			&ir.FreeSPM{Buf: "a"},
			&ir.FreeSPM{Buf: "b"},
			&ir.FreeSPM{Buf: "c"},
		},
	}
}

func bind3() map[string]*tensor.Tensor {
	a := tensor.New("A", 4, 4)
	b := tensor.New("B", 4, 4)
	c := tensor.New("C", 4, 4)
	a.FillPattern()
	b.FillPattern()
	return map[string]*tensor.Tensor{"A": a, "B": b, "C": c}
}

func TestRunManualProgram(t *testing.T) {
	binds := bind3()
	res, err := Run(manualProgram(), binds, Options{Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 0 || res.Counters.GemmCalls != 1 || res.Counters.DMAOps != 3 {
		t.Fatalf("counters wrong: %+v", res.Counters)
	}
	want, _ := tensor.ReferenceGemm(binds["A"], binds["B"], 1, 0)
	if d, _ := tensor.MaxAbsDiff(want, binds["C"]); d > 1e-4 {
		t.Fatalf("manual program wrong by %g", d)
	}
}

func TestRunMissingBinding(t *testing.T) {
	binds := bind3()
	delete(binds, "B")
	if _, err := Run(manualProgram(), binds, Options{}); err == nil {
		t.Fatal("missing tensor binding must fail")
	}
}

func TestRunDimsMismatch(t *testing.T) {
	binds := bind3()
	binds["A"] = tensor.New("A", 4, 5)
	if _, err := Run(manualProgram(), binds, Options{}); err == nil {
		t.Fatal("dims mismatch must fail")
	}
	binds["A"] = tensor.New("A", 4)
	if _, err := Run(manualProgram(), binds, Options{}); err == nil {
		t.Fatal("rank mismatch must fail")
	}
}

func TestRunLayoutMismatch(t *testing.T) {
	p := manualProgram()
	p.Tensors[0].Layout = []int{1, 0} // require column-major A
	binds := bind3()                  // but bind row-major
	if _, err := Run(p, binds, Options{}); err == nil {
		t.Fatal("layout mismatch must fail")
	}
	cm, _ := tensor.NewWithLayout("A", []int{4, 4}, []int{1, 0})
	cm.FillPattern()
	binds["A"] = cm
	if _, err := Run(p, binds, Options{Functional: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunOutputZeroed(t *testing.T) {
	binds := bind3()
	binds["C"].Fill(99)
	if _, err := Run(manualProgram(), binds, Options{Functional: true}); err != nil {
		t.Fatal(err)
	}
	want, _ := tensor.ReferenceGemm(binds["A"], binds["B"], 1, 0)
	if d, _ := tensor.MaxAbsDiff(want, binds["C"]); d > 1e-4 {
		t.Fatal("output tensor was not cleared before the run")
	}
}

func TestRunUnbalancedWaitFails(t *testing.T) {
	p := &ir.Program{
		Name:    "bad",
		Tensors: []ir.TensorDecl{{Name: "A", Dims: []int{4}}},
		Body: []ir.Stmt{
			&ir.AllocSPM{Buf: "a", Elems: ir.Const(4)},
			&ir.DMAWait{Reply: "r", Times: ir.Const(1)},
		},
	}
	if _, err := Run(p, map[string]*tensor.Tensor{"A": tensor.New("A", 4)}, Options{}); err == nil {
		t.Fatal("wait without issue must fail")
	}
}

func TestRunLeakedDMAFails(t *testing.T) {
	p := &ir.Program{
		Name:    "leak",
		Tensors: []ir.TensorDecl{{Name: "A", Dims: []int{4}}},
		Body: []ir.Stmt{
			&ir.AllocSPM{Buf: "a", Elems: ir.Const(4)},
			&ir.DMAOp{Move: ir.RegionMove{
				Tensor: "A", Dir: ir.Get,
				Start: []ir.Expr{ir.Const(0)}, Extent: []ir.Expr{ir.Const(4)},
				Buf: "a", BufOff: ir.Const(0),
			}, Reply: "r"},
			// no wait
		},
	}
	if _, err := Run(p, map[string]*tensor.Tensor{"A": tensor.New("A", 4)}, Options{}); err == nil {
		t.Fatal("un-waited DMA must be reported")
	}
}

func TestRunPutAccAccumulates(t *testing.T) {
	p := &ir.Program{
		Name: "acc",
		Tensors: []ir.TensorDecl{
			{Name: "X", Dims: []int{4}},
			{Name: "Y", Dims: []int{4}, Output: true},
		},
		Body: []ir.Stmt{
			&ir.AllocSPM{Buf: "b", Elems: ir.Const(4)},
			&ir.For{Iter: "i", Extent: ir.Const(3), Body: []ir.Stmt{
				&ir.RegionMove{Tensor: "X", Dir: ir.Get,
					Start: []ir.Expr{ir.Const(0)}, Extent: []ir.Expr{ir.Const(4)},
					Buf: "b", BufOff: ir.Const(0)},
				&ir.RegionMove{Tensor: "Y", Dir: ir.PutAcc,
					Start: []ir.Expr{ir.Const(0)}, Extent: []ir.Expr{ir.Const(4)},
					Buf: "b", BufOff: ir.Const(0)},
			}},
			&ir.FreeSPM{Buf: "b"},
		},
	}
	x := tensor.New("X", 4)
	x.Fill(2)
	y := tensor.New("Y", 4)
	if _, err := Run(p, map[string]*tensor.Tensor{"X": x, "Y": y}, Options{Functional: true}); err != nil {
		t.Fatal(err)
	}
	if y.At(0) != 6 {
		t.Fatalf("PutAcc over 3 iterations: got %g, want 6", y.At(0))
	}
}

func TestRunDispatchOverheadCharged(t *testing.T) {
	p := manualProgram()
	binds := bind3()
	base, err := Run(p, binds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.DispatchOverheadSeconds = 1e-3
	binds2 := bind3()
	withOv, err := Run(p, binds2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if withOv.Seconds < base.Seconds+0.9e-3 {
		t.Fatalf("dispatch overhead not charged: %g vs %g", withOv.Seconds, base.Seconds)
	}
}

func TestBindVirtualMatchesDecls(t *testing.T) {
	p := manualProgram()
	p.Tensors[0].Layout = []int{1, 0}
	binds, err := BindVirtual(p)
	if err != nil {
		t.Fatal(err)
	}
	if binds["A"].Strides[0] != 1 || binds["A"].Strides[1] != 4 {
		t.Fatalf("virtual binding ignores layout: %v", binds["A"].Strides)
	}
	if binds["A"].Data != nil {
		t.Fatal("virtual binding must not allocate data")
	}
	// Timed-only run works on virtual tensors.
	if _, err := Run(p, binds, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestFastLoopsMatchExactOnUniformLoop(t *testing.T) {
	mk := func() *ir.Program {
		return &ir.Program{
			Name:    "loop",
			Tensors: []ir.TensorDecl{{Name: "X", Dims: []int{4096}}},
			Body: []ir.Stmt{
				&ir.AllocSPM{Buf: "b", Elems: ir.Const(64)},
				&ir.For{Iter: "i", Extent: ir.Const(64), Body: []ir.Stmt{
					&ir.RegionMove{Tensor: "X", Dir: ir.Get,
						Start:  []ir.Expr{ir.Mul(ir.V("i"), ir.Const(64))},
						Extent: []ir.Expr{ir.Const(64)},
						Buf:    "b", BufOff: ir.Const(0)},
				}},
				&ir.FreeSPM{Buf: "b"},
			},
		}
	}
	x := tensor.New("X", 4096)
	exact, err := Run(mk(), map[string]*tensor.Tensor{"X": x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(mk(), map[string]*tensor.Tensor{"X": x}, Options{FastLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	rel := fast.Seconds/exact.Seconds - 1
	if rel < -0.02 || rel > 0.02 {
		t.Fatalf("fast loops off by %.2f%% on a uniform loop", rel*100)
	}
	if fast.Counters.DMAOps != exact.Counters.DMAOps {
		t.Fatalf("counter extrapolation wrong: %d vs %d", fast.Counters.DMAOps, exact.Counters.DMAOps)
	}
}

// TestRunSharedMachine: two operators executed on one machine serialize on
// one timeline — per-run Seconds are deltas, counters accumulate, and the
// shared clock equals the sum of the isolated runs.
func TestRunSharedMachine(t *testing.T) {
	solo, err := Run(manualProgram(), bind3(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := sw26010.NewMachine()
	first, err := Run(manualProgram(), bind3(), Options{Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	m.ResetSPM()
	second, err := Run(manualProgram(), bind3(), Options{Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	// The second delta is a subtraction of two large clock values, so allow
	// float rounding at the last ulp; everything else is exact.
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Abs(b) }
	if first.Seconds != solo.Seconds {
		t.Fatalf("first shared run %g, isolated %g", first.Seconds, solo.Seconds)
	}
	if !close(second.Seconds, solo.Seconds) {
		t.Fatalf("second shared run %g, isolated %g — delta accounting broken", second.Seconds, solo.Seconds)
	}
	if got, want := m.Elapsed(), 2*solo.Seconds; !close(got, want) {
		t.Fatalf("shared clock %g, want %g", got, want)
	}
	if second.Counters.GemmCalls != 2 || second.Counters.DMAOps != 6 {
		t.Fatalf("counters should accumulate on a shared machine: %+v", second.Counters)
	}
}

// TestRunMetrics: the exec layer reports run counts, the latency histogram
// and accumulated machine seconds; failures land in the failure counter.
func TestRunMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	res, err := Run(manualProgram(), bind3(), Options{Functional: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("exec_runs_total").Value(); got != 1 {
		t.Fatalf("runs = %d, want 1", got)
	}
	if got := reg.Histogram("exec_run_seconds").Count(); got != 1 {
		t.Fatalf("latency observations = %d, want 1", got)
	}
	if got := reg.Gauge("exec_machine_seconds").Value(); got != res.Seconds {
		t.Fatalf("machine seconds = %g, want %g", got, res.Seconds)
	}

	// A failing run (unbound tensor) counts as a failure, not a latency.
	if _, err := Run(manualProgram(), nil, Options{Metrics: reg}); err == nil {
		t.Fatal("run with no bindings must fail")
	}
	if got := reg.Counter("exec_run_failures_total").Value(); got != 1 {
		t.Fatalf("failures = %d, want 1", got)
	}
	if got := reg.Histogram("exec_run_seconds").Count(); got != 1 {
		t.Fatal("failed runs must not observe latency")
	}
}

// TestWaitTraceEvents: an un-overlapped DMA wait shows up as a wait-kind
// stall interval on the timeline; a fully hidden one does not.
func TestWaitTraceEvents(t *testing.T) {
	var log trace.Log
	if _, err := Run(manualProgram(), bind3(), Options{Functional: true, Trace: &log}); err != nil {
		t.Fatal(err)
	}
	// The manual program issues synchronous RegionMoves: waits are exposed.
	if log.BusyTime(trace.KindWait) <= 0 {
		t.Fatalf("synchronous moves must expose wait time:\n%s", log.Summary())
	}
	for _, ev := range log.Events {
		if ev.Kind == trace.KindWait && ev.Dur <= 0 {
			t.Fatalf("wait event with non-positive duration: %+v", ev)
		}
	}
}

// TestWaitNonPositiveCount: a dma_wait whose count evaluates to zero or less
// is a program error naming the reply word and the count, not a panic inside
// the machine's reply queue.
func TestWaitNonPositiveCount(t *testing.T) {
	for _, times := range []int64{0, -1} {
		p := &ir.Program{
			Name:    "wait0",
			Tensors: []ir.TensorDecl{{Name: "A", Dims: []int{4}}},
			Body: []ir.Stmt{
				&ir.AllocSPM{Buf: "a", Elems: ir.Const(4)},
				&ir.DMAOp{Move: ir.RegionMove{
					Tensor: "A", Dir: ir.Get,
					Start: []ir.Expr{ir.Const(0)}, Extent: []ir.Expr{ir.Const(4)},
					Buf: "a", BufOff: ir.Const(0),
				}, Reply: "r7"},
				&ir.DMAWait{Reply: "r7", Times: ir.Const(times)},
			},
		}
		_, err := Run(p, map[string]*tensor.Tensor{"A": tensor.New("A", 4)}, Options{})
		if err == nil || !strings.Contains(err.Error(), "r7 x"+ir.Const(times).String()) {
			t.Fatalf("dma_wait x%d: err = %v, want an error naming r7 and the count", times, err)
		}
	}
}

// requestFromBlocks is the request arithmetic as it was when exec.dma
// materialised its descriptors, kept verbatim as the oracle for
// dmaRequest.
func requestFromBlocks(descs []tensor.Blocks, write bool) sw26010.DMARequest {
	total := 0
	for _, d := range descs {
		total += d.Count
	}
	first := descs[0]
	blockBytes := first.Block * 4
	strideBytes := first.Stride * 4
	if total < sw26010.NumCPE && blockBytes > sw26010.TransactionBytes {
		split := (sw26010.NumCPE + total - 1) / total
		sub := (first.Block + split - 1) / split
		blockBytes = sub * 4
		strideBytes = blockBytes
		total *= split
	}
	if strideBytes < blockBytes {
		strideBytes = blockBytes
	}
	return sw26010.DMARequest{
		BlockBytes:  blockBytes,
		BlockCount:  total,
		StrideBytes: strideBytes,
		OffsetBytes: first.Offset * 4,
		Write:       write,
		CPEs:        1, // BlockCount is already the CG aggregate
	}
}

// TestTallyRequestMatchesReference: the region's geometry builds the request
// the descriptor slice did, over seeded tensors of rank 1..4 in permuted
// layouts, in-bounds regions and both directions, reaching both sides of
// the fewer-blocks-than-CPEs split with blocks above and below one
// transaction, and multi-descriptor regions.
func TestTallyRequestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20190805))
	seen := map[string]int{}
	for i := 0; i < 4000; i++ {
		rank := rng.Intn(4) + 1
		dims, start, extent := make([]int, rank), make([]int, rank), make([]int, rank)
		for d := range dims {
			dims[d] = rng.Intn(48) + 1
			start[d] = rng.Intn(dims[d])
			extent[d] = rng.Intn(dims[d]-start[d]) + 1
			if rng.Intn(3) == 0 { // full coverage, so blocks fuse across dims
				start[d], extent[d] = 0, dims[d]
			}
		}
		x, err := tensor.NewVirtual("x", dims, rng.Perm(rank))
		if err != nil {
			t.Fatal(err)
		}
		r := tensor.Region{Start: start, Extent: extent}
		descs, err := r.FlattenMulti(x)
		if err != nil {
			t.Fatal(err)
		}
		first, n, err := r.Geometry(x)
		if err != nil {
			t.Fatal(err)
		}
		write := i%2 == 1
		if got, want := dmaRequest(first, n*first.Count, write), requestFromBlocks(descs, write); got != want {
			t.Fatalf("dims %v strides %v region %+v write=%v:\n got %+v\nwant %+v", x.Dims, x.Strides, r, write, got, want)
		}
		class := "total>=NumCPE"
		if n*first.Count < sw26010.NumCPE {
			class = "total<NumCPE"
		}
		if descs[0].Block*4 > sw26010.TransactionBytes {
			class += ",block>128B"
		} else {
			class += ",block<=128B"
		}
		seen[class]++
		if len(descs) > 1 {
			seen["multi-descriptor"]++
		}
	}
	for _, class := range []string{
		"total<NumCPE,block>128B", "total<NumCPE,block<=128B",
		"total>=NumCPE,block>128B", "total>=NumCPE,block<=128B", "multi-descriptor",
	} {
		if seen[class] < 50 {
			t.Errorf("only %d generated cases in class %s", seen[class], class)
		}
	}
}

// allocCost measures one call of run: allocation count and allocated bytes
// (a descriptor slice is one allocation however long it is, so the count
// alone would not see one being built). Bytes are the minimum over several
// calls: the runtime's own goroutines occasionally allocate in between.
func allocCost(run func()) (allocs float64, bytes uint64) {
	allocs = testing.AllocsPerRun(5, run)
	bytes = math.MaxUint64
	for i := 0; i < 8; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, bytes
}

// allocsOf is the allocCost of one timed run of p.
func allocsOf(t *testing.T, p *ir.Program, opt Options) (allocs float64, bytes uint64) {
	t.Helper()
	return allocCost(func() {
		if _, err := RunVirtual(p, opt); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTimedDMAAllocBudget(t *testing.T) {
	// Running a transfer must cost what it times. First: what a timed run
	// allocates does not depend on how many descriptors its regions flatten
	// into. One VGG16 implicit-conv schedule compiled with channel tiles of 8
	// and of 128 is the same statement list (and, fast-forwarded, the same
	// executed statements: 64-trip loops run four iterations, 4-trip loops
	// all four) moving regions with >10× the descriptors.
	compile := func(tile int) (prog *ir.Program, descs int) {
		s := conv.Shape{B: 1, Ni: 512, No: 512, Ro: 28, Co: 28, Kr: 3, Kc: 3} // VGG16 conv4_x
		op, err := conv.NewImplicitOp(s)
		if err != nil {
			t.Fatal(err)
		}
		prog, err = op.Compile(dsl.Strategy{
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
		binds, err := BindVirtual(prog)
		if err != nil {
			t.Fatal(err)
		}
		// Descriptors of the prologue transfers (constant regions; the loop
		// body prefetches the same shapes).
		for _, s := range prog.Body {
			op, ok := s.(*ir.DMAOp)
			if !ok {
				continue
			}
			var r tensor.Region
			for d := range op.Move.Start {
				r.Start = append(r.Start, int(op.Move.Start[d].Eval(nil)))
				r.Extent = append(r.Extent, int(op.Move.Extent[d].Eval(nil)))
			}
			ds, err := r.FlattenMulti(binds[op.Move.Tensor])
			if err != nil {
				t.Fatal(err)
			}
			descs += len(ds)
		}
		return prog, descs
	}
	// SPM buffer storage is sized by the tile; measure it on the program's
	// alloc/free skeleton and compare what the rest of the run allocates.
	skeleton := func(p *ir.Program) *ir.Program {
		s := &ir.Program{Name: p.Name, Tensors: p.Tensors}
		for _, st := range p.Body {
			switch st.(type) {
			case *ir.AllocSPM, *ir.FreeSPM:
				s.Body = append(s.Body, st)
			}
		}
		return s
	}
	opt := Options{FastLoops: true}
	small, smallDescs := compile(8)
	large, largeDescs := compile(128)
	if largeDescs < 10*smallDescs {
		t.Fatalf("large tile prologue moves %d descriptors, small %d: want ≥10×", largeDescs, smallDescs)
	}
	sa, sb := allocsOf(t, small, opt)
	la, lb := allocsOf(t, large, opt)
	_, ssk := allocsOf(t, skeleton(small), opt)
	_, lsk := allocsOf(t, skeleton(large), opt)
	t.Logf("timed run: %v allocations / %d B (%d B SPM skeleton) at %d prologue descriptors, %v / %d B (%d B) at %d",
		sa, sb, ssk, smallDescs, la, lb, lsk, largeDescs)
	if sa != la || lb-lsk != sb-ssk {
		t.Fatalf("timed-run allocations grow with descriptors: %v / %d B beyond SPM storage at %d, %v / %d B at %d",
			sa, sb-ssk, smallDescs, la, lb-lsk, largeDescs)
	}

	// Second: nor on how many transfers it issues and waits for. Two
	// transfers in flight per iteration, so waits consume from the front of
	// a non-empty reply queue.
	loop := func(n int64) *ir.Program {
		get := &ir.DMAOp{Move: ir.RegionMove{
			Tensor: "X", Dir: ir.Get,
			Start:  []ir.Expr{ir.Const(0), ir.Const(0)},
			Extent: []ir.Expr{ir.Const(8), ir.Const(24)},
			Buf:    "b", BufOff: ir.Const(0)}, Reply: "r"}
		wait := &ir.DMAWait{Reply: "r", Times: ir.Const(1)}
		return &ir.Program{
			Name:    "loop",
			Tensors: []ir.TensorDecl{{Name: "X", Dims: []int{8, 32}}},
			Body: []ir.Stmt{
				&ir.AllocSPM{Buf: "b", Elems: ir.Const(8 * 24)},
				&ir.For{Iter: "i", Extent: ir.Const(n), Body: []ir.Stmt{get, get, wait, wait}},
				&ir.FreeSPM{Buf: "b"},
			},
		}
	}
	fewA, fewB := allocsOf(t, loop(10), Options{})
	manyA, manyB := allocsOf(t, loop(1000), Options{})
	t.Logf("issue+wait loop: %v allocations / %d B at 10 iterations, %v / %d B at 1000", fewA, fewB, manyA, manyB)
	if fewA != manyA || fewB != manyB {
		t.Fatalf("timed-run allocations grow with transfers: %v / %d B at 10 iterations, %v / %d B at 1000",
			fewA, fewB, manyA, manyB)
	}
}

// TestWinoTransformOffsetIsError: a Winograd transform whose source or
// destination offset lies outside its buffer is a program error in
// functional mode, like ZeroFill's and CopySPM's, not a slice-bounds panic.
func TestWinoTransformOffsetIsError(t *testing.T) {
	for _, kind := range []ir.TransformKind{ir.WinoInputTile, ir.WinoFilterTile, ir.WinoOutputTile, ir.WinoInputSlab, ir.WinoOutputSlab} {
		for _, off := range [][2]int64{{-1, 0}, {0, -1}, {65, 0}, {0, 65}} {
			p := &ir.Program{
				Name: "wino",
				Body: []ir.Stmt{
					&ir.AllocSPM{Buf: "s", Elems: ir.Const(64)},
					&ir.AllocSPM{Buf: "d", Elems: ir.Const(64)},
					&ir.Transform{Kind: kind, Src: "s", Dst: "d",
						SrcOff: ir.Const(off[0]), DstOff: ir.Const(off[1]),
						Args: []ir.Expr{ir.Const(1), ir.Const(1), ir.Const(4), ir.Const(1)}},
				},
			}
			if _, err := Run(p, nil, Options{Functional: true}); err == nil || !strings.Contains(err.Error(), "out of SPM buffer") {
				t.Errorf("%v at offsets %v: err = %v, want an out-of-buffer error", kind, off, err)
			}
			// Timed-only runs never touch the buffers: same program, no error.
			if _, err := Run(p, nil, Options{}); err != nil {
				t.Errorf("%v at offsets %v, timed: %v", kind, off, err)
			}
		}
	}
}

// TestLoopShadowingRestored: a loop that reuses an outer variable's name
// shadows it for its iterations only, and an iterator nothing else defined
// is unbound again once its loop is over.
func TestLoopShadowingRestored(t *testing.T) {
	loop := &ir.For{Iter: "i", Extent: ir.Const(3), Body: []ir.Stmt{
		&ir.Assign{Var: "seen", Val: ir.V("i")},
	}}
	after := &ir.AllocSPM{Buf: "b", Elems: ir.Add(ir.Mul(ir.V("i"), ir.Const(10)), ir.V("seen"))}
	m := sw26010.NewMachine()
	p := &ir.Program{Name: "shadow", Body: []ir.Stmt{&ir.Assign{Var: "i", Val: ir.Const(7)}, loop, after}}
	if _, err := Run(p, nil, Options{Machine: m}); err != nil {
		t.Fatal(err)
	}
	if buf, err := m.SPM().Get("b"); err != nil || buf.Elems != 7*10+2 {
		t.Fatalf("after the loop i*10+seen sized the buffer %+v (%v), want 72 elements: outer i = 7 restored, last iteration saw 2", buf, err)
	}
	defer func() {
		if r := recover(); r != `ir: unbound variable "i"` {
			t.Fatalf("reading the iterator after its loop: recovered %v, want the unbound-variable panic", r)
		}
	}()
	Run(&ir.Program{Name: "unbound", Body: []ir.Stmt{loop, after}}, nil, Options{})
}

// TestConcurrentRunsShareProgram: a compiled program is only read by a run,
// so goroutines may time one program at once (run under -race): identical
// results, and the program unchanged.
func TestConcurrentRunsShareProgram(t *testing.T) {
	op, err := conv.NewImplicitOp(conv.Shape{B: 1, Ni: 64, No: 64, Ro: 28, Co: 28, Kr: 3, Kc: 3})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := op.Compile(dsl.Strategy{
		Factors:      map[string]int{"no": 32, "ni": 32, "co": 14, "b": 1},
		Order:        []string{"ro", "co", "no", "kr", "kc", "ni"},
		Layouts:      map[string][]int{"weight": {2, 3, 0, 1}, "in": {0, 1, 2, 3}, "out": {0, 1, 2, 3}},
		Vec:          ir.VecM,
		DoubleBuffer: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	before, printed := prog.Clone(), ir.Print(prog)
	before.DispatchOverheadSeconds = prog.DispatchOverheadSeconds
	want, err := RunVirtual(prog, Options{FastLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	const runners = 8
	results := make([]Result, runners)
	errs := make([]error, runners)
	var wg sync.WaitGroup
	for g := 0; g < runners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				var log trace.Log // a private trace: labels are bound per run too
				results[g], errs[g] = RunVirtual(prog, Options{FastLoops: true, Trace: &log})
			}
		}()
	}
	wg.Wait()
	for g := range results {
		if errs[g] != nil || results[g] != want {
			t.Fatalf("runner %d: %+v (%v), want %+v", g, results[g], errs[g], want)
		}
	}
	if !reflect.DeepEqual(prog, before) || ir.Print(prog) != printed {
		t.Fatal("running a program changed it")
	}
}

// TestBindAllocBudget: binding is a fixed number of arenas. It makes the same
// number of allocations however many statements the program has (when
// tracing, the label arena and one string per DMA statement more), their
// bytes grow in proportion to the statements, and a run allocates nothing
// that grows with trip counts.
func TestBindAllocBudget(t *testing.T) {
	// nodes, codes, postfix ops, variable names, variable values, evaluation
	// stack, buffer and reply-word names, region scratch. With the
	// by-declaration tensor table runProgram allocates beside its state, a
	// timed run makes 9 allocations beyond its machine, its tensors and SPM
	// storage.
	const arenas = 8
	prog := func(copies int, trips int64) *ir.Program {
		p := &ir.Program{Name: "budget", Tensors: []ir.TensorDecl{{Name: "X", Dims: []int{8, 32}}}}
		p.Body = append(p.Body,
			&ir.Assign{Var: "base0", Val: ir.Const(1)},
			&ir.AllocSPM{Buf: "a", Elems: ir.Const(64 * 64)},
			&ir.AllocSPM{Buf: "b", Elems: ir.Const(64 * 64)},
			&ir.AllocSPM{Buf: "c", Elems: ir.Const(64 * 64)})
		for c := 0; c < copies; c++ {
			get := ir.RegionMove{Tensor: "X", Dir: ir.Get,
				Start:  []ir.Expr{ir.Const(0), ir.Mod(ir.V("i"), ir.Const(8))},
				Extent: []ir.Expr{ir.Const(8), ir.Const(24)},
				Buf:    "a", BufOff: ir.Const(0)}
			p.Body = append(p.Body,
				&ir.Assign{Var: "base", Val: ir.Mul(ir.V("base0"), ir.Const(3))},
				&ir.For{Iter: "i", Extent: ir.Const(trips), Body: []ir.Stmt{
					&ir.DMAOp{Move: get, Reply: "r"},
					&ir.If{Cond: ir.Cond{Op: ir.LT, L: ir.V("i"), R: ir.Const(2)},
						Then: []ir.Stmt{&ir.Assign{Var: "next_i", Val: ir.Add(ir.V("i"), ir.V("base"))}},
						Else: []ir.Stmt{&ir.Assign{Var: "next_i", Val: ir.Min(ir.V("i"), ir.Const(1<<40))}}},
					&ir.Gemm{A: "a", B: "b", C: "c",
						M: ir.Const(64), N: ir.Min(ir.Add(ir.V("next_i"), ir.Const(64)), ir.Const(64)), K: ir.Const(64),
						LDA: ir.Const(64), LDB: ir.Const(64), LDC: ir.Const(64)},
					&ir.DMAWait{Reply: "r", Times: ir.Const(1)},
					&get, // an un-inferred move: issue + wait on the sync word
				}})
		}
		p.Body = append(p.Body, &ir.FreeSPM{Buf: "a"}, &ir.FreeSPM{Buf: "b"}, &ir.FreeSPM{Buf: "c"})
		return p
	}
	// bindCost measures bind alone, on a state that is not part of the cost.
	bindCost := func(p *ir.Program, opt Options) (allocs float64, bytes uint64) {
		st := &state{opt: opt}
		return allocCost(func() { st.bind(p) })
	}
	var bytes [5]uint64
	for copies := 1; copies <= 4; copies++ {
		p := prog(copies, 12)
		a, b := bindCost(p, Options{})
		if a != arenas {
			t.Fatalf("%d copies: bind made %v allocations, want %d arenas", copies, a, arenas)
		}
		bytes[copies] = b
		if a, _ := bindCost(p, Options{Trace: new(trace.Log)}); a != float64(arenas+1+2*copies) {
			t.Fatalf("%d copies, tracing: bind made %v allocations, want %d arenas, the labels and %d label strings",
				copies, a, arenas, 2*copies)
		}
		ra, rb := allocsOf(t, p, Options{})
		la, lb := allocsOf(t, prog(copies, 1200), Options{})
		if la != ra || lb != rb {
			t.Fatalf("%d copies: a run allocates %v times / %d B at 12 trips, %v / %d B at 1200", copies, ra, rb, la, lb)
		}
	}
	t.Logf("bound program: %d arenas of %d / %d / %d / %d B at 1..4 copies of 9 statements and 26 expressions",
		arenas, bytes[1], bytes[2], bytes[3], bytes[4])
	// In proportion, up to the allocator's size classes: each copy adds no
	// more than the first cost, and under 1 KB.
	for copies := 2; copies <= 4; copies++ {
		if step := bytes[copies] - bytes[copies-1]; bytes[copies] <= bytes[copies-1] || step > bytes[1] || step > 1024 {
			t.Fatalf("bound bytes at 1..4 copies: %v", bytes[1:])
		}
	}
}
