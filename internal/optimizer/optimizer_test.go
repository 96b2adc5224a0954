package optimizer_test

import (
	"strconv"
	"strings"
	"testing"

	"swatop/internal/conv"
	"swatop/internal/core"
	"swatop/internal/dsl"
	"swatop/internal/exec"
	"swatop/internal/gemm"
	"swatop/internal/ir"
	"swatop/internal/lower"
	"swatop/internal/optimizer"
	"swatop/internal/tensor"
)

func strategy(fm, fn, fk int, db bool) dsl.Strategy {
	return dsl.Strategy{
		Factors:      map[string]int{"m": fm, "n": fn, "k": fk},
		Order:        []string{"m", "n", "k"},
		Layouts:      map[string][]int{"C": {1, 0}},
		Vec:          ir.VecM,
		DoubleBuffer: db,
	}
}

// compileAndRun compiles a GEMM with the full pipeline and verifies the
// result against the oracle.
func compileAndRun(t *testing.T, p gemm.Params, st dsl.Strategy) exec.Result {
	t.Helper()
	seed, err := gemm.Seed(p)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Compile(seed, st)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	binds, err := conv.Bind(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(prog, binds, exec.Options{Functional: true})
	if err != nil {
		t.Fatalf("exec: %v\n%s", err, ir.Print(prog))
	}
	want, err := tensor.ReferenceGemm(binds["A"], binds["B"], 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(want, binds["C"]); d > 2e-2 {
		t.Fatalf("result differs from oracle by %g\n%s", d, ir.Print(prog))
	}
	return res
}

func TestInferDMAProducesPairs(t *testing.T) {
	isMove := func(s ir.Stmt) bool { _, ok := s.(*ir.RegionMove); return ok }
	isOp := func(s ir.Stmt) bool { _, ok := s.(*ir.DMAOp); return ok }
	isWait := func(s ir.Stmt) bool { _, ok := s.(*ir.DMAWait); return ok }
	for _, db := range []bool{false, true} {
		seed, _ := gemm.Seed(gemm.Params{M: 64, N: 64, K: 64})
		prog, err := lower.Lower(seed, strategy(32, 32, 32, db))
		if err != nil {
			t.Fatal(err)
		}
		if db {
			if err := optimizer.InjectPrefetch(prog); err != nil {
				t.Fatal(err)
			}
		}
		// Whatever the prefetch pass already paired stays; every move still
		// abstract becomes exactly one op and one wait.
		moves := ir.CountKind(prog.Body, isMove)
		ops, waits := ir.CountKind(prog.Body, isOp), ir.CountKind(prog.Body, isWait)
		optimizer.InferDMA(prog)
		if n := ir.CountKind(prog.Body, isMove); n != 0 {
			t.Fatalf("db=%v: %d RegionMoves survived DMA inference", db, n)
		}
		gotOps, gotWaits := ir.CountKind(prog.Body, isOp), ir.CountKind(prog.Body, isWait)
		if gotOps == 0 || gotOps != ops+moves || gotWaits != waits+moves {
			t.Fatalf("db=%v: %d moves, ops %d→%d, waits %d→%d: want one op and one wait per move",
				db, moves, ops, gotOps, waits, gotWaits)
		}
		// Inferred ops name distinct reply words; the attributes codegen
		// prints are derivable from every op's move.
		replies := map[string]bool{}
		ir.Walk(prog.Body, func(s ir.Stmt) bool {
			if op, ok := s.(*ir.DMAOp); ok {
				replies[op.Reply] = true
				if at := op.Move.Attrs(); at.Offset == "" || at.Block == "" || at.Stride == "" || at.Size == "" {
					t.Fatalf("db=%v: DMAOp %s without derivable attributes: %+v", db, op.Reply, at)
				}
			}
			return true
		})
		if !db && len(replies) != gotOps {
			t.Fatalf("%d synchronous ops share %d reply words", gotOps, len(replies))
		}
	}
}

// TestInferDMAInPlace: DMA inference copies only the lists that directly
// hold a move — each move becomes an op and its wait, in place of the move —
// keeps every other list (a nil one nil) and numbers the reply words in
// pre-order.
func TestInferDMAInPlace(t *testing.T) {
	move := func(tensor string, dir ir.MoveDir) *ir.RegionMove {
		return &ir.RegionMove{Tensor: tensor, Dir: dir, Buf: "b", BufOff: ir.Const(0),
			Start: []ir.Expr{ir.V("i")}, Extent: []ir.Expr{ir.Const(1)}}
	}
	gemm := &ir.Gemm{A: "b", B: "b", C: "b"}
	guarded := &ir.If{Cond: ir.Cond{Op: ir.LT, L: ir.V("i"), R: ir.Const(2)}, Then: []ir.Stmt{move("A", ir.Get)}}
	inner := &ir.For{Iter: "j", Extent: ir.Const(2), Body: []ir.Stmt{gemm}}
	outer := &ir.For{Iter: "i", Extent: ir.Const(4), Body: []ir.Stmt{guarded, move("B", ir.Get), inner, move("C", ir.Put)}}
	p := &ir.Program{Name: "in_place", Body: []ir.Stmt{&ir.Comment{Text: "c"}, outer}}
	top, innerBody := p.Body, inner.Body

	optimizer.InferDMA(p)
	if &p.Body[0] != &top[0] || &inner.Body[0] != &innerBody[0] || guarded.Else != nil {
		t.Fatal("a list without a move was copied, or a nil list made non-nil")
	}
	if len(guarded.Then) != 2 || len(outer.Body) != 6 || outer.Body[0] != guarded || outer.Body[3] != inner {
		t.Fatalf("rewritten loop body wrong:\n%s", ir.Print(p))
	}
	// Numbered as met: the guarded get, the get, the put.
	pairs := [][2]ir.Stmt{{guarded.Then[0], guarded.Then[1]}, {outer.Body[1], outer.Body[2]}, {outer.Body[4], outer.Body[5]}}
	for i, tensor := range []string{"A", "B", "C"} {
		op, isOp := pairs[i][0].(*ir.DMAOp)
		w, isWait := pairs[i][1].(*ir.DMAWait)
		reply := "rw" + strconv.Itoa(i)
		if !isOp || !isWait || op.Move.Tensor != tensor || op.Reply != reply || w.Reply != reply {
			t.Fatalf("move %d of %s: want the op and wait of %s on %s:\n%s", i, tensor, tensor, reply, ir.Print(p))
		}
	}
}

// TestPrefetchDeterministic: a loop that puts two buffers drains both reply
// words after the nest, in the order the loop first puts them — the same
// program on every run (the drains used to follow map order).
func TestPrefetchDeterministic(t *testing.T) {
	build := func() *ir.Program {
		put := func(tensor, buf string) *ir.RegionMove {
			return &ir.RegionMove{Tensor: tensor, Dir: ir.Put, Buf: buf, BufOff: ir.Const(0),
				Start: []ir.Expr{ir.Mul(ir.V("i"), ir.Const(16))}, Extent: []ir.Expr{ir.Const(16)}}
		}
		return &ir.Program{
			Name:    "two_puts",
			Tensors: []ir.TensorDecl{{Name: "X", Dims: []int{64}, Output: true}, {Name: "Y", Dims: []int{64}, Output: true}},
			Body: []ir.Stmt{
				&ir.AllocSPM{Buf: "spm_x", Elems: ir.Const(16)},
				&ir.AllocSPM{Buf: "spm_y", Elems: ir.Const(16)},
				&ir.For{Iter: "i", Extent: ir.Const(4), Body: []ir.Stmt{put("X", "spm_x"), put("Y", "spm_y")}},
			},
		}
	}
	var want string
	for run := range 100 {
		p := build()
		if err := optimizer.InjectPrefetch(p); err != nil {
			t.Fatal(err)
		}
		got := ir.Print(p)
		if run == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("run %d printed a different program:\n%s\nrun 0:\n%s", run, got, want)
		}
	}
	_, drains, _ := strings.Cut(want, "g_i = (g_i + 1)")
	if i, j := strings.LastIndex(drains, "pfp1"), strings.Index(drains, "pfp2"); i < 0 || j < i {
		t.Fatalf("drains not in put order:\n%s", want)
	}
}

func TestPrefetchFunctionalCorrectness(t *testing.T) {
	// Exact tiles.
	compileAndRun(t, gemm.Params{M: 128, N: 96, K: 64}, strategy(32, 32, 32, true))
	// Boundary tiles on every dimension, both vec dims.
	st := strategy(32, 32, 32, true)
	compileAndRun(t, gemm.Params{M: 100, N: 52, K: 40}, st)
	st.Vec = ir.VecN
	compileAndRun(t, gemm.Params{M: 100, N: 52, K: 40}, st)
}

func TestPrefetchOuterReductionOrder(t *testing.T) {
	// Reduction loop outermost: C is re-fetched per iteration; prefetch
	// must still balance every issue with a wait and stay correct.
	st := strategy(32, 32, 32, true)
	st.Order = []string{"k", "m", "n"}
	compileAndRun(t, gemm.Params{M: 64, N: 64, K: 96}, st)
}

func TestPrefetchImprovesTime(t *testing.T) {
	// The headline of Fig. 10: double buffering hides DMA latency. Pick a
	// bandwidth-heavy shape (small K reuse) so there is something to hide.
	p := gemm.Params{M: 512, N: 512, K: 64}
	off := compileAndRun(t, p, strategy(64, 64, 64, false))
	on := compileAndRun(t, p, strategy(64, 64, 64, true))
	if on.Seconds >= off.Seconds {
		t.Fatalf("prefetching should help: on=%.3g off=%.3g", on.Seconds, off.Seconds)
	}
	if on.Seconds > 0.8*off.Seconds {
		t.Fatalf("prefetching gain too small on bandwidth-bound shape: on=%.3g off=%.3g", on.Seconds, off.Seconds)
	}
}

func TestPrefetchStructure(t *testing.T) {
	seed, _ := gemm.Seed(gemm.Params{M: 128, N: 128, K: 128})
	prog, err := lower.Lower(seed, strategy(32, 32, 32, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := optimizer.InjectPrefetch(prog); err != nil {
		t.Fatal(err)
	}
	// Input frames are doubled.
	ir.Walk(prog.Body, func(s ir.Stmt) bool {
		if a, ok := s.(*ir.AllocSPM); ok && (a.Buf == "spm_A" || a.Buf == "spm_B") {
			if v, _ := ir.IsConst(a.Elems); v != 2*32*32 {
				t.Fatalf("%s not doubled: %v", a.Buf, a.Elems)
			}
		}
		return true
	})
	// The next-iteration inference chain exists (nested if-then-else over
	// nx_* variables).
	foundNext := false
	ir.Walk(prog.Body, func(s ir.Stmt) bool {
		if a, ok := s.(*ir.Assign); ok && len(a.Var) > 3 && a.Var[:3] == "nx_" {
			foundNext = true
		}
		return true
	})
	if !foundNext {
		t.Fatal("no next-iteration inference generated")
	}
	// Initial issues precede the outermost loop.
	sawOp := false
	for _, s := range prog.Body {
		if _, ok := s.(*ir.DMAOp); ok {
			sawOp = true
		}
		if _, ok := s.(*ir.For); ok {
			break
		}
	}
	if !sawOp {
		t.Fatal("no initial DMA issue before the loop nest")
	}
}

func TestTraditionalPaddingCorrectAndSlower(t *testing.T) {
	p := gemm.Params{M: 100, N: 52, K: 40} // unaligned everywhere
	light := strategy(32, 32, 32, true)
	trad := light
	trad.Padding = dsl.PadTraditional
	lres := compileAndRun(t, p, light)
	tres := compileAndRun(t, p, trad)
	if tres.Seconds <= lres.Seconds {
		t.Fatalf("traditional padding should cost more: trad=%.3g light=%.3g", tres.Seconds, lres.Seconds)
	}
}

func TestTraditionalPaddingNoopWhenAligned(t *testing.T) {
	seed, _ := gemm.Seed(gemm.Params{M: 64, N: 64, K: 64})
	st := strategy(32, 32, 32, false)
	st.Padding = dsl.PadTraditional
	prog, err := lower.LowerPadded(seed, st)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range prog.Tensors {
		if d.Scratch {
			t.Fatal("aligned problem should not allocate padded workspaces")
		}
	}
}

func TestPrefetchTimedEqualsFunctionalClock(t *testing.T) {
	// The black-box tuner runs timed-only; its clock must match the
	// functional run exactly.
	seed, _ := gemm.Seed(gemm.Params{M: 96, N: 96, K: 96})
	prog, err := core.Compile(seed, strategy(32, 32, 32, true))
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := conv.Bind(prog)
	b2, _ := conv.Bind(prog)
	r1, err := exec.Run(prog, b1, exec.Options{Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := exec.Run(prog, b2, exec.Options{Functional: false})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Seconds != r2.Seconds {
		t.Fatalf("functional %.9g vs timed %.9g", r1.Seconds, r2.Seconds)
	}
}
