package conv_test

import (
	"math/rand"
	"sync"
	"testing"

	"swatop/internal/codegen"
	"swatop/internal/conv"
	"swatop/internal/core"
	"swatop/internal/dsl"
	"swatop/internal/goldenpoints"
	"swatop/internal/ir"
	"swatop/internal/schedule"
)

// goldenOps returns the golden explicit and Winograd operators and every
// point of their spaces, widened as goldenpoints widens them: both prefetch
// settings and both padding modes.
func goldenOps(t *testing.T) (ops []dsl.Operator, points [][]dsl.Strategy) {
	t.Helper()
	all, err := goldenpoints.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range all {
		op, ok := pt.Op.(dsl.Operator)
		if !ok || len(ops) > 0 && ops[len(ops)-1] == op {
			continue
		}
		switch op.(type) {
		case *conv.ExplicitOp, *conv.WinogradOp:
		default:
			continue
		}
		sp := *op.Space()
		sp.DoubleBuffer = []bool{true, false}
		sp.Padding = []dsl.PaddingMode{dsl.PadLightweight, dsl.PadTraditional}
		dims, err := schedule.Describe(op.Seed(), &sp)
		if err != nil {
			t.Fatal(err)
		}
		sts := make([]dsl.Strategy, dims.Size())
		for i := range sts {
			sts[i] = dims.At(i)
		}
		ops, points = append(ops, op), append(points, sts)
	}
	if len(ops) != 2 {
		t.Fatalf("found %d golden explicit/Winograd operators, want 2", len(ops))
	}
	return ops, points
}

// same fails the test unless two compiles of one point agree: the same
// error, or programs that print the same.
func same(t *testing.T, what string, i int, got *ir.Program, gotErr error, want *ir.Program, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s, point %d: err %v, want %v", what, i, gotErr, wantErr)
	}
	if gotErr == nil && ir.Print(got) != ir.Print(want) {
		t.Fatalf("%s, point %d: the programs differ", what, i)
	}
}

// TestWinogradSharedPrefixMatchesRaw: at every point, a per-call Winograd
// program joined from the operator's shared transform phases prints as the
// raw program optimized whole. (The packed form is one fused nest, which
// shares nothing.)
func TestWinogradSharedPrefixMatchesRaw(t *testing.T) {
	ops, points := goldenOps(t)
	for k, op := range ops {
		wino, ok := op.(*conv.WinogradOp)
		if !ok {
			continue
		}
		for i, st := range points[k] {
			got, err := wino.Compile(st)
			raw, rawErr := wino.CompileRaw(st)
			if rawErr == nil {
				raw, rawErr = core.Optimize(raw, st)
			}
			same(t, wino.Name(), i, got, err, raw, rawErr)
		}
	}
}

// TestWarmOperatorCompilesLikeFresh: compiling every point on one operator,
// in shuffled order so that any point may be the one that builds the
// shared prefix, gives what a fresh operator gives.
func TestWarmOperatorCompilesLikeFresh(t *testing.T) {
	ops, points := goldenOps(t)
	for k, op := range ops {
		method := conv.Explicit
		if _, ok := op.(*conv.WinogradOp); ok {
			method = conv.Winograd
		}
		shape := conv.Shape{B: 8, Ni: 64, No: 96, Ro: 14, Co: 14, Kr: 3, Kc: 3}
		newOp := func() dsl.Operator {
			fresh, err := conv.NewPerCallOp(method, shape)
			if err != nil {
				t.Fatal(err)
			}
			return fresh
		}
		if op.Name() != newOp().Name() {
			t.Fatalf("golden operator %s is not the per-call %s shape %v", op.Name(), method, shape)
		}
		for _, i := range rand.New(rand.NewSource(int64(k))).Perm(len(points[k])) {
			st := points[k][i]
			got, err := op.Compile(st)
			fresh := newOp()
			want, wantErr := fresh.Compile(st)
			same(t, op.Name(), i, got, err, want, wantErr)
		}
	}
}

// TestConcurrentCompilesShareOnePrefix (run under -race by make race): four
// goroutines compile every point of one Winograd operator at once. Each
// keeps its program of the first point that compiles; once all are done,
// every one of them still emits the C of a fresh operator's program.
func TestConcurrentCompilesShareOnePrefix(t *testing.T) {
	ops, points := goldenOps(t)
	var wino *conv.WinogradOp
	var sts []dsl.Strategy
	for k, op := range ops {
		if w, ok := op.(*conv.WinogradOp); ok {
			wino, sts = w, points[k]
		}
	}
	first := -1
	for i, st := range sts {
		if _, err := wino.CompileRaw(st); err == nil {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatal("no point of the Winograd space compiles")
	}
	kept := make([]*ir.Program, 4)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for g := range kept {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, st := range sts {
				prog, err := wino.Compile(st)
				if i == first {
					kept[g], errs[g] = prog, err
				}
			}
		}()
	}
	wg.Wait()

	fresh, err := conv.NewWinogradOp(wino.S)
	if err != nil {
		t.Fatal(err)
	}
	fresh.PerCall = wino.PerCall
	prog, err := fresh.Compile(sts[first])
	if err != nil {
		t.Fatal(err)
	}
	want, err := codegen.EmitC(prog)
	if err != nil {
		t.Fatal(err)
	}
	for g, prog := range kept {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		got, err := codegen.EmitC(prog)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("goroutine %d: the first point's C differs from a fresh operator's", g)
		}
	}
}
