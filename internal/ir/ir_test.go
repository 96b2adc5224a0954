package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestExprEval(t *testing.T) {
	vars := env{"i": 7, "j": 3}
	cases := []struct {
		e    Expr
		want int64
	}{
		{Const(5), 5},
		{V("i"), 7},
		{Add(V("i"), V("j")), 10},
		{Sub(V("j"), V("i")), -4},
		{Mul(V("i"), Const(4)), 28},
		{Div(V("i"), V("j")), 2},
		{Div(Const(-7), Const(3)), -3}, // floor semantics
		{Mod(V("i"), V("j")), 1},
		{Mod(Const(-7), Const(3)), 2}, // non-negative
		{Min(V("i"), V("j")), 3},
	}
	for i, c := range cases {
		if got := eval(c.e, vars); got != c.want {
			t.Errorf("case %d (%s): got %d, want %d", i, c.e, got, c.want)
		}
	}
}

func TestExprConstFolding(t *testing.T) {
	if _, ok := Add(Const(2), Const(3)).(ConstExpr); !ok {
		t.Fatal("const+const should fold")
	}
	if e := Add(V("i"), Const(0)); e.String() != "i" {
		t.Fatalf("i+0 should simplify, got %s", e)
	}
	if e := Mul(V("i"), Const(1)); e.String() != "i" {
		t.Fatalf("i*1 should simplify, got %s", e)
	}
	if e := Mul(V("i"), Const(0)); e.String() != "0" {
		t.Fatalf("i*0 should fold to 0, got %s", e)
	}
	if e := Div(V("i"), Const(1)); e.String() != "i" {
		t.Fatalf("i/1 should simplify, got %s", e)
	}
}

func TestExprUnboundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unbound variable should panic")
		}
	}()
	var s Scope
	c := s.Bind(V("ghost"))
	var f Frame
	f.reset(&s)
	f.Eval(c)
}

// TestDivModByZeroPanics: folding a constant division or modulo by zero
// panics, in the constructors and in IsConst.
func TestDivModByZeroPanics(t *testing.T) {
	for _, fold := range []func(){
		func() { Div(Const(1), Const(0)) },
		func() { Mod(Const(1), Const(0)) },
		func() { IsConst(&BinExpr{opDiv, Const(1), Const(0)}) },
		func() { IsConst(&BinExpr{opMod, Const(1), Const(0)}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("div/mod by zero should panic")
				}
			}()
			fold()
		}()
	}
}

func TestFreeVarsAndIsConst(t *testing.T) {
	e := Add(Mul(V("b"), Const(2)), Min(V("a"), V("b")))
	if _, ok := IsConst(e); ok {
		t.Fatal("expr with vars is not const")
	}
	if v, ok := IsConst(Min(Const(3), Const(9))); !ok || v != 3 {
		t.Fatalf("IsConst(min(3,9)) = %d, %v", v, ok)
	}
	// A closed tree built without the constructors' folding folds in one
	// pass; an open one is not constant wherever its variable sits.
	closed := &BinExpr{opSub, &BinExpr{opMul, Const(6), Const(7)}, &BinExpr{opMod, Const(-7), Const(3)}}
	if v, ok := IsConst(closed); !ok || v != 40 {
		t.Fatalf("IsConst(%s) = %d, %v, want 40", closed, v, ok)
	}
	for _, open := range []Expr{&BinExpr{opAdd, V("i"), Const(1)}, &BinExpr{opAdd, Const(1), V("i")}} {
		if _, ok := IsConst(open); ok {
			t.Fatalf("IsConst(%s) reports a constant", open)
		}
	}
}

// lookup is a substitution table as Memo.Subst reads it.
func lookup(m map[string]Expr) func(string) (Expr, bool) {
	return func(name string) (Expr, bool) {
		e, ok := m[name]
		return e, ok
	}
}

// subst is a one-expression Memo.Subst.
func subst(e Expr, repl func(string) (Expr, bool)) Expr {
	var m Memo
	return m.Subst(e, repl)
}

func TestSubst(t *testing.T) {
	e := Add(Mul(V("i"), Const(16)), V("j"))
	s := subst(e, lookup(map[string]Expr{"i": Add(V("i"), Const(1))}))
	vars := env{"i": 2, "j": 5}
	if got := eval(s, vars); got != 3*16+5 {
		t.Fatalf("subst eval = %d", got)
	}
	// Original unchanged.
	if got := eval(e, vars); got != 2*16+5 {
		t.Fatalf("original mutated: %d", got)
	}
	// What has nothing to replace is returned as it is, not rebuilt.
	if got := subst(e, lookup(map[string]Expr{"k": Const(1)})); got != e {
		t.Fatalf("subst without a match rebuilt %s", e)
	}
	if got := subst(e, lookup(map[string]Expr{"j": Const(1)})).(*BinExpr).L; got != e.(*BinExpr).L {
		t.Fatalf("subst rebuilt the unchanged subtree %s", got)
	}
	// A subtree two expressions share is rebuilt once for both.
	var m Memo
	repl := lookup(map[string]Expr{"i": V("n")})
	shared := Mul(V("i"), Const(16))
	a, b := m.Subst(Add(shared, V("j")), repl), m.Subst(Sub(shared, Const(1)), repl)
	if a.(*BinExpr).L != b.(*BinExpr).L || eval(a, env{"n": 1, "j": 2}) != 18 {
		t.Fatalf("memo rebuilt the shared subtree twice: %s, %s", a, b)
	}
}

func TestCondEval(t *testing.T) {
	vars := env{"i": 4}
	cases := []struct {
		c    Cond
		want bool
	}{
		{Cond{LT, V("i"), Const(5)}, true},
		{Cond{LE, V("i"), Const(4)}, true},
		{Cond{GT, V("i"), Const(4)}, false},
		{Cond{GE, V("i"), Const(4)}, true},
		{Cond{EQ, V("i"), Const(4)}, true},
		{Cond{NE, V("i"), Const(4)}, false},
	}
	for i, c := range cases {
		if got := c.c.Op.Holds(eval(c.c.L, vars), eval(c.c.R, vars)); got != c.want {
			t.Errorf("case %d (%s): got %v", i, c.c, got)
		}
	}
}

// Property: floor-div and mod are consistent: l == r*div + mod, 0 <= mod < r.
func TestDivModConsistencyQuick(t *testing.T) {
	f := func(l int32, r0 uint8) bool {
		r := int64(r0%100) + 1
		le := Const(int64(l))
		re := Const(r)
		d, _ := IsConst(&BinExpr{opDiv, le, re})
		m, _ := IsConst(&BinExpr{opMod, le, re})
		return int64(l) == r*d+m && m >= 0 && m < r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func buildSample() *Program {
	inner := &Gemm{
		A: "a", B: "b", C: "c",
		AOff: Const(0), BOff: Const(0), COff: Const(0),
		M: Const(32), N: Const(32), K: V("kk"),
		LDA: Const(32), LDB: Const(32), LDC: Const(32),
		Vec: VecN, Accumulate: true,
	}
	return &Program{
		Name: "sample",
		Tensors: []TensorDecl{
			{Name: "A", Dims: []int{64, 64}},
			{Name: "C", Dims: []int{64, 64}, Output: true},
		},
		Body: []Stmt{
			&AllocSPM{Buf: "a", Elems: Const(1024)},
			&For{Iter: "i", Extent: Const(2), Body: []Stmt{
				&For{Iter: "j", Extent: Const(2), Body: []Stmt{
					&RegionMove{Tensor: "A", Dir: Get,
						Start:  []Expr{Mul(V("i"), Const(32)), Const(0)},
						Extent: []Expr{Const(32), Const(64)},
						Buf:    "a", BufOff: Const(0)},
					inner,
				}},
			}},
		},
	}
}

func TestWalkAndCount(t *testing.T) {
	p := buildSample()
	if n := CountKind(p.Body, func(s Stmt) bool { _, ok := s.(*For); return ok }); n != 2 {
		t.Fatalf("for count = %d", n)
	}
	if n := CountKind(p.Body, func(s Stmt) bool { _, ok := s.(*Gemm); return ok }); n != 1 {
		t.Fatalf("gemm count = %d", n)
	}
	// Skipping children works.
	seen := 0
	Walk(p.Body, func(s Stmt) bool {
		seen++
		_, isFor := s.(*For)
		return !isFor // do not descend into loops
	})
	if seen != 2 { // alloc + outer for
		t.Fatalf("walk with skip visited %d nodes", seen)
	}
}

func TestPrintContainsStructure(t *testing.T) {
	p := buildSample()
	out := Print(p)
	for _, want := range []string{
		"program sample",
		"tensor A[64 64] in",
		"tensor C[64 64] out",
		"for i in [0, 2):",
		"region_get A[(i * 32):+32, 0:+64] -> a+0",
		"gemm c+0 += a+0 x b+0",
		"vecN",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printed IR missing %q:\n%s", want, out)
		}
	}
}

func TestPrintAllNodeKinds(t *testing.T) {
	body := []Stmt{
		&Assign{Var: "next_i", Val: Add(V("i"), Const(1))},
		&If{Cond: Cond{EQ, V("next_i"), Const(4)},
			Then: []Stmt{&Assign{Var: "next_i", Val: Const(0)}},
			Else: []Stmt{&Comment{Text: "steady"}}},
		&DMAOp{Move: RegionMove{Tensor: "A", Dir: Get,
			Start: []Expr{Const(0)}, Extent: []Expr{Const(8)}, Buf: "a", BufOff: Const(0)},
			Reply: "r0"},
		&DMAWait{Reply: "r0", Times: Const(1)},
		&Transform{Kind: ZeroFill, Dst: "a", DstOff: Const(0), SrcOff: Const(0), Args: []Expr{Const(16)}},
		&FreeSPM{Buf: "a"},
	}
	out := Print(&Program{Name: "fragment", Body: body})
	for _, want := range []string{"next_i = (i + 1)", "if next_i == 4:", "else:", "dma_get", "dma_wait r0 x1", "zerofill", "free_spm a"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed fragment missing %q:\n%s", want, out)
		}
	}
}
