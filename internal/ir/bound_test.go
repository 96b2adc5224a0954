package ir

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// env maps variable names to values for the reference evaluator.
type env map[string]int64

// eval is the reference semantics of an expression: the tree evaluator the
// bound form replaced, kept as the oracle of TestBoundEvalMatchesEval and
// FuzzBoundEval. It panics on an unbound variable, as Frame.Eval does, and
// shares binOp.apply's arithmetic (TestExprEval and
// TestDivModConsistencyQuick pin that).
func eval(e Expr, vars env) int64 {
	switch x := e.(type) {
	case ConstExpr:
		return int64(x)
	case VarExpr:
		v, ok := vars[string(x)]
		if !ok {
			panic(fmt.Sprintf("ir: unbound variable %q", string(x)))
		}
		return v
	case *BinExpr:
		return x.Op.apply(eval(x.L, vars), eval(x.R, vars))
	}
	panic(fmt.Sprintf("ir: eval on unknown expr %T", e))
}

// boundCase decodes a byte string into an expression tree and an
// environment. Trees are built as raw BinExprs (no folding, so x/0 survives
// construction), over five names of which the environment binds a subset,
// with constants on both sides of the int32 range an inline Code holds.
func boundCase(raw []byte) (Expr, env) {
	next := func() byte {
		if len(raw) == 0 {
			return 0
		}
		b := raw[0]
		raw = raw[1:]
		return b
	}
	names := []string{"i", "j", "k", "next_i", "n"}
	mask := next()
	vars := env{}
	for i, n := range names {
		if mask&(1<<i) != 0 {
			vars[n] = int64(int8(next()))
		}
	}
	var build func(depth int) Expr
	build = func(depth int) Expr {
		k := next()
		switch {
		case depth > 10 || k%8 < 2:
			return ConstExpr(int8(next()))
		case k%8 == 2:
			return VarExpr(names[next()%5])
		case k%8 == 3:
			return ConstExpr(int64(int8(next()))<<32 | int64(next())<<24 | int64(next()))
		}
		return &BinExpr{binOp(next() % 6), build(depth + 1), build(depth + 1)}
	}
	return build(0), vars
}

// outcome runs an evaluation and returns its value, or its panic as text.
func outcome(eval func() int64) (res string) {
	defer func() {
		if r := recover(); r != nil {
			res = fmt.Sprint("panic: ", r)
		}
	}()
	return fmt.Sprint(eval())
}

// checkBound asserts the bound evaluator agrees with the reference on one
// case, value or panic. It returns the outcome.
func checkBound(t *testing.T, e Expr, vars env) string {
	t.Helper()
	var s Scope
	c := s.Bind(e)
	for name := range vars {
		s.Slot(name)
	}
	var f Frame
	f.reset(&s)
	for name, v := range vars {
		f.vars[s.Slot(name)] = Var{v, true}
	}
	want := outcome(func() int64 { return eval(e, vars) })
	if got := outcome(func() int64 { return f.Eval(c) }); got != want {
		t.Fatalf("%s under %v: bound form gives %s, the reference %s", e, vars, got, want)
	}
	return want
}

// TestBoundEvalMatchesEval: random trees and environments evaluate to equal
// values and equal panics in the bound form and the reference, reaching
// every panic and constants that do not fit an inline code.
func TestBoundEvalMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(20190805))
	seen := map[string]int{}
	for i := 0; i < 20000; i++ {
		raw := make([]byte, rng.Intn(96))
		rng.Read(raw)
		e, vars := boundCase(raw)
		res := checkBound(t, e, vars)
		switch {
		case strings.Contains(res, "unbound variable"):
			seen["unbound"]++
		case strings.Contains(res, "division by zero"):
			seen["div0"]++
		case strings.Contains(res, "modulo by zero"):
			seen["mod0"]++
		case strings.HasPrefix(res, "panic"):
			t.Fatalf("%s: unexpected %s", e, res)
		default:
			seen["value"]++
			var s Scope
			if s.Bind(e); len(s.ops) > 8 {
				seen["deep"]++
			}
		}
		if c, ok := e.(ConstExpr); ok && !fits32(c) {
			seen["wide leaf"]++
		}
	}
	for _, class := range []string{"value", "deep", "unbound", "div0", "mod0", "wide leaf"} {
		if seen[class] < 50 {
			t.Errorf("only %d generated cases in class %s", seen[class], class)
		}
	}
	// The extremes of both constant encodings, and a nil expression: legal to
	// bind (an unused statement field), a panic to evaluate in either form.
	for _, v := range []int64{0, -1, 1<<31 - 1, -1 << 31, 1 << 31, -1<<31 - 1, 1<<63 - 1, -1 << 63} {
		checkBound(t, ConstExpr(v), nil)
		checkBound(t, &BinExpr{opAdd, ConstExpr(v), VarExpr("i")}, env{"i": 0})
	}
	var s Scope
	var f Frame
	f.reset(&s)
	if res := outcome(func() int64 { return f.Eval(s.Bind(nil)) }); !strings.HasPrefix(res, "panic") {
		t.Fatalf("evaluating a bound nil expression gave %s, want a panic", res)
	}
}

// FuzzBoundEval binds random expression trees — wide constants, /0, %0 and
// unbound variables included — and evaluates them with Frame.Eval: the same
// value as the reference, or a panic on both sides. Its corpus is the four
// seeds below and testdata/fuzz/FuzzBoundEval.
func FuzzBoundEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x03, 7, 3, 4, 3, 2, 0, 0, 0})                   // (i / 0)
	f.Add([]byte{0x01, 5, 4, 4, 2, 4, 0, 5, 3, 0x7f, 0xff, 0xff}) // i % (5 ...) with a wide constant
	f.Add([]byte{0x00, 4, 0, 2, 1, 0, 9})                         // unbound j
	f.Fuzz(func(t *testing.T, raw []byte) {
		e, vars := boundCase(raw)
		checkBound(t, e, vars)
	})
}

// TestFrameShadowing: a Var carries the (value, bound) pair a loop saves and
// restores around its iterator.
func TestFrameShadowing(t *testing.T) {
	var s Scope
	i := s.Slot("i")
	var f Frame
	f.reset(&s)
	v := &f.vars[i]
	if v.Bound {
		t.Fatal("fresh frame has i bound")
	}
	unbound := *v
	*v = Var{7, true}
	saved := *v
	*v = Var{2, true}
	if got := f.Eval(s.Bind(V("i"))); got != 2 {
		t.Fatalf("shadowed i = %d, want 2", got)
	}
	*v = saved
	if got := f.Eval(s.Bind(V("i"))); got != 7 {
		t.Fatalf("restored i = %d, want 7", got)
	}
	*v = unbound
	if res := outcome(func() int64 { return f.Eval(s.Bind(V("i"))) }); res != `panic: ir: unbound variable "i"` {
		t.Fatalf("unbound i evaluates to %s", res)
	}
}
