package ir

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// boundCase decodes a byte string into an expression tree and an
// environment. Trees are built as raw BinExprs (no folding, so x/0 survives
// construction), over five names of which the environment binds a subset,
// with constants on both sides of the int32 range an inline Code holds.
func boundCase(raw []byte) (Expr, Env) {
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
	env := Env{}
	for i, n := range names {
		if mask&(1<<i) != 0 {
			env[n] = int64(int8(next()))
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
	return build(0), env
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

// checkBound asserts the bound evaluator agrees with Eval on one case, value
// or panic, and that OpCount sized the arena exactly. It returns the outcome.
func checkBound(t *testing.T, e Expr, env Env) string {
	t.Helper()
	s := NewScope(0, OpCount(e))
	c := s.Bind(e)
	if len(s.ops) != OpCount(e) || cap(s.ops) != OpCount(e) {
		t.Fatalf("%s: OpCount %d, Bind appended %d (cap %d)", e, OpCount(e), len(s.ops), cap(s.ops))
	}
	for name := range env {
		s.Slot(name)
	}
	f := s.NewFrame()
	for name, v := range env {
		*f.Var(s.Slot(name)) = Var{v, true}
	}
	want := outcome(func() int64 { return e.Eval(env) })
	if got := outcome(func() int64 { return f.Eval(c) }); got != want {
		t.Fatalf("%s under %v: bound form gives %s, Eval %s", e, env, got, want)
	}
	return want
}

// TestBoundEvalMatchesEval: random trees and environments evaluate to equal
// values and equal panics in both forms, reaching every panic and constants
// that do not fit an inline code.
func TestBoundEvalMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(20190805))
	seen := map[string]int{}
	for i := 0; i < 20000; i++ {
		raw := make([]byte, rng.Intn(96))
		rng.Read(raw)
		e, env := boundCase(raw)
		res := checkBound(t, e, env)
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
			if _, ok := e.(*BinExpr); ok && OpCount(e) > 8 {
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
		checkBound(t, &BinExpr{opAdd, ConstExpr(v), VarExpr("i")}, Env{"i": 0})
	}
	s := NewScope(0, 0)
	f := s.NewFrame()
	if res := outcome(func() int64 { return f.Eval(s.Bind(nil)) }); !strings.HasPrefix(res, "panic") {
		t.Fatalf("evaluating a bound nil expression gave %s, want a panic", res)
	}
}

func FuzzBoundEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x03, 7, 3, 4, 3, 2, 0, 0, 0})                   // (i / 0)
	f.Add([]byte{0x01, 5, 4, 4, 2, 4, 0, 5, 3, 0x7f, 0xff, 0xff}) // i % (5 ...) with a wide constant
	f.Add([]byte{0x00, 4, 0, 2, 1, 0, 9})                         // unbound j
	f.Fuzz(func(t *testing.T, raw []byte) {
		e, env := boundCase(raw)
		checkBound(t, e, env)
	})
}

// TestFrameShadowing: a Var carries the (value, bound) pair a loop saves and
// restores around its iterator.
func TestFrameShadowing(t *testing.T) {
	s := NewScope(1, 0)
	i := s.Slot("i")
	f := s.NewFrame()
	if f.Var(i).Bound {
		t.Fatal("fresh frame has i bound")
	}
	unbound := *f.Var(i)
	*f.Var(i) = Var{7, true}
	saved := *f.Var(i)
	*f.Var(i) = Var{2, true}
	if got := f.Eval(s.Bind(V("i"))); got != 2 {
		t.Fatalf("shadowed i = %d, want 2", got)
	}
	*f.Var(i) = saved
	if got := f.Eval(s.Bind(V("i"))); got != 7 {
		t.Fatalf("restored i = %d, want 7", got)
	}
	*f.Var(i) = unbound
	if res := outcome(func() int64 { return f.Eval(s.Bind(V("i"))) }); res != `panic: ir: unbound variable "i"` {
		t.Fatalf("unbound i evaluates to %s", res)
	}
}
