// Package ir defines swATOP's intermediate representation (§4.4): an
// abstract syntax tree of statement nodes (for, if-then-else, DMA, gemm_op,
// transforms) over a small integer expression language of loop iterators.
// Schedule strategies and IR optimizations are implemented as mutations of
// this structure; the executor interprets it against the SW26010 model and
// the code generator lowers it to C.
package ir

import (
	"fmt"
)

// Env maps loop iterators and scalar locals to values during evaluation.
type Env map[string]int64

// Expr is an integer expression over loop variables. All loop bounds, DMA
// attributes and buffer offsets in the IR are Exprs; the paper's observation
// that data access of DL operators is a function of the enclosing loop
// variables (§4.5.2) is what makes prefetch inference work.
type Expr interface {
	// Eval computes the expression under an environment. It panics on an
	// unbound variable — that is a compiler bug, not a user error.
	Eval(env Env) int64
	// String renders the expression as C-like source.
	String() string
	// free accumulates free variables.
	free(set map[string]bool)
}

// ConstExpr is an integer literal.
type ConstExpr int64

// Const builds a literal expression.
func Const(v int64) Expr { return ConstExpr(v) }

// Eval implements Expr.
func (c ConstExpr) Eval(Env) int64       { return int64(c) }
func (c ConstExpr) String() string       { return fmt.Sprintf("%d", int64(c)) }
func (c ConstExpr) free(map[string]bool) {}

// VarExpr references a loop iterator or scalar local.
type VarExpr string

// V builds a variable reference.
func V(name string) Expr { return VarExpr(name) }

// Eval implements Expr.
func (v VarExpr) Eval(env Env) int64 {
	val, ok := env[string(v)]
	if !ok {
		panic(fmt.Sprintf("ir: unbound variable %q", string(v)))
	}
	return val
}
func (v VarExpr) String() string           { return string(v) }
func (v VarExpr) free(set map[string]bool) { set[string(v)] = true }

type binOp int32

const (
	opAdd binOp = iota
	opSub
	opMul
	opDiv // floor division
	opMod
	opMin
)

var opNames = map[binOp]string{
	opAdd: "+", opSub: "-", opMul: "*", opDiv: "/", opMod: "%%",
}

// BinExpr is a binary operation.
type BinExpr struct {
	Op   binOp
	L, R Expr
}

// Eval implements Expr.
func (b *BinExpr) Eval(env Env) int64 {
	return b.Op.apply(b.L.Eval(env), b.R.Eval(env))
}

// apply is the one implementation of the arithmetic, shared by Eval and the
// bound evaluator (Frame.Eval).
func (op binOp) apply(l, r int64) int64 {
	switch op {
	case opAdd:
		return l + r
	case opSub:
		return l - r
	case opMul:
		return l * r
	case opDiv:
		if r == 0 {
			panic("ir: division by zero")
		}
		q := l / r
		if (l%r != 0) && ((l < 0) != (r < 0)) {
			q-- // floor semantics
		}
		return q
	case opMod:
		if r == 0 {
			panic("ir: modulo by zero")
		}
		m := l % r
		if m != 0 && ((l < 0) != (r < 0)) {
			m += r
		}
		return m
	case opMin:
		if l < r {
			return l
		}
		return r
	}
	panic("ir: unknown op")
}

func (b *BinExpr) String() string {
	switch b.Op {
	case opMin:
		return fmt.Sprintf("min(%s, %s)", b.L, b.R)
	case opMod:
		return fmt.Sprintf("(%s %% %s)", b.L, b.R)
	default:
		return fmt.Sprintf("(%s %s %s)", b.L, opNames[b.Op], b.R)
	}
}

func (b *BinExpr) free(set map[string]bool) {
	b.L.free(set)
	b.R.free(set)
}

func newBin(op binOp, l, r Expr) Expr {
	// Light constant folding keeps printed IR and generated C readable.
	lc, lok := l.(ConstExpr)
	rc, rok := r.(ConstExpr)
	if lok && rok {
		return Const((&BinExpr{op, l, r}).Eval(nil))
	}
	switch op {
	case opAdd:
		if lok && lc == 0 {
			return r
		}
		if rok && rc == 0 {
			return l
		}
	case opSub:
		if rok && rc == 0 {
			return l
		}
	case opMul:
		if lok && lc == 1 {
			return r
		}
		if rok && rc == 1 {
			return l
		}
		if (lok && lc == 0) || (rok && rc == 0) {
			return Const(0)
		}
	case opDiv:
		if rok && rc == 1 {
			return l
		}
	}
	return &BinExpr{op, l, r}
}

// Add returns l + r with constant folding.
func Add(l, r Expr) Expr { return newBin(opAdd, l, r) }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return newBin(opSub, l, r) }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return newBin(opMul, l, r) }

// Div returns floor(l / r).
func Div(l, r Expr) Expr { return newBin(opDiv, l, r) }

// Mod returns l mod r (non-negative for positive r).
func Mod(l, r Expr) Expr { return newBin(opMod, l, r) }

// Min returns min(l, r) — the boundary-extent idiom min(factor, N - i*factor).
func Min(l, r Expr) Expr { return newBin(opMin, l, r) }

// IsConst reports whether e evaluates without an environment, returning the
// value when it does.
func IsConst(e Expr) (int64, bool) {
	if c, ok := e.(ConstExpr); ok {
		return int64(c), true
	}
	set := make(map[string]bool)
	e.free(set)
	if len(set) == 0 {
		return e.Eval(nil), true
	}
	return 0, false
}

// Subst replaces variable references by expressions, returning a new tree.
func Subst(e Expr, repl map[string]Expr) Expr {
	switch x := e.(type) {
	case ConstExpr:
		return x
	case VarExpr:
		if r, ok := repl[string(x)]; ok {
			return r
		}
		return x
	case *BinExpr:
		return newBin(x.Op, Subst(x.L, repl), Subst(x.R, repl))
	}
	panic(fmt.Sprintf("ir: Subst on unknown expr %T", e))
}

// CmpOp is a comparison operator for If conditions.
type CmpOp int

// Comparison operators.
const (
	LT CmpOp = iota
	LE
	GT
	GE
	EQ
	NE
)

var cmpNames = map[CmpOp]string{LT: "<", LE: "<=", GT: ">", GE: ">=", EQ: "==", NE: "!="}

// Cond is a binary comparison used by If statements.
type Cond struct {
	Op   CmpOp
	L, R Expr
}

// Eval evaluates the condition.
func (c Cond) Eval(env Env) bool { return c.Op.Holds(c.L.Eval(env), c.R.Eval(env)) }

// Holds reports whether l op r: the one implementation of the comparison,
// for Cond.Eval and for callers that evaluated both sides in bound form.
func (op CmpOp) Holds(l, r int64) bool {
	switch op {
	case LT:
		return l < r
	case LE:
		return l <= r
	case GT:
		return l > r
	case GE:
		return l >= r
	case EQ:
		return l == r
	case NE:
		return l != r
	}
	panic("ir: unknown cmp op")
}

func (c Cond) String() string {
	return fmt.Sprintf("%s %s %s", c.L, cmpNames[c.Op], c.R)
}
