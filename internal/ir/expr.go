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

// Expr is an integer expression over loop variables. All loop bounds, DMA
// attributes and buffer offsets in the IR are Exprs; the paper's observation
// that data access of DL operators is a function of the enclosing loop
// variables (§4.5.2) is what makes prefetch inference work. An expression is
// evaluated bound (Scope.Bind, Frame.Eval) or, when it is closed, folded
// (IsConst).
type Expr interface {
	// String renders the expression as C-like source.
	String() string
	// fold returns the value of a closed expression; ok is false when a
	// variable occurs.
	fold() (v int64, ok bool)
}

// ConstExpr is an integer literal.
type ConstExpr int64

// Const builds a literal expression.
func Const(v int64) Expr { return ConstExpr(v) }

func (c ConstExpr) String() string      { return fmt.Sprintf("%d", int64(c)) }
func (c ConstExpr) fold() (int64, bool) { return int64(c), true }

// VarExpr references a loop iterator or scalar local.
type VarExpr string

// V builds a variable reference.
func V(name string) Expr { return VarExpr(name) }

func (v VarExpr) String() string    { return string(v) }
func (VarExpr) fold() (int64, bool) { return 0, false }

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

// apply is the one implementation of the arithmetic, shared by constant
// folding and the bound evaluator (Frame.Eval).
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

func (b *BinExpr) fold() (int64, bool) {
	l, ok := b.L.fold()
	if !ok {
		return 0, false
	}
	r, ok := b.R.fold()
	if !ok {
		return 0, false
	}
	return b.Op.apply(l, r), true
}

func newBin(op binOp, l, r Expr) Expr {
	// Light constant folding keeps printed IR and generated C readable.
	lc, lok := l.(ConstExpr)
	rc, rok := r.(ConstExpr)
	if lok && rok {
		return Const(op.apply(int64(lc), int64(rc)))
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

// IsConst folds a closed expression in one pass: its value, and whether no
// variable occurs. A closed subtree that divides by zero panics, as
// evaluating it would; the constructors fold such a tree when it is built.
func IsConst(e Expr) (int64, bool) { return e.fold() }

// Memo substitutes into a set of expressions that share subtrees, such as
// a clipped move's start, extent and offset, rebuilding each shared node
// once rather than once per path to it. It remembers a fixed number of
// nodes and rebuilds the rest every time; the zero Memo is empty.
type Memo struct {
	n    int
	from [24]*BinExpr
	to   [24]Expr
}

// Subst replaces variable references by expressions: repl returns a
// variable's replacement and whether it has one. A subtree in which nothing
// is replaced is returned as it is, not rebuilt, and one the memo rebuilt
// before is reused.
func (m *Memo) Subst(e Expr, repl func(name string) (Expr, bool)) Expr {
	switch x := e.(type) {
	case ConstExpr:
		return e
	case VarExpr:
		if r, ok := repl(string(x)); ok {
			return r
		}
		return e
	case *BinExpr:
		for i := 0; i < m.n; i++ {
			if m.from[i] == x {
				return m.to[i]
			}
		}
		out := e
		if l, r := m.Subst(x.L, repl), m.Subst(x.R, repl); l != x.L || r != x.R {
			out = newBin(x.Op, l, r)
		}
		if m.n < len(m.from) {
			m.from[m.n], m.to[m.n] = x, out
			m.n++
		}
		return out
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

// Holds reports whether l op r: an If's condition over its two evaluated
// sides.
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
