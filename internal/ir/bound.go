package ir

import (
	"fmt"
	"slices"
)

// The bound form of an expression: a Scope numbers a program's variables
// once and an expression becomes a Code over those numbers, so evaluating
// it hashes no name. It is the one evaluator of an expression with
// variables; FuzzBoundEval holds it to the tree semantics kept in the tests.

// Scope numbers the variables of one program densely and owns the arena its
// bound expressions live in. Programs name about a dozen variables, so the
// name table is searched linearly.
type Scope struct {
	names []string
	ops   []op
	depth int // deepest evaluation stack a bound expression needs
}

// Slot returns the variable's number, assigning the next one on first use.
func (s *Scope) Slot(name string) int { return slot(&s.names, name) }

// slot returns name's index in *names, appending it on first use.
func slot(names *[]string, name string) int {
	i := slices.Index(*names, name)
	if i < 0 {
		i = len(*names)
		*names = append(*names, name)
	}
	return i
}

// op is one postfix instruction: a binOp over the two topmost stack values,
// or one of the pushes below.
type op struct {
	kind binOp
	arg  int32
}

const (
	opPushConst binOp = opMin + 1 + iota // push arg
	opPushWide                           // top = top<<32 | uint32(arg): the low half of a constant beyond int32
	opPushVar                            // push variable arg
)

// Code is a bound expression: n > 0 is the postfix range ops[a:a+n] of the
// scope's arena; a leaf is inline, the constant a or the variable a. A nil
// Expr (an unused statement field) binds to a Code that panics when
// evaluated.
type Code struct{ a, n int32 }

const (
	codeConst int32 = -iota
	codeVar
	codeNil
)

func fits32(c ConstExpr) bool { return int64(int32(c)) == int64(c) }

// Bind translates e against the scope's variable numbering.
func (s *Scope) Bind(e Expr) Code {
	switch x := e.(type) {
	case nil:
		return Code{n: codeNil}
	case VarExpr:
		return Code{a: int32(s.Slot(string(x))), n: codeVar}
	case ConstExpr:
		if fits32(x) {
			return Code{a: int32(x), n: codeConst}
		}
	}
	at := len(s.ops)
	s.depth = max(s.depth, s.emit(e))
	return Code{a: int32(at), n: int32(len(s.ops) - at)}
}

// emit appends e in postfix order and returns the stack depth it needs.
func (s *Scope) emit(e Expr) int {
	switch x := e.(type) {
	case ConstExpr:
		if fits32(x) {
			s.ops = append(s.ops, op{opPushConst, int32(x)})
		} else {
			s.ops = append(s.ops, op{opPushConst, int32(x >> 32)}, op{opPushWide, int32(x)})
		}
		return 1
	case VarExpr:
		s.ops = append(s.ops, op{opPushVar, int32(s.Slot(string(x)))})
		return 1
	case *BinExpr:
		l := s.emit(x.L)
		r := s.emit(x.R)
		s.ops = append(s.ops, op{kind: x.Op})
		return max(l, r+1)
	}
	panic(fmt.Sprintf("ir: Bind on unknown expr %T", e))
}

// Frame holds one run's variable values. A frame is private to its run; the
// scope it reads is not written after binding.
type Frame struct {
	scope *Scope
	vars  []Var
	stack []int64
}

// Var is a variable's value and whether it has one.
type Var struct {
	Val   int64
	Bound bool
}

// reset makes f an all-unbound frame for everything s has bound so far,
// reusing f's slices.
func (f *Frame) reset(s *Scope) {
	f.scope = s
	f.vars = append(f.vars[:0], make([]Var, len(s.names))...)
	f.stack = append(f.stack[:0], make([]int64, s.depth)...)
}

func (f *Frame) load(slot int32) int64 {
	v := f.vars[slot]
	if !v.Bound {
		panic(fmt.Sprintf("ir: unbound variable %q", f.scope.names[slot]))
	}
	return v.Val
}

// Eval computes a bound expression. It panics on an unbound variable, a
// division or modulo by zero and a nil expression — compiler bugs, not user
// errors. The inline constant, the commonest Code, is read without a call.
func (f *Frame) Eval(c Code) int64 {
	if c.n == codeConst {
		return int64(c.a)
	}
	return f.eval(c)
}

func (f *Frame) eval(c Code) int64 {
	switch c.n {
	case codeVar:
		return f.load(c.a)
	case codeNil:
		panic("ir: evaluating a nil expression")
	}
	// The commonest operations are applied in line (a halo's clipped moves
	// are mostly min, + and −); the rest, and an unbound variable's panic,
	// go through apply and load.
	st, sp := f.stack, 0
	for _, o := range f.scope.ops[c.a : c.a+c.n] {
		switch o.kind {
		case opPushConst:
			st[sp] = int64(o.arg)
			sp++
		case opPushWide:
			st[sp-1] = st[sp-1]<<32 | int64(uint32(o.arg))
		case opPushVar:
			if v := f.vars[o.arg]; v.Bound {
				st[sp] = v.Val
			} else {
				st[sp] = f.load(o.arg)
			}
			sp++
		case opAdd:
			sp--
			st[sp-1] += st[sp]
		case opSub:
			sp--
			st[sp-1] -= st[sp]
		case opMul:
			sp--
			st[sp-1] *= st[sp]
		case opMin:
			sp--
			st[sp-1] = min(st[sp-1], st[sp])
		default:
			sp--
			st[sp-1] = o.kind.apply(st[sp-1], st[sp])
		}
	}
	return st[0]
}
