package ir

import "fmt"

// The bound form of an expression: a Scope numbers a program's variables
// once and an expression becomes a Code over those numbers, so evaluating
// it hashes no name. Expr.Eval(Env) stays the reference; Frame.Eval gives
// the same values and raises the same panics.

// Scope numbers the variables of one program densely and owns the arena its
// bound expressions live in. Programs name about a dozen variables, so the
// name table is searched linearly.
type Scope struct {
	names []string
	ops   []op
	depth int // deepest evaluation stack a bound expression needs
}

// NewScope returns a scope with room for vars variables and ops postfix ops
// (OpCount summed over what will be bound); both grow when exceeded.
func NewScope(vars, ops int) Scope {
	return Scope{names: make([]string, 0, vars), ops: make([]op, 0, ops)}
}

// Slot returns the variable's number, assigning the next one on first use.
func (s *Scope) Slot(name string) int {
	for i, n := range s.names {
		if n == name {
			return i
		}
	}
	s.names = append(s.names, name)
	return len(s.names) - 1
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

// OpCount returns the number of arena ops Bind appends for e: none for a
// leaf that fits a Code, one push per leaf below an operator.
func OpCount(e Expr) int {
	switch x := e.(type) {
	case *BinExpr:
		return max(OpCount(x.L), 1) + max(OpCount(x.R), 1) + 1
	case ConstExpr:
		if !fits32(x) {
			return 2
		}
	}
	return 0
}

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

// Frame holds one run's variable values: what Env is to Eval. A frame is
// private to its run; the scope it reads is not written after binding.
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

// NewFrame returns an all-unbound frame for everything bound so far.
func (s *Scope) NewFrame() Frame {
	return Frame{scope: s, vars: make([]Var, len(s.names)), stack: make([]int64, s.depth)}
}

// Var returns a variable to read or assign; a loop saves the whole Var its
// iterator shadows and puts it back.
func (f *Frame) Var(slot int) *Var { return &f.vars[slot] }

func (f *Frame) load(slot int32) int64 {
	v := f.vars[slot]
	if !v.Bound {
		panic(fmt.Sprintf("ir: unbound variable %q", f.scope.names[slot]))
	}
	return v.Val
}

// Eval computes a bound expression: Expr.Eval's value, or its panic.
func (f *Frame) Eval(c Code) int64 {
	switch c.n {
	case codeConst:
		return int64(c.a)
	case codeVar:
		return f.load(c.a)
	case codeNil:
		panic("ir: evaluating a nil expression")
	}
	st, sp := f.stack, 0
	for _, o := range f.scope.ops[c.a : c.a+c.n] {
		switch o.kind {
		case opPushConst:
			st[sp] = int64(o.arg)
			sp++
		case opPushWide:
			st[sp-1] = st[sp-1]<<32 | int64(uint32(o.arg))
		case opPushVar:
			st[sp] = f.load(o.arg)
			sp++
		default:
			sp--
			st[sp-1] = o.kind.apply(st[sp-1], st[sp])
		}
	}
	return st[0]
}
