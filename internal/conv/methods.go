package conv

import (
	"fmt"

	"swatop/internal/dsl"
	"swatop/internal/ir"
)

// The three convolution methods, by the names the CLIs, the schedule
// library and the reports use.
const (
	Implicit = "implicit"
	Explicit = "explicit"
	Winograd = "winograd"
)

// Methods lists them in the fixed order every sweep tries them.
var Methods = []string{Implicit, Explicit, Winograd}

// NewOp builds the tunable operator of one method: the one place the
// method name → operator table is written.
func NewOp(method string, s Shape) (dsl.Operator, error) {
	switch method {
	case Implicit:
		return NewImplicitOp(s)
	case Explicit:
		return NewExplicitOp(s)
	case Winograd:
		return NewWinogradOp(s)
	}
	return nil, fmt.Errorf("conv: unknown method %q", method)
}

// NewPerCallOp is NewOp with a Winograd operator in its per-call form
// (WinogradOp.PerCall): for callers that time one convolution call, filter
// transform included, rather than a network holding its weights fixed.
func NewPerCallOp(method string, s Shape) (dsl.Operator, error) {
	op, err := NewOp(method, s)
	if w, ok := op.(*WinogradOp); ok {
		w.PerCall = true
	}
	return op, err
}

// OpName is the name of a method's operator for a shape — the signature
// the schedule library files its entry under — written without building
// the operator. A Winograd operator's is its packed form's, which files
// under its own family so the two forms never share an entry. A shape with
// the ReLU epilogue files under the suffix _relu, a padded one under
// _pad<Pad> after it.
func OpName(method string, s Shape) string {
	if method == Winograd {
		method = "winograd_fused"
	}
	return opName(method, s)
}

func opName(family string, s Shape) string {
	relu := ""
	if s.ReLU {
		relu = "_relu"
	}
	if s.Pad > 0 {
		return fmt.Sprintf("%s_conv_b%d_ni%d_no%d_r%dx%d_k%dx%d%s_pad%d", family, s.B, s.Ni, s.No, s.Ro, s.Co, s.Kr, s.Kc, relu, s.Pad)
	}
	return fmt.Sprintf("%s_conv_b%d_ni%d_no%d_r%dx%d_k%dx%d%s", family, s.B, s.Ni, s.No, s.Ro, s.Co, s.Kr, s.Kc, relu)
}

// Applies reports whether a method handles a shape (the paper's
// applicability rules): implicit needs enough input channels, Winograd a
// 3×3 kernel on even output extents, explicit takes anything.
func Applies(method string, s Shape) bool {
	switch method {
	case Implicit:
		return s.Ni >= MinNiImplicit
	case Winograd:
		return WinogradApplies(s)
	}
	return true
}

// chunks splits a loop over total elements into chunks of ch, clamped to
// [1, total]: the clamped chunk, the trip count, and, for iteration
// variable iter, the chunk's start and extent (the last chunk may be
// short).
func chunks(iter string, ch, total int) (int, int, ir.Expr, ir.Expr) {
	ch = min(max(ch, 1), total)
	start := ir.Mul(ir.V(iter), ir.Const(int64(ch)))
	ext := ir.Expr(ir.Const(int64(ch)))
	if total%ch != 0 {
		ext = ir.Min(ir.Const(int64(ch)), ir.Sub(ir.Const(int64(total)), start))
	}
	return ch, (total + ch - 1) / ch, start, ext
}
