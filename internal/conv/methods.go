package conv

import (
	"fmt"

	"swatop/internal/dsl"
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
