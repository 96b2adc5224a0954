// Package core is swATOP's compilation pipeline (Fig. 3): it takes a DSL
// schedule seed and one schedule strategy, lowers them to IR, and applies
// the IR optimizations (auto-prefetching, DMA inference) in order. The
// scheduler/autotuner packages drive it over whole schedule spaces. A
// compiled program is read-only: programs may share statements (Prefix).
package core

import (
	"errors"
	"sync"

	"swatop/internal/dsl"
	"swatop/internal/ir"
	"swatop/internal/lower"
	"swatop/internal/optimizer"
)

// Compile produces the optimized IR program for one schedule strategy.
func Compile(seed *dsl.Seed, st dsl.Strategy) (*ir.Program, error) {
	var prog *ir.Program
	var err error
	switch st.Padding {
	case dsl.PadTraditional:
		prog, err = lower.LowerPadded(seed, st)
	default:
		prog, err = lower.Lower(seed, st)
	}
	if err != nil {
		return nil, err
	}
	return Optimize(prog, st)
}

// Optimize applies the IR optimizer passes to a lowered program. It is
// exposed separately so multi-phase operators (Winograd, explicit conv) can
// compose nests before optimizing.
func Optimize(prog *ir.Program, st dsl.Strategy) (*ir.Program, error) {
	body, err := optimizer.Optimize(prog.Body, st.DoubleBuffer, &optimizer.Replies{})
	if err != nil {
		return nil, err
	}
	prog.Body = body
	return prog, nil
}

// Prefix is the optimized head of a multi-phase program that no strategy
// decision reaches (explicit convolution's im2col phase, Winograd's filter
// and input transforms), built once per prefetch setting on first use. A
// candidate optimizes only its own statements, numbering reply words on
// from where the prefix stopped, so the joined program is the one
// optimizing it whole gives. Every joined program shares the prefix.
type Prefix struct {
	once [2]sync.Once // by prefetch setting
	body [2][]ir.Stmt
	end  [2]optimizer.Replies
	err  [2]error
}

var errPrefixPanicked = errors.New("core: building the shared prefix panicked")

// Join returns a fresh program body: the prefix for st's prefetch setting,
// built by build on first use, followed by own optimized as its
// continuation.
func (x *Prefix) Join(st dsl.Strategy, build func() []ir.Stmt, own []ir.Stmt) ([]ir.Stmt, error) {
	i := 0
	if st.DoubleBuffer {
		i = 1
	}
	x.once[i].Do(func() {
		x.err[i] = errPrefixPanicked // kept if build panics
		x.body[i], x.err[i] = optimizer.Optimize(build(), st.DoubleBuffer, &x.end[i])
	})
	if x.err[i] != nil {
		return nil, x.err[i]
	}
	r := x.end[i]
	own, err := optimizer.Optimize(own, st.DoubleBuffer, &r)
	if err != nil {
		return nil, err
	}
	return append(append(make([]ir.Stmt, 0, len(x.body[i])+len(own)), x.body[i]...), own...), nil
}
