// Package baseline implements the hand-optimized comparison targets of the
// paper's evaluation, expressed as fixed schedules in swATOP's own IR so
// they run on the same simulated machine:
//
//   - swDNN (Fang et al., IPDPS'17): the manual implicit convolution —
//     batch ≥ 32 only, one expertly chosen blocking tuned for large
//     training layers, traditional whole-tensor padding for odd shapes.
//   - xMath (Jiang et al., ICPP'17): the manual GEMM — large square
//     blocking, traditional padding, plus the hand-tuned assembly
//     micro-kernel variant on exactly-aligned tiles (a specialization
//     outside swATOP's schedule space, which is why xMath keeps a small
//     edge on its sweet spot — Table 2's "slower" rows).
//   - Manual Winograd / explicit convolution: the pre-swATOP approach of
//     calling xMath routines per GEMM with unfused, one-channel-at-a-time
//     transform phases.
package baseline

import (
	"fmt"
	"strings"
	"sync"

	"swatop/internal/autotune"

	"swatop/internal/conv"
	"swatop/internal/core"
	"swatop/internal/dsl"
	"swatop/internal/gemm"
	"swatop/internal/ir"
	"swatop/internal/lower"
	"swatop/internal/primitives"
)

// LibraryDispatchSeconds is the per-routine-call overhead of the manual
// libraries: athread kernel spawn, argument marshalling and workspace
// setup (~80 µs on SW26010). swATOP compiles each operator into one fused
// kernel and pays it zero times; manual Winograd pays it per xMath call.
const LibraryDispatchSeconds = 8.0e-5

// SwDNNBatchMultiple is swDNN's batch-size requirement: its register
// blocking hardcodes batch strips of 32.
const SwDNNBatchMultiple = 32

// swDNN's frozen schedule: the expert authors tuned their single blocking
// for a large training layer (a conv4-class VGG layer at batch 128) and
// shipped it. The baseline reproduces that process once per process — an
// exhaustive model-free pick on the reference shape over the restricted
// design space a 2017-era manual implementation explored (no column
// fusion, batch-dimension vectorization only) — then applies the frozen
// schedule rigidly to every layer, with traditional padding for shapes its
// blocking does not divide.
var (
	swdnnOnce sync.Once
	swdnnRef  dsl.Strategy
	swdnnErr  error
)

func swdnnFrozenStrategy() (dsl.Strategy, error) {
	swdnnOnce.Do(func() {
		ref := conv.Shape{B: 128, Ni: 512, No: 512, Ro: 28, Co: 28, Kr: 3, Kc: 3}
		op, err := conv.NewImplicitOp(ref)
		if err != nil {
			swdnnErr = err
			return
		}
		sp := op.Space()
		sp.Vecs = []ir.VecDim{ir.VecN} // swDNN vectorizes the batch strip
		// swDNN's register blocking hardcodes 4 output pixels per weight
		// residency — a fixed fusion width, where swATOP tunes it.
		sp.Factors["co"] = []int{clampFactor(4, ref.Co)}
		res, err := autotune.BlackBox(op) // the experts measured, at length
		if err != nil {
			swdnnErr = err
			return
		}
		swdnnRef = res.Best.Strategy
	})
	return swdnnRef, swdnnErr
}

// SwDNNImplicit compiles the swDNN manual implicit convolution. It fails
// for batch sizes it does not support (notably batch 1 — Fig. 5's missing
// bars).
func SwDNNImplicit(s conv.Shape) (*ir.Program, error) {
	if s.B%SwDNNBatchMultiple != 0 {
		return nil, fmt.Errorf("swDNN: implicit conv requires batch %% %d == 0, got %d",
			SwDNNBatchMultiple, s.B)
	}
	op, err := conv.NewImplicitOp(s)
	if err != nil {
		return nil, fmt.Errorf("swDNN: %w", err)
	}
	frozen, err := swdnnFrozenStrategy()
	if err != nil {
		return nil, fmt.Errorf("swDNN: %w", err)
	}
	st := dsl.Strategy{
		Factors: map[string]int{
			"no": clampFactor(frozen.Factors["no"], s.No),
			"ni": clampFactor(frozen.Factors["ni"], s.Ni),
			"co": clampFactor(frozen.Factors["co"], s.Co),
			"b":  s.B,
		},
		Order:        frozen.Order,
		Layouts:      frozen.Layouts,
		Vec:          ir.VecN,
		DoubleBuffer: true,
		Padding:      dsl.PadTraditional,
	}
	prog, err := op.Compile(st)
	if err != nil {
		return nil, err
	}
	prog.DispatchOverheadSeconds = LibraryDispatchSeconds
	return prog, nil
}

// XMathGemm compiles the xMath manual GEMM routine: fixed large blocking,
// traditional padding, specialized assembly on aligned tiles.
func XMathGemm(p gemm.Params) (*ir.Program, error) {
	op, err := gemm.NewOp(p)
	if err != nil {
		return nil, err
	}
	st := xmathStrategy(p)
	prog, err := op.Compile(st)
	if err != nil {
		return nil, err
	}
	// The hand-tuned assembly pipeline is engineered around square-like
	// problems (§5.1.2: "the xMath optimization is targeted on square-like
	// matrix multiplications"); only those run it.
	if primitives.SpecializedApplies(p.M, p.N, p.K) {
		MarkSpecialized(prog)
	}
	prog.DispatchOverheadSeconds = LibraryDispatchSeconds
	return prog, nil
}

// xmathStrategy is the routine's single blocking, sized for large
// square-ish operands (its design target).
func xmathStrategy(p gemm.Params) dsl.Strategy {
	return dsl.Strategy{
		Factors: map[string]int{
			"m": xmathBlock(p.M),
			"n": xmathBlock(p.N),
			"k": xmathBlock(p.K),
		},
		Order:        []string{"m", "n", "k"},
		Layouts:      map[string][]int{"A": {1, 0}, "B": {0, 1}, "C": {1, 0}},
		Vec:          ir.VecM,
		DoubleBuffer: true,
		Padding:      dsl.PadTraditional,
	}
}

// xmathBlock snaps the block size: 256 for large extents (the tuned
// kernel), otherwise the extent padded up to the 64-multiple the smaller
// kernels handle.
func xmathBlock(extent int) int {
	if extent >= 256 {
		return 256
	}
	b := (extent + 63) / 64 * 64
	if b > extent {
		// traditional padding will grow the problem to the block
		return b
	}
	return b
}

func clampFactor(pref, extent int) int {
	if pref > extent {
		return extent
	}
	return pref
}

// manualBlock is xmathBlock clamped to the extent and vector-aligned — the
// blocking the manual conv codes use (their boundary handling is baked
// into the fixed kernels).
func manualBlock(extent int) int {
	if extent >= 256 {
		return 256
	}
	b := extent - extent%4
	if b < 4 {
		b = extent // tiny extents: vecN schedules take over alignment
	}
	return b
}

// ManualWinograd compiles the pre-swATOP Winograd convolution: unfused
// one-channel-at-a-time transform phases, a repacking pass that copies the
// strided transformed tensors into the contiguous operands the xMath
// routine expects (and the result back), xMath blocking for the 16
// products, and one library dispatch per routine call.
func ManualWinograd(s conv.Shape) (*ir.Program, error) {
	op, err := conv.NewWinogradOp(s)
	if err != nil {
		return nil, err
	}
	op.TransformChunkCap = 1
	p := (s.Ro / 2) * (s.Co / 2) * s.B
	st := dsl.Strategy{
		Factors: map[string]int{
			"no": manualBlock(s.No),
			"ni": clampFactor(256, s.Ni),
			"p":  clampFactor(256, p),
		},
		Order:        []string{"xi", "no", "p", "ni"},
		Layouts:      map[string][]int{"U": {0, 1, 2}, "V": {0, 1, 2}, "M": {0, 1, 2}},
		Vec:          ir.VecM,
		DoubleBuffer: true,
	}
	prog, err := op.CompileRaw(st)
	if err != nil {
		return nil, err
	}
	if err := insertWinogradRepack(prog, s, p); err != nil {
		return nil, err
	}
	prog, err = core.Optimize(prog, st)
	if err != nil {
		return nil, err
	}
	// The 16 products (No × P × Ni with huge P) are far from xMath's
	// square-like specialization target; the generic kernels run.
	if primitives.SpecializedApplies(s.No, p, s.Ni) {
		MarkSpecialized(prog)
	}
	// 16 xMath calls + 3 transform kernel launches.
	prog.DispatchOverheadSeconds = 19 * LibraryDispatchSeconds
	return prog, nil
}

// insertWinogradRepack redirects the GEMM phase to packed copies V2/M2 of
// the transformed tensors, with copy passes before and after — the data
// marshalling a black-box GEMM library forces on the caller.
func insertWinogradRepack(prog *ir.Program, s conv.Shape, p int) error {
	planes := primitives.WinoPlanes
	prog.Tensors = append(prog.Tensors,
		ir.TensorDecl{Name: "V2", Dims: []int{planes, s.Ni, p}, Scratch: true},
		ir.TensorDecl{Name: "M2", Dims: []int{planes, s.No, p}, Scratch: true},
	)
	// Rename V/M inside the GEMM phase (between the phase G and phase O
	// comments).
	phase := ""
	for _, stmt := range prog.Body {
		if c, ok := stmt.(*ir.Comment); ok && strings.HasPrefix(c.Text, "phase") {
			phase = c.Text[:7]
		}
		if phase != "phase G" {
			continue
		}
		ir.Walk([]ir.Stmt{stmt}, func(x ir.Stmt) bool {
			if mv, ok := x.(*ir.RegionMove); ok {
				switch mv.Tensor {
				case "V":
					mv.Tensor = "V2"
				case "M":
					mv.Tensor = "M2"
				}
			}
			return true
		})
	}
	// Copy V→V2 before phase G, M2→M after it.
	vCopy, err := lower.EmitTensorCopy("V", "V2", []int{planes, s.Ni, p})
	if err != nil {
		return err
	}
	mCopy, err := lower.EmitTensorCopy("M2", "M", []int{planes, s.No, p})
	if err != nil {
		return err
	}
	var out []ir.Stmt
	for _, stmt := range prog.Body {
		if c, ok := stmt.(*ir.Comment); ok {
			if strings.HasPrefix(c.Text, "phase G") {
				out = append(out, &ir.Comment{Text: "repack: V -> xMath operand"})
				out = append(out, vCopy...)
			}
			if strings.HasPrefix(c.Text, "phase O") {
				out = append(out, &ir.Comment{Text: "repack: xMath result -> M"})
				out = append(out, mCopy...)
			}
		}
		out = append(out, stmt)
	}
	prog.Body = out
	return nil
}

// ManualExplicit compiles the pre-swATOP explicit convolution: im2col plus
// one xMath GEMM call.
func ManualExplicit(s conv.Shape) (*ir.Program, error) {
	op, err := conv.NewExplicitOp(s)
	if err != nil {
		return nil, err
	}
	nn := s.Ro * s.Co * s.B
	kk := s.Ni * s.Kr * s.Kc
	st := dsl.Strategy{
		Factors: map[string]int{
			"m": manualBlock(s.No),
			"n": clampFactor(256, nn),
			"k": clampFactor(256, kk),
		},
		Order:        []string{"m", "n", "k"},
		Layouts:      map[string][]int{"weight2d": {1, 0}, "col": {0, 1}, "out2d": {1, 0}},
		Vec:          ir.VecM,
		DoubleBuffer: true,
	}
	prog, err := op.Compile(st)
	if err != nil {
		return nil, err
	}
	if primitives.SpecializedApplies(s.No, nn, kk) {
		MarkSpecialized(prog)
	}
	// im2col pass + one xMath call.
	prog.DispatchOverheadSeconds = 2 * LibraryDispatchSeconds
	return prog, nil
}

// FallbackGemm returns the manual-library GEMM — the degraded-mode answer
// a resilient tuner serves when autotuning cannot complete (all candidates
// failing, deadline budget exhausted). It is always compilable: xMath's
// traditional padding accepts any problem size.
func FallbackGemm(p gemm.Params) (*ir.Program, error) {
	return XMathGemm(p)
}

// ManualConv builds the manual-library convolution of a method (swDNN for
// implicit, xMath-based manual code otherwise): the one place the method
// name → baseline table is written. An error for implicit at unsupported
// batch sizes mirrors swDNN's real limitation.
func ManualConv(method string, s conv.Shape) (*ir.Program, error) {
	switch method {
	case conv.Implicit:
		return SwDNNImplicit(s)
	case conv.Explicit:
		return ManualExplicit(s)
	case conv.Winograd:
		return ManualWinograd(s)
	}
	return nil, fmt.Errorf("baseline: unknown conv method %q", method)
}

// FallbackConv returns the manual-library convolution for a method — the
// degraded-mode answer when autotuning cannot complete. Where the
// method-matched manual code has a hard restriction (swDNN's batch
// multiple), it degrades one step further to the manual explicit-GEMM
// path, which accepts any shape, rather than failing.
func FallbackConv(method string, s conv.Shape) (*ir.Program, error) {
	if method == conv.Implicit && s.B%SwDNNBatchMultiple != 0 {
		method = conv.Explicit
	}
	return ManualConv(method, s)
}

// MarkSpecialized flags every GEMM call in a program as eligible for the
// hand-tuned assembly micro-kernel (it only actually applies on exactly
// aligned shapes — see primitives.SpecializedApplies).
func MarkSpecialized(prog *ir.Program) {
	ir.Walk(prog.Body, func(s ir.Stmt) bool {
		if g, ok := s.(*ir.Gemm); ok {
			g.Specialized = true
		}
		return true
	})
}
