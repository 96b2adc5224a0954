// Package conv defines swATOP's three tensorized convolution operators
// (§3, Fig. 2): implicit-GEMM (direct convolution with the innermost loops
// replaced by GEMM primitives, Alg. 2), explicit-GEMM (im2col
// materialization + one large GEMM), and Winograd F(2×2,3×3) (tile
// transforms + 16 batched GEMMs). All three are tunable operators; all
// three are verified against the direct-convolution oracle.
//
// Convolutions are stride-1, the configuration the paper's evaluation
// uses. A shape with Pad > 0 reads its unpadded input through a halo
// (§4.5's boundary processing, lower.Span): each method's input moves clip
// their regions to the input, zero-fill what the pad covers in SPM, and
// skip the GEMM of a region wholly in the pad, so no padded copy of a
// feature map exists. A shape with Pad 0 reads a pre-padded input
// (Ri = Ro+Kr−1), as the single-operator experiments do.
package conv

import (
	"fmt"

	"swatop/internal/core"
	"swatop/internal/dsl"
	"swatop/internal/ir"
	"swatop/internal/tensor"
)

// Shape re-exports the convolution geometry.
type Shape = tensor.ConvShape

// ImplicitOp is the implicit-GEMM convolution operator (Alg. 2). The batch
// dimension and a fusable run of output columns form the GEMM N dimension:
// choosing a co tile factor > 1 is exactly the paper's loop fusion
// ("merging loops into GEMM primitives" — n independent matrix products
// sharing the same filter become one wider product).
type ImplicitOp struct {
	S     Shape
	seed  *dsl.Seed
	space *dsl.Space
}

// MinNiImplicit is the smallest input-channel count the implicit method
// accepts (the paper excludes first layers whose Ni "is too small to be
// handled by implicit CONV").
const MinNiImplicit = 16

// NewImplicitOp builds the operator and its schedule space.
func NewImplicitOp(s Shape) (*ImplicitOp, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Ni < MinNiImplicit {
		return nil, fmt.Errorf("implicit conv: Ni=%d below the method's minimum %d", s.Ni, MinNiImplicit)
	}
	seed := dsl.NewSeed(OpName(Implicit, s))
	seed.ReLU = s.ReLU
	seed.AddAxis("no", s.No, dsl.RoleM)
	seed.AddAxis("co", s.Co, dsl.RoleN)
	seed.AddAxis("b", s.B, dsl.RoleN)
	seed.AddAxis("ni", s.Ni, dsl.RoleK)
	seed.AddAxis("ro", s.Ro, dsl.RoleSpatial)
	seed.AddAxis("kr", s.Kr, dsl.RoleReduce)
	seed.AddAxis("kc", s.Kc, dsl.RoleReduce)
	seed.AddTensor("weight", []int{s.No, s.Ni, s.Kr, s.Kc}, dsl.OperandA,
		dsl.Dim("no"), dsl.Dim("ni"), dsl.Dim("kr"), dsl.Dim("kc"))
	in := seed.AddTensor("in", []int{s.Ni, s.Ri(), s.Ci(), s.B}, dsl.OperandB,
		dsl.Dim("ni"), dsl.Dims(dsl.T("ro", 1), dsl.T("kr", 1)),
		dsl.Dims(dsl.T("co", 1), dsl.T("kc", 1)), dsl.Dim("b"))
	if s.Pad > 0 {
		in.Halo = []int{0, s.Pad, s.Pad, 0}
	}
	seed.AddTensor("out", []int{s.No, s.Ro, s.Co, s.B}, dsl.OperandC,
		dsl.Dim("no"), dsl.Dim("ro"), dsl.Dim("co"), dsl.Dim("b"))

	sp := dsl.NewSpace()
	sp.Factors["no"] = dsl.TileMenu(s.No, []int{32, 64, 128})
	sp.Factors["ni"] = dsl.TileMenu(s.Ni, []int{32, 64, 128})
	sp.Factors["co"] = fusionMenu(s.Co, s.B)
	sp.Factors["b"] = []int{s.B} // batch always fully fused into N
	// Loop-order candidates: Alg. 2's spatial-outer order and an
	// output-channel-outer order.
	sp.Reorder("ro", "co", "no", "kr", "kc", "ni")
	sp.Reorder("no", "ro", "co", "kr", "kc", "ni")
	// Weight layouts (filters are pre-packed offline, so this is a free
	// choice): kernel-offset-major with Ni fastest (transposed A) or with
	// No fastest (plain A).
	sp.Layout("weight", 2, 3, 0, 1)
	sp.Layout("weight", 2, 3, 1, 0)
	// Input and output keep the framework's batch-fastest layout: feature
	// maps must interoperate with neighbouring layers, so their layout is
	// not a per-operator tuning knob.
	sp.Layout("in", 0, 1, 2, 3)
	sp.Layout("out", 0, 1, 2, 3)
	return &ImplicitOp{S: s, seed: seed, space: sp}, nil
}

// fusionMenu lists co-fusion factors: enough columns to give the GEMM a
// healthy N even at batch 1 (where fusion is the only source of width),
// never more than the row.
func fusionMenu(co, b int) []int {
	var out []int
	for _, f := range []int{1, 2, 4, 8, 16, 32, 64} {
		if f <= co && f*b <= 2048 {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}

// Name identifies the operator instance.
func (o *ImplicitOp) Name() string { return o.seed.Name }

// Seed returns the schedule seed.
func (o *ImplicitOp) Seed() *dsl.Seed { return o.seed }

// Space returns the schedule space.
func (o *ImplicitOp) Space() *dsl.Space { return o.space }

// Compile lowers one strategy.
func (o *ImplicitOp) Compile(st dsl.Strategy) (*ir.Program, error) {
	return core.Compile(o.seed, st)
}

// Bind allocates the operand tensors a compiled program declares (any
// operator's, GEMM included) with the layouts it chose, inputs filled with
// a deterministic pattern — a packed Winograd program's U with the
// transformed filters of its weight; the returned map is ready for
// exec.Run.
func Bind(prog *ir.Program) (map[string]*tensor.Tensor, error) {
	binds := map[string]*tensor.Tensor{}
	for _, decl := range prog.Tensors {
		if decl.Scratch {
			continue
		}
		t, err := tensor.NewWithLayout(decl.Name, decl.Dims, decl.Layout)
		if err != nil {
			return nil, err
		}
		if !decl.Output {
			t.FillPattern()
		}
		binds[decl.Name] = t
	}
	if u, ok := binds["U"]; ok {
		if err := WinogradFilters(binds["weight"], u); err != nil {
			return nil, err
		}
	}
	return binds, nil
}
