// Package gemm defines the matrix-multiplication operator for swATOP:
// the DSL schedule seed ("three nested loops", §3) and the schedule space
// the paper's Listing 2 experiments tune over.
package gemm

import (
	"fmt"

	"swatop/internal/dsl"
	"swatop/internal/ir"
)

// Params is a GEMM problem size: C[M×N] = A[M×K] × B[K×N]. ReLU makes the
// operator apply max(0, x) to C as an epilogue, in SPM before each put.
type Params struct {
	M, N, K int
	ReLU    bool
}

func (p Params) String() string {
	if p.ReLU {
		return fmt.Sprintf("gemm(M=%d,N=%d,K=%d,relu)", p.M, p.N, p.K)
	}
	return fmt.Sprintf("gemm(M=%d,N=%d,K=%d)", p.M, p.N, p.K)
}

// FLOPs is the floating-point operation count.
func (p Params) FLOPs() int64 { return 2 * int64(p.M) * int64(p.N) * int64(p.K) }

// Validate rejects degenerate sizes.
func (p Params) Validate() error {
	if p.M <= 0 || p.N <= 0 || p.K <= 0 {
		return fmt.Errorf("gemm: non-positive dims %+v", p)
	}
	return nil
}

// Seed builds the schedule seed: axes (m, n, k) and the three operands.
func Seed(p Params) (*dsl.Seed, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("gemm_%dx%dx%d", p.M, p.N, p.K)
	if p.ReLU {
		name += "_relu"
	}
	s := dsl.NewSeed(name)
	s.ReLU = p.ReLU
	s.AddAxis("m", p.M, dsl.RoleM)
	s.AddAxis("n", p.N, dsl.RoleN)
	s.AddAxis("k", p.K, dsl.RoleK)
	s.AddTensor("A", []int{p.M, p.K}, dsl.OperandA, dsl.Dim("m"), dsl.Dim("k"))
	s.AddTensor("B", []int{p.K, p.N}, dsl.OperandB, dsl.Dim("k"), dsl.Dim("n"))
	s.AddTensor("C", []int{p.M, p.N}, dsl.OperandC, dsl.Dim("m"), dsl.Dim("n"))
	return s, nil
}

// Space builds the schedule space of the GEMM operator.
func Space(p Params) *dsl.Space {
	sp := dsl.NewSpace()
	sp.Factors["m"] = dsl.TileMenu(p.M, []int{64, 128, 256, 512})
	sp.Factors["n"] = dsl.TileMenu(p.N, []int{64, 128, 256, 512})
	sp.Factors["k"] = dsl.TileMenu(p.K, []int{128, 256, 512})
	sp.Reorder("m", "n", "k")
	sp.Reorder("n", "m", "k")
	// Layouts: C must keep M leading (column-major). A and B may be stored
	// either way; the choice trades DMA contiguity against the micro-kernel
	// load instruction set.
	sp.Layout("C", 1, 0)
	sp.Layout("A", 0, 1)
	sp.Layout("A", 1, 0)
	sp.Layout("B", 0, 1)
	sp.Layout("B", 1, 0)
	sp.Vecs = []ir.VecDim{ir.VecM, ir.VecN}
	return sp
}
