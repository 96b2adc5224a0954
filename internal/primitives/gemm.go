// Package primitives implements swATOP's tensorized primitives (§4.1 and
// the appendix): the eight spm_gemm micro-kernel variants and the auxiliary
// transform kernels (Winograd tile transforms, SPM zero-fill/copy). Each
// primitive has a functional implementation operating on SPM-resident data
// and a detailed cycle model derived from the appendix's register
// communication / vectorization / register blocking / dual-pipeline design.
//
// The cycle model is intentionally richer than the linear Eq. (2) the
// autotuner fits: it contains remainder penalties (4×4 register blocking,
// vector lanes), layout-dependent load instruction selection (vlddr/vlddc
// vs vlddec/vldder), per-call ramp-up and strided-store penalties. Those
// second-order terms are what the performance-model autotuner mispredicts —
// reproducing the paper's <8% worst-case model loss (Fig. 9).
package primitives

import (
	"fmt"

	"swatop/internal/ir"
	"swatop/internal/sw26010"
)

// GemmSpec describes one spm_gemm invocation. Matrices are column-major
// float32 in SPM with explicit leading dimensions (CBLAS convention):
// C[M×N] (+)= op(A)[M×K] × op(B)[K×N], op transposing when the flag is set.
// Vec selects the vectorized loop dimension (M or N) — together with the
// two layout flags this spans the eight assembly kernel variants.
type GemmSpec struct {
	M, N, K        int
	LDA, LDB, LDC  int
	ATrans, BTrans bool
	Vec            ir.VecDim
	Accumulate     bool
	// Specialized selects the hand-tuned assembly variant that manual
	// libraries (xMath) ship for exactly-aligned large shapes. swATOP's
	// schedule space never sets it (see DESIGN.md).
	Specialized bool
}

// Validate checks primitive-usage rules: positive dims, leading dimensions
// covering the stored extent, and the vectorization alignment rule (the
// vectorized dimension must be a multiple of the vector width; boundary
// processing pads tiles to guarantee this).
func (s GemmSpec) Validate() error {
	if s.M <= 0 || s.N <= 0 || s.K <= 0 {
		return fmt.Errorf("spm_gemm: non-positive dims M=%d N=%d K=%d", s.M, s.N, s.K)
	}
	arows, acols := s.M, s.K
	if s.ATrans {
		arows, acols = s.K, s.M
	}
	brows, bcols := s.K, s.N
	if s.BTrans {
		brows, bcols = s.N, s.K
	}
	_ = acols
	_ = bcols
	if s.LDA < arows {
		return fmt.Errorf("spm_gemm: LDA=%d < stored rows %d", s.LDA, arows)
	}
	if s.LDB < brows {
		return fmt.Errorf("spm_gemm: LDB=%d < stored rows %d", s.LDB, brows)
	}
	if s.LDC < s.M {
		return fmt.Errorf("spm_gemm: LDC=%d < M=%d", s.LDC, s.M)
	}
	vecExtent := s.M
	if s.Vec == ir.VecN {
		vecExtent = s.N
	}
	if vecExtent%sw26010.VectorWidth != 0 {
		return fmt.Errorf("spm_gemm: vectorized dim extent %d not a multiple of %d (%s)",
			vecExtent, sw26010.VectorWidth, s.Vec)
	}
	return nil
}

// Elems returns the SPM element footprints of A, B and C under the spec.
func (s GemmSpec) Elems() (a, b, c int) {
	acols := s.K
	if s.ATrans {
		acols = s.M
	}
	bcols := s.N
	if s.BTrans {
		bcols = s.K
	}
	return s.LDA * acols, s.LDB * bcols, s.LDC * s.N
}

// FLOPs returns the floating point operations of the call.
func (s GemmSpec) FLOPs() int64 { return 2 * int64(s.M) * int64(s.N) * int64(s.K) }

func (s GemmSpec) at(a []float32, i, k int) float32 {
	if s.ATrans {
		return a[k+i*s.LDA]
	}
	return a[i+k*s.LDA]
}

func (s GemmSpec) bt(b []float32, k, j int) float32 {
	if s.BTrans {
		return b[j+k*s.LDB]
	}
	return b[k+j*s.LDB]
}

// Gemm executes the primitive functionally on SPM-resident slices.
func Gemm(s GemmSpec, a, b, c []float32) error {
	if err := s.Validate(); err != nil {
		return err
	}
	ae, be, ce := s.Elems()
	if len(a) < ae || len(b) < be || len(c) < ce {
		return fmt.Errorf("spm_gemm: operand storage too small: a %d<%d, b %d<%d or c %d<%d",
			len(a), ae, len(b), be, len(c), ce)
	}
	for j := 0; j < s.N; j++ {
		col := c[j*s.LDC : j*s.LDC+s.M]
		if !s.Accumulate {
			for i := range col {
				col[i] = 0
			}
		}
		for k := 0; k < s.K; k++ {
			bv := s.bt(b, k, j)
			if bv == 0 {
				continue
			}
			if !s.ATrans {
				acol := a[k*s.LDA : k*s.LDA+s.M]
				for i := 0; i < s.M; i++ {
					col[i] += acol[i] * bv
				}
			} else {
				for i := 0; i < s.M; i++ {
					col[i] += a[k+i*s.LDA] * bv
				}
			}
		}
	}
	return nil
}

// Cycle-model constants (per CPE unless stated otherwise).
const (
	// gemmCallOverheadCycles covers kernel launch, register-communication
	// pattern setup and pipeline drain (the δ of Eq. 2).
	gemmCallOverheadCycles = 260.0
	// perKOverheadCycles covers the row/column broadcast synchronization
	// per K step (the α term).
	perKOverheadCycles = 5.0
	// vectorLoadCycles is the cost of one vlddr/vlddc vector load+broadcast
	// when the vectorized dimension is the leading (contiguous) one.
	vectorLoadCycles = 1.0
	// extendLoadCycles is the cost of assembling one vector via
	// vlddec/vldder scalar load+extend+broadcast when the layout does not
	// put the vectorized dimension contiguous.
	extendLoadCycles = 2.6
	// storePenaltyPerVec is the extra P1 cost per C vector store when the
	// vectorized dimension is not C's leading dimension (strided stores).
	storePenaltyPerVec = 1.4
	// remainderStallFactor inflates vmad cost in partial 4×4 register
	// blocks (RAW hazards cannot be fully hidden there).
	remainderStallFactor = 1.6
	// rampCycles is the software-pipelining ramp per innermost-loop entry.
	rampCycles = 18.0
	// specializedFactor is the cycle advantage of the hand-tuned assembly
	// variant on its exact alignment sweet spot.
	specializedFactor = 0.93
)

// SpecializedApplies reports whether a shape qualifies for the hand-tuned
// assembly variant: all dimensions multiples of 256 and square-like
// (within 2× of each other) — the workload xMath's kernels are tuned for
// ("the xMath optimization is targeted on square-like matrix
// multiplications", §5.1.2).
func SpecializedApplies(m, n, k int) bool {
	if m%256 != 0 || n%256 != 0 || k%256 != 0 {
		return false
	}
	lo, hi := m, m
	for _, v := range []int{n, k} {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi <= 2*lo
}

// GemmTime returns the simulated execution time (seconds) of one spm_gemm
// call. The model follows the appendix design: matrices distributed over
// the 8×8 mesh, per-CPE tile Mt×Nt with 4×4 register blocking, one 4-wide
// vmad per cycle in the steady state, loads on P1 overlapped except for the
// layout-dependent surcharges.
func GemmTime(s GemmSpec) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	mesh := float64(sw26010.MeshDim)
	mt := ceilDiv(s.M, sw26010.MeshDim)
	nt := ceilDiv(s.N, sw26010.MeshDim)
	k := float64(s.K)

	// Steady-state vmad cycles: each CPE performs Mt*Nt/4 vector MACs per
	// K step; full 4×4 register blocks retire one vmad per cycle.
	fullM := mt / 4 * 4
	fullN := nt / 4 * 4
	vmadFull := float64(fullM*fullN) / 4.0
	vmadRem := (float64(mt*nt) - float64(fullM*fullN)) / 4.0 * remainderStallFactor
	computePerK := vmadFull + vmadRem

	// Load cost per K step: the vectorized operand needs Mt/4 (or Nt/4)
	// vector loads; whether they are single vector loads (vlddr/vlddc, on
	// P1, hideable behind vmads) or scalar load+extend sequences
	// (vlddec/vldder — the extend consumes P0 issue slots and cannot
	// hide) depends on the operand layout. The broadcast operand always
	// uses one extend-load per K step.
	var vecTile int
	var vecLeading bool
	if s.Vec == ir.VecM {
		vecTile = mt
		vecLeading = !s.ATrans // column-major A has M contiguous
	} else {
		vecTile = nt
		vecLeading = s.BTrans // row-major (transposed) B has N contiguous
	}
	p0Loads := extendLoadCycles // broadcast operand extend, on P0
	p1Loads := 0.0
	nvec := float64(ceilDiv(vecTile, sw26010.VectorWidth))
	if vecLeading {
		p1Loads += nvec * vectorLoadCycles
	} else {
		p0Loads += nvec * extendLoadCycles
	}
	// P1 loads overlap with P0 vmads; only the excess over the vmad
	// budget stalls.
	loadStall := p1Loads - computePerK
	if loadStall < 0 {
		loadStall = 0
	}

	perK := computePerK + p0Loads + loadStall + perKOverheadCycles

	// C stores: once per call, Mt*Nt/4 vector stores; strided when the
	// vectorized dim is not C's leading dim (C is column-major: M leading).
	storeVecs := float64(mt*nt) / 4.0
	storeCost := storeVecs * vectorLoadCycles
	if s.Vec == ir.VecN {
		storeCost += storeVecs * storePenaltyPerVec
	}

	cycles := gemmCallOverheadCycles + rampCycles*float64(nt) + k*perK + storeCost

	// Register communication volume: every CPE receives its row strip of A
	// and column strip of B each call; bandwidth-bound lower bound.
	regBytes := (float64(s.M)*k/mesh + k*float64(s.N)/mesh) * 4 * float64(sw26010.NumCPE)
	regCycles := sw26010.Cycles(regBytes / sw26010.RegCommBandwidth)
	if regCycles > cycles {
		cycles = regCycles
	}

	if s.Specialized && SpecializedApplies(s.M, s.N, s.K) {
		cycles *= specializedFactor
	}
	return sw26010.Seconds(cycles), nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
