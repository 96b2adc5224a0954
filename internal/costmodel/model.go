// Package costmodel implements swATOP's static performance model (§4.6):
// the DMA transaction model of Eq. (1), the per-variant linear GEMM model
// of Eq. (2) fitted by least squares against measured primitive times, and
// a whole-IR estimator that combines them under the paper's overlap
// assumption T_overall = max(T_DMA, T_compute).
//
// The model is deliberately simpler than the simulator it predicts: it uses
// theoretical peak bandwidth, ignores per-block engine overhead,
// read-modify-write surcharges, DMA serialization, loop/branch issue cost
// and micro-kernel remainder penalties. That gap is what Fig. 9 measures.
package costmodel

import (
	"fmt"
	"math"

	"swatop/internal/ir"
	"swatop/internal/primitives"
	"swatop/internal/sw26010"
	"swatop/internal/tensor"
)

// dmaTally is Eq. (1) in integers: the memory transactions and payload
// bytes of the core-group-level strided descriptors added to it. Nothing is
// converted to seconds until every descriptor of a transfer is in, so an
// estimate does not depend on how the descriptors were produced or grouped.
type dmaTally struct {
	transactions int64 // including misalignment and rounding waste per block
	payload      int64 // bytes, untouched by transaction rounding
}

func (a *dmaTally) add(b tensor.Blocks) {
	misalign := (b.Offset * 4) % sw26010.TransactionBytes
	bytes := b.Block * 4
	per := int64((misalign + bytes + sw26010.TransactionBytes - 1) / sw26010.TransactionBytes)
	a.transactions += per * int64(b.Count)
	a.payload += int64(bytes) * int64(b.Count)
}

// seconds is the time of one DMA operation over the tallied descriptors:
// start-up latency plus touched bytes over the peak DMA bandwidth. PEAK_BW
// is calibrated to the measured stream bandwidth of [24] (22.6 GB/s), the
// same source the paper cites for its machine characterization.
func (a dmaTally) seconds() float64 {
	touched := a.transactions * sw26010.TransactionBytes
	return sw26010.DMAStartupSeconds + float64(touched)/sw26010.DMAEffBandwidth
}

// variantIndex maps a GEMM variant to its coefficient row.
func variantIndex(aTrans, bTrans bool, vec ir.VecDim) int {
	i := 0
	if aTrans {
		i |= 1
	}
	if bTrans {
		i |= 2
	}
	if vec == ir.VecN {
		i |= 4
	}
	return i
}

// GemmModel holds the fitted Eq. (2) coefficients for the eight variants:
// T = α·K + β·K·Mv/4 + γ·K·M·N/4 + δ, with Mv the vectorized-dimension
// extent.
type GemmModel struct {
	Coef [8][4]float64 // α, β, γ, δ per variant
}

// Predict estimates one spm_gemm call.
func (g *GemmModel) Predict(m, n, k int, aTrans, bTrans bool, vec ir.VecDim) float64 {
	mv := m
	if vec == ir.VecN {
		mv = n
	}
	c := g.Coef[variantIndex(aTrans, bTrans, vec)]
	kf, mf, nf, mvf := float64(k), float64(m), float64(n), float64(mv)
	t := c[0]*kf + c[1]*kf*mvf/4 + c[2]*kf*mf*nf/4 + c[3]
	if t < 0 {
		t = 0
	}
	return t
}

// FitGemmModel fits the eight variants by ordinary least squares over a
// grid of measured primitive executions — the offline calibration step the
// paper performs once per machine ("we fit a linear function ... by
// collecting the execution time of GEMM operations using different
// dimension parameters").
func FitGemmModel() (*GemmModel, error) {
	sizes := []int{8, 16, 32, 64, 96, 128, 192, 256}
	ks := []int{16, 32, 64, 128, 256}
	model := &GemmModel{}
	for _, aT := range []bool{false, true} {
		for _, bT := range []bool{false, true} {
			for _, vec := range []ir.VecDim{ir.VecM, ir.VecN} {
				var rows [][4]float64
				var ys []float64
				for _, m := range sizes {
					for _, n := range sizes {
						for _, k := range ks {
							spec := primitives.GemmSpec{
								M: m, N: n, K: k,
								LDA: ldaFor(m, k, aT), LDB: ldaFor(k, n, bT), LDC: m,
								ATrans: aT, BTrans: bT, Vec: vec,
							}
							y, err := primitives.GemmTime(spec)
							if err != nil {
								continue
							}
							mv := m
							if vec == ir.VecN {
								mv = n
							}
							rows = append(rows, [4]float64{
								float64(k),
								float64(k) * float64(mv) / 4,
								float64(k) * float64(m) * float64(n) / 4,
								1,
							})
							ys = append(ys, y)
						}
					}
				}
				coef, err := leastSquares4(rows, ys)
				if err != nil {
					return nil, fmt.Errorf("fit variant aT=%v bT=%v %v: %w", aT, bT, vec, err)
				}
				model.Coef[variantIndex(aT, bT, vec)] = coef
			}
		}
	}
	return model, nil
}

func ldaFor(rows, cols int, trans bool) int {
	if trans {
		return cols
	}
	return rows
}

// leastSquares4 solves min ‖X·b − y‖² for 4 coefficients via the normal
// equations and Gaussian elimination with partial pivoting.
func leastSquares4(x [][4]float64, y []float64) ([4]float64, error) {
	if len(x) < 4 {
		return [4]float64{}, fmt.Errorf("need ≥4 samples, have %d", len(x))
	}
	var a [4][5]float64 // augmented [XᵀX | Xᵀy]
	for i := range x {
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				a[r][c] += x[i][r] * x[i][c]
			}
			a[r][4] += x[i][r] * y[i]
		}
	}
	for col := 0; col < 4; col++ {
		pivot := col
		for r := col + 1; r < 4; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-30 {
			return [4]float64{}, fmt.Errorf("singular normal matrix at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		for r := 0; r < 4; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c < 5; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	var out [4]float64
	for i := 0; i < 4; i++ {
		out[i] = a[i][4] / a[i][i]
	}
	return out, nil
}
