package search

import (
	"math"
	"testing"

	"swatop/internal/costmodel"
	"swatop/internal/gemm"
	"swatop/internal/schedule"
)

// FuzzFeatureVector drives Features with arbitrary schedule-space indices
// and adversarial values in place of the estimate's four Eq. (1)/(2) sums
// (its iteration-0 path is the scorer's): the vector must always come back
// with exactly FeatureLen finite entries — NaN or Inf leaking into the
// online model would silently poison every later prediction.
func FuzzFeatureVector(f *testing.F) {
	op, err := gemm.NewOp(gemm.Params{M: 256, N: 256, K: 256})
	if err != nil {
		f.Fatal(err)
	}
	dims, err := schedule.Describe(op.Seed(), op.Space())
	if err != nil {
		f.Fatal(err)
	}
	model, err := costmodel.FitGemmModel()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint32(0), 0.0, 0.0, 0.0, 0.0)
	f.Add(uint32(17), 1e-9, 1e9, math.Inf(1), math.NaN())
	f.Add(uint32(99), math.NaN(), math.Inf(-1), -1.0, 1e308)
	f.Fuzz(func(t *testing.T, rawIdx uint32, dma, compute, bytes, txns float64) {
		idx := int(rawIdx) % dims.Size()
		st := dims.At(idx)
		prog, cerr := op.Compile(st)
		if cerr != nil {
			return // infeasible point: nothing to featurize
		}
		est, err := costmodel.EstimateProgram(model, prog)
		if err != nil {
			return
		}
		est.DMA, est.Compute, est.DMABytes, est.DMATransactions = dma, compute, bytes, txns
		vec := Features(op.Seed(), st, prog, est)
		if len(vec) != FeatureLen {
			t.Fatalf("len = %d, want %d", len(vec), FeatureLen)
		}
		for i, v := range vec {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("feature %d not finite: %v (idx %d, est %+v)", i, v, idx, est)
			}
		}
	})
}
