// Package search is swATOP's sample-efficient schedule search: instead of
// enumerating and estimating every point of a schedule space (the walk the
// exhaustive tuner performs), a searcher proposes candidates, predicts them
// with an online-learned cost model, measures only the most promising, and
// feeds the measurements back into the model — the propose→predict→measure→
// learn loop of "Learning to Optimize Tensor Programs" adapted to the
// mixed-radix streaming index space of internal/schedule.
//
// The package has three parts: feature extraction (this file) turns a
// compiled schedule candidate into a fixed-length numeric vector without
// running it; Model (model.go) is the one predictor, the analytic estimate
// corrected by a dependency-free online ridge regressor over those vectors;
// Evolutionary (evo.go) is the searcher driving the loop. Everything is
// deterministic given a seed: the same (seed, budget) always proposes,
// measures and selects the same candidates, independent of the host worker
// count.
package search

import (
	"math"

	"swatop/internal/costmodel"
	"swatop/internal/dsl"
	"swatop/internal/ir"
)

// FeatureLen is the fixed length of every feature vector. Changing it
// invalidates fitted models, so it is asserted by tests and the fuzzer.
const FeatureLen = 16

// Features featurizes one compiled schedule candidate. The vector is
// computed purely from the strategy, the seed's axis roles and the analytic
// cost estimate, including the iteration-0 path the scorer tallied on its
// walk of the lowered program (prog is not walked again) — the candidate is
// never executed. Magnitude-spanning features are log compressed so the
// ridge regressor sees comparable scales. The vector is its one allocation.
//
// Layout (indices are stable; append-only by convention):
//
//	0  log2 tile-factor product of RoleM axes
//	1  log2 tile-factor product of RoleN axes
//	2  log2 tile-factor product of RoleK axes
//	3  log2 tile-factor product of spatial/reduce axes
//	4  log2 iteration-space extent product
//	5  vectorized dimension (0 = VecM, 1 = VecN)
//	6  double buffering (0/1)
//	7  traditional padding (0/1)
//	8  analytic DMA seconds (milliseconds)
//	9  analytic compute seconds (milliseconds)
//	10 log1p predicted DMA payload bytes
//	11 log1p predicted DMA transactions
//	12 log1p cumulative SPM bytes allocated along the iteration-0 path
//	13 log2 register/tile blocking rows (GEMM primitive M extent)
//	14 log2 register/tile blocking cols (GEMM primitive N extent)
//	15 log1p static DMA operation count
func Features(seed *dsl.Seed, st dsl.Strategy, prog *ir.Program, est costmodel.Estimate) []float64 {
	f := make([]float64, FeatureLen)
	// Tile-factor products per role, each in axis order, and the extent
	// product, in one pass over the axes.
	prod := [dsl.RoleReduce + 1]float64{1, 1, 1, 1, 1}
	extent := 1.0
	for _, ax := range seed.Axes {
		if fct, ok := st.Factors[ax.Name]; ok && fct > 0 {
			prod[ax.Role] *= float64(fct)
		}
		extent *= float64(ax.Extent)
	}
	f[0] = math.Log2(prod[dsl.RoleM])
	f[1] = math.Log2(prod[dsl.RoleN])
	f[2] = math.Log2(prod[dsl.RoleK])
	f[3] = math.Log2(prod[dsl.RoleSpatial]) + math.Log2(prod[dsl.RoleReduce])
	f[4] = math.Log2(extent)
	if st.Vec == ir.VecN {
		f[5] = 1
	}
	if st.DoubleBuffer {
		f[6] = 1
	}
	if st.Padding == dsl.PadTraditional {
		f[7] = 1
	}
	f[8] = est.DMA * 1e3
	f[9] = est.Compute * 1e3
	f[10] = math.Log1p(est.DMABytes)
	f[11] = math.Log1p(est.DMATransactions)
	f[12] = math.Log1p(float64(est.SPMBytes))
	f[13] = math.Log2(float64(max(est.GemmM, 1)))
	f[14] = math.Log2(float64(max(est.GemmN, 1)))
	f[15] = math.Log1p(float64(est.DMAOps))
	for i, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			f[i] = 0
		}
	}
	return f
}
