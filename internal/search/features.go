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
// running it; Model (model.go) is a dependency-free online ridge regressor
// over those vectors; Evolutionary (evo.go) is the searcher driving the
// loop. Everything is deterministic given a seed:
// the same (seed, budget) always proposes, measures and selects the same
// candidates, independent of the host worker count.
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
// computed purely from the strategy, the seed's axis roles and a static
// walk of the lowered program (plus the analytic cost estimate) — the
// candidate is never executed. Magnitude-spanning features are log
// compressed so the ridge regressor sees comparable scales.
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
//	12 log1p peak SPM footprint bytes
//	13 log2 register/tile blocking rows (GEMM primitive M extent)
//	14 log2 register/tile blocking cols (GEMM primitive N extent)
//	15 log1p static DMA operation count
func Features(seed *dsl.Seed, st dsl.Strategy, prog *ir.Program, est costmodel.Estimate) []float64 {
	f := make([]float64, FeatureLen)
	f[0] = log2RoleFactors(seed, st, dsl.RoleM)
	f[1] = log2RoleFactors(seed, st, dsl.RoleN)
	f[2] = log2RoleFactors(seed, st, dsl.RoleK)
	f[3] = log2RoleFactors(seed, st, dsl.RoleSpatial) + log2RoleFactors(seed, st, dsl.RoleReduce)
	extent := 1.0
	for _, ax := range seed.Axes {
		extent *= float64(ax.Extent)
	}
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
	w := walkProgram(prog)
	f[12] = math.Log1p(float64(w.peakSPMBytes))
	f[13] = math.Log2(float64(max(w.gemmM, 1)))
	f[14] = math.Log2(float64(max(w.gemmN, 1)))
	f[15] = math.Log1p(float64(w.dmaOps))
	for i, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			f[i] = 0
		}
	}
	return f
}

func log2RoleFactors(seed *dsl.Seed, st dsl.Strategy, role dsl.Role) float64 {
	prod := 1.0
	for _, name := range seed.RoleAxes(role) {
		if fct, ok := st.Factors[name]; ok && fct > 0 {
			prod *= float64(fct)
		}
	}
	return math.Log2(prod)
}

// progWalk summarizes one static pass over a lowered program: peak SPM
// footprint, the tile/register blocking shape of the first GEMM primitive
// call, and the static DMA operation count. Loops are entered once at
// iteration 0 — exact for swATOP's nests, whose allocations and GEMM tile
// shapes are loop-invariant (only boundary tiles shrink).
type progWalk struct {
	peakSPMBytes int64
	gemmM, gemmN int64
	dmaOps       int64
}

func walkProgram(p *ir.Program) progWalk {
	w := progWalk{}
	env := ir.Env{}
	var cur int64
	var walk func(body []ir.Stmt)
	walk = func(body []ir.Stmt) {
		for _, s := range body {
			switch x := s.(type) {
			case *ir.AllocSPM:
				cur += x.Elems.Eval(env) * 4
				if cur > w.peakSPMBytes {
					w.peakSPMBytes = cur
				}
			case *ir.FreeSPM:
				// Frees are ignored: cur stays monotone so nested buffer
				// reuse still counts toward the peak, which is the feature.
			case *ir.Assign:
				env[x.Var] = x.Val.Eval(env)
			case *ir.If:
				if x.Cond.Eval(env) {
					walk(x.Then)
				} else {
					walk(x.Else)
				}
			case *ir.For:
				if x.Extent.Eval(env) <= 0 {
					continue
				}
				saved, had := env[x.Iter]
				env[x.Iter] = 0
				walk(x.Body)
				if had {
					env[x.Iter] = saved
				} else {
					delete(env, x.Iter)
				}
			case *ir.Gemm:
				if w.gemmM == 0 {
					w.gemmM = x.M.Eval(env)
					w.gemmN = x.N.Eval(env)
				}
			case *ir.DMAOp, *ir.RegionMove:
				w.dmaOps++
			}
		}
	}
	walk(p.Body)
	return w
}
