package experiments

import (
	"context"
	"fmt"
	"sort"

	"swatop/internal/conv"
	"swatop/internal/dsl"
	"swatop/internal/gemm"
	"swatop/internal/workloads"
)

// Fig10Row is one configuration of Fig. 10: auto-prefetching vs the same
// schedule without software prefetching.
type Fig10Row struct {
	Shape          conv.Shape
	NoPrefetch     float64
	Prefetch       float64
	ImprovementPct float64
}

// Fig10 reproduces Fig. 10: select the 8 configurations where the
// no-prefetch baseline performs best (as the paper does), then measure the
// improvement auto-prefetching brings on each.
func (r *Runner) Fig10() ([]Fig10Row, error) {
	type cand struct {
		s    conv.Shape
		st   dsl.Strategy
		base float64
	}
	var shapes []conv.Shape
	for i, s := range workloads.Listing1(32) {
		if i%7 != 0 {
			continue // 11 candidates is enough to pick the best 8 from
		}
		shapes = append(shapes, s)
	}
	x := r.exhaustive()
	cands, err := collectRows(r, len(shapes), func(i int) (cand, bool, error) {
		s := shapes[i]
		op, err := conv.NewImplicitOp(s)
		if err != nil {
			return cand{}, false, err
		}
		op.Space().DoubleBuffer = []bool{false}
		res, err := x.Tune(context.Background(), op, false)
		if err != nil {
			return cand{}, false, fmt.Errorf("fig10 %v: %w", s, err)
		}
		// Rank baselines by efficiency (time per flop) so "performs best"
		// is shape-size independent.
		return cand{s: s, st: res.Best.Strategy, base: res.Best.Measured}, true, nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(cands, func(i, j int) bool {
		ei := cands[i].base / float64(cands[i].s.FLOPs())
		ej := cands[j].base / float64(cands[j].s.FLOPs())
		return ei < ej
	})
	if len(cands) > 8 {
		cands = cands[:min(12, len(cands))]
	}
	var out []Fig10Row
	for _, c := range cands {
		if len(out) >= 8 {
			break
		}
		op, err := conv.NewImplicitOp(c.s)
		if err != nil {
			return nil, err
		}
		st := c.st
		st.DoubleBuffer = true
		prog, err := op.Compile(st)
		if err != nil {
			// The doubled frames of this schedule do not fit the SPM:
			// prefetching is not applicable to it, as on real hardware.
			continue
		}
		pf, err := RunProgram(prog)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig10Row{
			Shape:          c.s,
			NoPrefetch:     c.base,
			Prefetch:       pf,
			ImprovementPct: (c.base/pf - 1) * 100,
		})
	}
	return out, nil
}

// Fig11Row is one unaligned GEMM of Fig. 11: boundary-processing overhead
// of lightweight vs traditional zero padding, relative to the boundary-free
// ideal (the same schedule on extents rounded up to tile multiples).
type Fig11Row struct {
	Params       gemm.Params
	IdealSec     float64
	LightPct     float64 // lightweight overhead, percent of ideal
	TraditionPct float64
}

// Fig11 reproduces Fig. 11 over the Listing-2 unaligned shapes, keeping
// (as the paper does) the cases whose traditional overhead exceeds 10%.
func (r *Runner) Fig11() ([]Fig11Row, error) {
	var shapes []gemm.Params
	for i, p := range workloads.Listing2Unaligned() {
		if r.Quick && i%9 != 0 {
			continue
		}
		shapes = append(shapes, p)
	}
	x := r.exhaustive()
	return collectRows(r, len(shapes), func(i int) (Fig11Row, bool, error) {
		p := shapes[i]
		op, err := gemm.NewOp(p)
		if err != nil {
			return Fig11Row{}, false, err
		}
		res, err := x.Tune(context.Background(), op, false)
		if err != nil {
			return Fig11Row{}, false, fmt.Errorf("fig11 %v: %w", p, err)
		}
		st := res.Best.Strategy

		light := res.Best.Measured

		tst := st
		tst.Padding = dsl.PadTraditional
		tprog, err := op.Compile(tst)
		if err != nil {
			return Fig11Row{}, false, err
		}
		trad, err := RunProgram(tprog)
		if err != nil {
			return Fig11Row{}, false, err
		}

		// Boundary-free ideal: the same schedule on the rounded-up
		// problem (all extents multiples of their factors).
		ip := gemm.Params{
			M: roundUp(p.M, st.Factors["m"]),
			N: roundUp(p.N, st.Factors["n"]),
			K: roundUp(p.K, st.Factors["k"]),
		}
		iop, err := gemm.NewOp(ip)
		if err != nil {
			return Fig11Row{}, false, err
		}
		iprog, err := iop.Compile(st)
		if err != nil {
			return Fig11Row{}, false, err
		}
		ideal, err := RunProgram(iprog)
		if err != nil {
			return Fig11Row{}, false, err
		}

		row := Fig11Row{
			Params:       p,
			IdealSec:     ideal,
			LightPct:     (light/ideal - 1) * 100,
			TraditionPct: (trad/ideal - 1) * 100,
		}
		return row, row.TraditionPct > 10, nil
	})
}

func roundUp(v, f int) int {
	if f <= 0 {
		return v
	}
	return (v + f - 1) / f * f
}
