package experiments

import (
	"context"
	"fmt"

	"swatop/internal/autotune"
	"swatop/internal/conv"
	"swatop/internal/workloads"
)

// Table3Row is one network of Table 3: tuning the implicit CONV of every
// layer with the black-box tuner vs swATOP's model-based tuner. Times are
// consumed machine seconds (per-candidate compile+launch+run for the
// black-box tuner; the paper's hours-vs-minutes axis); host wall seconds
// are reported alongside.
type Table3Row struct {
	Net         string
	Layers      int
	SpaceTotal  int
	SpaceAvg    float64
	BlackBoxSec float64 // machine seconds, total
	BlackBoxAvg float64
	SwATOPSec   float64
	SwATOPAvg   float64
	SpeedupX    float64
	WallBlack   float64 // host wall seconds
	WallSwATOP  float64
}

// Table3 reproduces Table 3 at batch 32 (the training configuration).
// Layers are tuned in parallel across r.Options.Workers goroutines, with the
// exhaustive walk whatever the searcher; the per-network
// machine-time aggregation keeps the deterministic layer order, so every
// reported number is identical for any worker count (host wall sums are the
// total of per-layer wall times, not elapsed time).
func (r *Runner) Table3() ([]Table3Row, error) {
	type job struct {
		net   string
		layer workloads.ConvLayer
	}
	var jobs []job
	for _, net := range []string{"vgg16", "resnet", "yolo"} {
		layers := workloads.Networks()[net]
		for li, l := range layers {
			if r.Quick && li >= 5 {
				break
			}
			if !conv.Applies("implicit", l.Shape(32)) {
				continue
			}
			jobs = append(jobs, job{net: net, layer: l})
		}
	}
	type tuned struct {
		net    string
		bb, mb autotune.Result
	}
	x := r.exhaustive()
	results, err := collectRows(r, len(jobs), func(i int) (tuned, bool, error) {
		j := jobs[i]
		op, err := conv.NewImplicitOp(j.layer.Shape(32))
		if err != nil {
			return tuned{}, false, err
		}
		bb, err := x.Tune(context.Background(), op, true)
		if err != nil {
			return tuned{}, false, fmt.Errorf("table3 %s blackbox: %w", j.layer, err)
		}
		mb, err := x.Tune(context.Background(), op, false)
		if err != nil {
			return tuned{}, false, fmt.Errorf("table3 %s swATOP: %w", j.layer, err)
		}
		return tuned{net: j.net, bb: bb, mb: mb}, true, nil
	})
	if err != nil {
		return nil, err
	}
	var out []Table3Row
	for _, net := range []string{"vgg16", "resnet", "yolo"} {
		row := Table3Row{Net: net}
		for _, t := range results {
			if t.net != net {
				continue
			}
			row.Layers++
			row.SpaceTotal += t.bb.Valid
			row.BlackBoxSec += t.bb.MachineSeconds
			row.SwATOPSec += t.mb.MachineSeconds
			row.WallBlack += t.bb.WallSeconds
			row.WallSwATOP += t.mb.WallSeconds
		}
		if row.Layers == 0 {
			continue
		}
		row.SpaceAvg = float64(row.SpaceTotal) / float64(row.Layers)
		row.BlackBoxAvg = row.BlackBoxSec / float64(row.Layers)
		row.SwATOPAvg = row.SwATOPSec / float64(row.Layers)
		row.SpeedupX = row.BlackBoxSec / row.SwATOPSec
		out = append(out, row)
	}
	return out, nil
}

// Fig9Row is one Listing-1 configuration of Fig. 9: the ratio of the
// model-picked schedule's performance to the true (brute-force) best.
type Fig9Row struct {
	Shape conv.Shape
	Batch int
	Ratio float64 // bestTime / modelPickTime, ≤ 1
}

// Fig9 reproduces Fig. 9 on the Listing-1 grid (batch 32; the paper pools
// all 225 points — full mode covers one batch's 75, quick a stratified 15).
// Configurations run in parallel across r.Options.Workers goroutines.
func (r *Runner) Fig9() ([]Fig9Row, error) {
	var shapes []conv.Shape
	for i, s := range workloads.Listing1(32) {
		if r.Quick && i%7 != 0 {
			continue
		}
		shapes = append(shapes, s)
	}
	x := r.exhaustive()
	return collectRows(r, len(shapes), func(i int) (Fig9Row, bool, error) {
		s := shapes[i]
		op, err := conv.NewImplicitOp(s)
		if err != nil {
			return Fig9Row{}, false, err
		}
		bb, err := x.Tune(context.Background(), op, true)
		if err != nil {
			return Fig9Row{}, false, fmt.Errorf("fig9 %v blackbox: %w", s, err)
		}
		mb, err := x.Tune(context.Background(), op, false)
		if err != nil {
			return Fig9Row{}, false, fmt.Errorf("fig9 %v model: %w", s, err)
		}
		return Fig9Row{Shape: s, Batch: 32, Ratio: bb.Best.Measured / mb.Best.Measured}, true, nil
	})
}

// Fig9Summary reports the average and worst ratio.
func Fig9Summary(rows []Fig9Row) (avg, worst float64) {
	if len(rows) == 0 {
		return 0, 0
	}
	worst = 1
	for _, r := range rows {
		avg += r.Ratio
		if r.Ratio < worst {
			worst = r.Ratio
		}
	}
	return avg / float64(len(rows)), worst
}
