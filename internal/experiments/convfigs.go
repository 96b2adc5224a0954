package experiments

import (
	"context"
	"fmt"

	"swatop/internal/baseline"
	"swatop/internal/conv"
	"swatop/internal/workloads"
)

// ConvRow is one tuned-vs-manual cell: a convolution method on one shape,
// swATOP's tuned time against the best manual implementation. Figs. 5–7
// have one per network layer and batch, the Listing-1 sweep behind Table 1
// and Fig. 8 one per configuration, batch and method.
type ConvRow struct {
	Net, Layer string // Figs. 5–7 only
	Method     string
	Batch      int
	Shape      conv.Shape
	SwATOP     float64 // seconds, simulated
	Manual     float64 // 0 when no manual implementation exists
	ManualNA   bool
	Speedup    float64 // Manual/SwATOP; 0 when ManualNA
	Eff        float64 // direct-conv efficiency of the swATOP version
	ChipTFlops float64
	SpaceSize  int
	// Measured and SpacePoints describe budgeted (Searcher) runs: how many
	// candidates were actually measured out of how many raw schedule-space
	// points. Both zero on exhaustive runs, where SpaceSize (the valid
	// candidate count) tells the whole story.
	Measured    int
	SpacePoints int
}

// convCell is the job both kinds of cell run: tune method on s (one worker;
// the sweep is the parallel part) and time the best manual implementation,
// if there is one (swDNN has no implicit convolution at batch 1).
func (r *Runner) convCell(method string, s conv.Shape) (ConvRow, error) {
	op, err := conv.NewPerCallOp(method, s)
	if err != nil {
		return ConvRow{}, err
	}
	tuned, err := r.sequential().Tune(context.Background(), op, false)
	if err != nil {
		return ConvRow{}, err
	}
	row := ConvRow{Method: method, Batch: s.B, Shape: s, SwATOP: tuned.Best.Measured, SpaceSize: tuned.Valid}
	if tuned.Measured > 0 {
		row.Measured, row.SpacePoints = tuned.Measured, tuned.SpaceSize
	}
	row.Eff, row.ChipTFlops = Efficiency(s.FLOPs(), row.SwATOP)
	manual, err := baseline.ManualConv(method, s)
	switch {
	case err != nil && method == conv.Implicit:
		row.ManualNA = true
	case err != nil:
		return ConvRow{}, fmt.Errorf("manual: %w", err)
	default:
		if row.Manual, err = RunProgram(manual); err != nil {
			return ConvRow{}, fmt.Errorf("manual run: %w", err)
		}
		row.Speedup = row.Manual / row.SwATOP
	}
	return row, nil
}

// convFig runs one of Figs. 5–7: tune every applicable layer of the three
// CNNs with the given method and compare with the manual implementation.
// Layers are tuned in parallel across r.Options.Workers goroutines; row
// order is the deterministic network/layer/batch order regardless of worker
// count.
func (r *Runner) convFig(method string, batches []int) ([]ConvRow, error) {
	type job struct {
		layer workloads.ConvLayer
		shape conv.Shape
	}
	var jobs []job
	for _, net := range []string{"vgg16", "resnet", "yolo"} {
		layers := workloads.Networks()[net]
		for li, l := range layers {
			if r.Quick && li%2 == 1 {
				continue // quick mode: every other layer
			}
			for _, b := range batches {
				s := l.Shape(b)
				if !conv.Applies(method, s) {
					continue
				}
				jobs = append(jobs, job{layer: l, shape: s})
			}
		}
	}
	return collectRows(r, len(jobs), func(i int) (ConvRow, bool, error) {
		j := jobs[i]
		row, err := r.convCell(method, j.shape)
		if err != nil {
			return ConvRow{}, false, fmt.Errorf("%s %s b=%d: %w", method, j.layer, j.shape.B, err)
		}
		row.Net, row.Layer = j.layer.Net, j.layer.Name
		return row, true, nil
	})
}

// Fig5 reproduces Fig. 5: implicit CONV speedups over swDNN on the three
// CNNs (batch 1 has no manual implementation).
func (r *Runner) Fig5(batches []int) ([]ConvRow, error) { return r.convFig("implicit", batches) }

// Fig6 reproduces Fig. 6: Winograd CONV speedups on applicable layers.
func (r *Runner) Fig6(batches []int) ([]ConvRow, error) { return r.convFig("winograd", batches) }

// Fig7 reproduces Fig. 7: explicit CONV speedups on all layers.
func (r *Runner) Fig7(batches []int) ([]ConvRow, error) { return r.convFig("explicit", batches) }

// AvgSpeedup summarizes the comparable rows (manual exists) of a figure.
func AvgSpeedup(rows []ConvRow, batch int) (avg float64, n int) {
	sum := 0.0
	for _, row := range rows {
		if row.Batch == batch && !row.ManualNA {
			sum += row.Speedup
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}
