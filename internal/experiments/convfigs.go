package experiments

import (
	"context"
	"fmt"

	"swatop/internal/baseline"
	"swatop/internal/conv"
	"swatop/internal/ir"
	"swatop/internal/workloads"
)

// LayerRow is one bar of Figs. 5–7: a network layer at a batch size,
// swATOP's tuned time vs the best manual implementation.
type LayerRow struct {
	Net, Layer string
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

// manualFor builds the best manual implementation for a method, or reports
// that none exists (swDNN's implicit convolution at batch 1, for one).
func manualFor(method string, s conv.Shape) (*ir.Program, bool, error) {
	prog, err := baseline.ManualConv(method, s)
	if err != nil && method == conv.Implicit {
		return nil, true, nil
	}
	return prog, false, err
}

// convFig runs one of Figs. 5–7: tune every applicable layer of the three
// CNNs with the given method and compare with the manual implementation.
// Layers are tuned in parallel across r.Workers goroutines; row order is
// the deterministic network/layer/batch order regardless of worker count.
func (r *Runner) convFig(method string, batches []int) ([]LayerRow, error) {
	type job struct {
		layer workloads.ConvLayer
		batch int
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
				jobs = append(jobs, job{layer: l, batch: b, shape: s})
			}
		}
	}
	return collectRows(r, len(jobs), func(i int) (LayerRow, bool, error) {
		j := jobs[i]
		l, b, s := j.layer, j.batch, j.shape
		tuned, err := r.tuneConv(context.Background(), method, s, 1)
		if err != nil {
			return LayerRow{}, false, fmt.Errorf("%s %s b=%d: %w", method, l, b, err)
		}
		row := LayerRow{
			Net: l.Net, Layer: l.Name, Batch: b, Shape: s,
			SwATOP:    tuned.Best.Measured,
			SpaceSize: tuned.Valid,
		}
		if tuned.Measured > 0 {
			row.Measured, row.SpacePoints = tuned.Measured, tuned.SpaceSize
		}
		row.Eff, row.ChipTFlops = Efficiency(s.FLOPs(), row.SwATOP)
		manual, na, err := manualFor(method, s)
		if err != nil {
			return LayerRow{}, false, fmt.Errorf("%s %s b=%d manual: %w", method, l, b, err)
		}
		if na {
			row.ManualNA = true
		} else {
			t, err := RunProgram(manual)
			if err != nil {
				return LayerRow{}, false, fmt.Errorf("%s %s b=%d manual run: %w", method, l, b, err)
			}
			row.Manual = t
			row.Speedup = t / row.SwATOP
		}
		return row, true, nil
	})
}

// Fig5 reproduces Fig. 5: implicit CONV speedups over swDNN on the three
// CNNs (batch 1 has no manual implementation).
func (r *Runner) Fig5(batches []int) ([]LayerRow, error) { return r.convFig("implicit", batches) }

// Fig6 reproduces Fig. 6: Winograd CONV speedups on applicable layers.
func (r *Runner) Fig6(batches []int) ([]LayerRow, error) { return r.convFig("winograd", batches) }

// Fig7 reproduces Fig. 7: explicit CONV speedups on all layers.
func (r *Runner) Fig7(batches []int) ([]LayerRow, error) { return r.convFig("explicit", batches) }

// AvgSpeedup summarizes the comparable rows (manual exists) of a figure.
func AvgSpeedup(rows []LayerRow, batch int) (avg float64, n int) {
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
