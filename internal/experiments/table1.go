package experiments

import (
	"fmt"
	"math"

	"swatop/internal/conv"
	"swatop/internal/workloads"
)

// tally counts the cases where swATOP is faster or slower than a reference
// implementation, with the average speedup of the faster and slowdown of
// the slower ones in percent: one cell of Table 1 or one row of Table 2.
type tally struct {
	Faster       int
	AvgFasterPct float64 // average speedup of the faster cases, percent
	Slower       int
	AvgSlowerPct float64 // average slowdown of the slower cases, percent
}

// add counts one case; average turns the sums into the percentages.
func (t *tally) add(swatop, ref float64) {
	if swatop <= ref {
		t.Faster++
		t.AvgFasterPct += ref/swatop - 1
	} else {
		t.Slower++
		t.AvgSlowerPct += 1 - ref/swatop
	}
}

func (t *tally) average() {
	if t.Faster > 0 {
		t.AvgFasterPct = t.AvgFasterPct / float64(t.Faster) * 100
	}
	if t.Slower > 0 {
		t.AvgSlowerPct = t.AvgSlowerPct / float64(t.Slower) * 100
	}
}

// Table1Cell aggregates one (method, batch) cell of Table 1.
type Table1Cell struct {
	Method string
	Batch  int
	tally
	FasterInf bool // no manual version at all: the paper's "+∞%"
}

// Fig8Row aggregates throughput/efficiency per (method, batch) over the
// sweep.
type Fig8Row struct {
	Method                 string
	Batch                  int
	AvgTFlops              float64
	AvgEff, MinEff, MaxEff float64
}

// sweep caches the Listing-1 grid results per (method, batch). The grid's
// (shape, method) cells are tuned in parallel across r.Options.Workers
// goroutines; rows keep the deterministic grid order regardless of worker
// count.
func (r *Runner) sweep() ([]ConvRow, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sweepCache != nil {
		return r.sweepCache, nil
	}
	type job struct {
		shape  conv.Shape
		method string
	}
	var jobs []job
	for _, batch := range workloads.Batches() {
		shapes := workloads.Listing1(batch)
		for i, s := range shapes {
			if r.Quick && i%7 != 0 {
				continue // quick: a stratified 11 of 75 (stride coprime to the grid)
			}
			for _, method := range conv.Methods {
				if !conv.Applies(method, s) {
					continue
				}
				jobs = append(jobs, job{shape: s, method: method})
			}
		}
	}
	rows, err := collectRows(r, len(jobs), func(i int) (ConvRow, bool, error) {
		j := jobs[i]
		row, err := r.convCell(j.method, j.shape)
		if err != nil {
			return ConvRow{}, false, fmt.Errorf("sweep %s %v: %w", j.method, j.shape, err)
		}
		return row, true, nil
	})
	if err != nil {
		return nil, err
	}
	r.sweepCache = rows
	return rows, nil
}

// sweepCells groups the sweep's rows per (method, batch) in table order:
// batches outer, methods inner, rows in grid order within a cell.
func (r *Runner) sweepCells() ([][]ConvRow, error) {
	rows, err := r.sweep()
	if err != nil {
		return nil, err
	}
	var cells [][]ConvRow
	for _, batch := range workloads.Batches() {
		for _, m := range conv.Methods {
			var cell []ConvRow
			for _, row := range rows {
				if row.Method == m && row.Batch == batch {
					cell = append(cell, row)
				}
			}
			if len(cell) > 0 {
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// Table1 reproduces Table 1: faster/slower counts and average speedups of
// swATOP vs the best manual implementation over the Listing-1 sweep.
func (r *Runner) Table1() ([]Table1Cell, error) {
	cells, err := r.sweepCells()
	if err != nil {
		return nil, err
	}
	out := make([]Table1Cell, len(cells))
	for i, cell := range cells {
		c := &out[i]
		c.Method, c.Batch = cell[0].Method, cell[0].Batch
		for _, row := range cell {
			if row.ManualNA {
				// swATOP provides the only implementation: counts as faster
				// with unbounded speedup (the paper's "+∞%").
				c.Faster++
				c.FasterInf = true
				continue
			}
			c.add(row.SwATOP, row.Manual)
		}
		c.average()
		if c.FasterInf {
			c.AvgFasterPct = math.Inf(1)
		}
	}
	return out, nil
}

// Fig8 reproduces Fig. 8: throughput and efficiency of the three methods
// over the sweep.
func (r *Runner) Fig8() ([]Fig8Row, error) {
	cells, err := r.sweepCells()
	if err != nil {
		return nil, err
	}
	out := make([]Fig8Row, len(cells))
	for i, cell := range cells {
		a := &out[i]
		*a = Fig8Row{Method: cell[0].Method, Batch: cell[0].Batch, MinEff: math.Inf(1)}
		for _, row := range cell {
			a.AvgTFlops += row.ChipTFlops
			a.AvgEff += row.Eff
			if row.Eff < a.MinEff {
				a.MinEff = row.Eff
			}
			if row.Eff > a.MaxEff {
				a.MaxEff = row.Eff
			}
		}
		n := float64(len(cell))
		a.AvgTFlops /= n
		a.AvgEff /= n
	}
	return out, nil
}
