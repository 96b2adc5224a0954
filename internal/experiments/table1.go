package experiments

import (
	"context"
	"fmt"
	"math"

	"swatop/internal/conv"
	"swatop/internal/workloads"
)

// SweepRow is one (configuration, method, batch) cell of the Listing-1
// versatility sweep feeding Table 1 and Fig. 8.
type SweepRow struct {
	Method string
	Batch  int
	Shape  conv.Shape
	SwATOP float64
	Manual float64
	NA     bool // no manual implementation for this case
	Eff    float64
	TFlops float64
}

// Table1Cell aggregates one (method, batch) cell of Table 1.
type Table1Cell struct {
	Method       string
	Batch        int
	Faster       int
	Slower       int
	AvgFasterPct float64 // average speedup of the faster cases, percent
	AvgSlowerPct float64 // average slowdown of the slower cases, percent
	FasterInf    bool    // no manual version at all: the paper's "+∞%"
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
// (shape, method) cells are tuned in parallel across r.Workers goroutines;
// rows keep the deterministic grid order regardless of worker count.
func (r *Runner) sweep() ([]SweepRow, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sweepCache != nil {
		return r.sweepCache, nil
	}
	type job struct {
		batch  int
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
			for _, method := range []string{"implicit", "explicit", "winograd"} {
				if !conv.Applies(method, s) {
					continue
				}
				jobs = append(jobs, job{batch: batch, shape: s, method: method})
			}
		}
	}
	rows, err := collectRows(r, len(jobs), func(i int) (SweepRow, bool, error) {
		j := jobs[i]
		tuned, err := r.tuneConv(context.Background(), j.method, j.shape, 1)
		if err != nil {
			return SweepRow{}, false, fmt.Errorf("sweep %s %v: %w", j.method, j.shape, err)
		}
		row := SweepRow{Method: j.method, Batch: j.batch, Shape: j.shape, SwATOP: tuned.Best.Measured}
		row.Eff, row.TFlops = Efficiency(j.shape.FLOPs(), row.SwATOP)
		manual, na, err := manualFor(j.method, j.shape)
		if err != nil {
			return SweepRow{}, false, err
		}
		if na {
			row.NA = true
		} else {
			t, err := RunProgram(manual)
			if err != nil {
				return SweepRow{}, false, err
			}
			row.Manual = t
		}
		return row, true, nil
	})
	if err != nil {
		return nil, err
	}
	r.sweepCache = rows
	return rows, nil
}

// Table1 reproduces Table 1: faster/slower counts and average speedups of
// swATOP vs the best manual implementation over the Listing-1 sweep.
func (r *Runner) Table1() ([]Table1Cell, error) {
	rows, err := r.sweep()
	if err != nil {
		return nil, err
	}
	cells := map[string]*Table1Cell{}
	key := func(m string, b int) string { return fmt.Sprintf("%s/%d", m, b) }
	for _, row := range rows {
		k := key(row.Method, row.Batch)
		c := cells[k]
		if c == nil {
			c = &Table1Cell{Method: row.Method, Batch: row.Batch}
			cells[k] = c
		}
		if row.NA {
			// swATOP provides the only implementation: counts as faster
			// with unbounded speedup (the paper's "+∞%").
			c.Faster++
			c.FasterInf = true
			continue
		}
		if row.SwATOP <= row.Manual {
			c.Faster++
			c.AvgFasterPct += row.Manual/row.SwATOP - 1
		} else {
			c.Slower++
			c.AvgSlowerPct += 1 - row.Manual/row.SwATOP
		}
	}
	var out []Table1Cell
	for _, batch := range workloads.Batches() {
		for _, m := range []string{"implicit", "explicit", "winograd"} {
			c := cells[key(m, batch)]
			if c == nil {
				continue
			}
			finite := c.Faster
			if c.FasterInf {
				finite = 0 // all faster cases are "+∞"
				c.AvgFasterPct = math.Inf(1)
			} else if c.Faster > 0 {
				c.AvgFasterPct = c.AvgFasterPct / float64(c.Faster) * 100
			}
			_ = finite
			if c.Slower > 0 {
				c.AvgSlowerPct = c.AvgSlowerPct / float64(c.Slower) * 100
			}
			out = append(out, *c)
		}
	}
	return out, nil
}

// Fig8 reproduces Fig. 8: throughput and efficiency of the three methods
// over the sweep.
func (r *Runner) Fig8() ([]Fig8Row, error) {
	rows, err := r.sweep()
	if err != nil {
		return nil, err
	}
	agg := map[string]*Fig8Row{}
	counts := map[string]int{}
	key := func(m string, b int) string { return fmt.Sprintf("%s/%d", m, b) }
	for _, row := range rows {
		k := key(row.Method, row.Batch)
		a := agg[k]
		if a == nil {
			a = &Fig8Row{Method: row.Method, Batch: row.Batch, MinEff: math.Inf(1)}
			agg[k] = a
		}
		a.AvgTFlops += row.TFlops
		a.AvgEff += row.Eff
		if row.Eff < a.MinEff {
			a.MinEff = row.Eff
		}
		if row.Eff > a.MaxEff {
			a.MaxEff = row.Eff
		}
		counts[k]++
	}
	var out []Fig8Row
	for _, batch := range workloads.Batches() {
		for _, m := range []string{"implicit", "explicit", "winograd"} {
			k := key(m, batch)
			if a := agg[k]; a != nil {
				n := float64(counts[k])
				a.AvgTFlops /= n
				a.AvgEff /= n
				out = append(out, *a)
			}
		}
	}
	return out, nil
}
