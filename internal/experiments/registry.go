package experiments

import (
	"fmt"
	"sort"

	"swatop/internal/conv"
	"swatop/internal/report"
	"swatop/internal/sw26010"
	"swatop/internal/workloads"
)

// Experiment is a runnable, named reproduction of one table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(r *Runner) (*report.Table, error)
}

// All returns the experiment registry in paper order.
func All() []Experiment {
	return []Experiment{
		{"substrate", "Substrate validation vs Xu et al. [24]", runSubstrate},
		{"fig5", "Fig. 5: Implicit CONV vs swDNN on three CNNs", runConvFig(conv.Implicit,
			"Fig. 5 — Implicit CONV vs swDNN (batch 1 has no manual version)")},
		{"fig6", "Fig. 6: Winograd CONV vs manual on applicable layers", runConvFig(conv.Winograd,
			"Fig. 6 — Winograd CONV vs manual (xMath-based) implementation")},
		{"fig7", "Fig. 7: Explicit CONV vs manual on three CNNs", runConvFig(conv.Explicit,
			"Fig. 7 — Explicit CONV vs manual (im2col + xMath) implementation")},
		{"table1", "Table 1: 75-configuration sweep, faster/slower counts", runTable1},
		{"fig8", "Fig. 8: Throughput/efficiency of three CONV methods", runFig8},
		{"table2", "Table 2: GEMM vs xMath on Listing-2 shapes", runTable2},
		{"table3", "Table 3: Tuning time, black-box vs swATOP", runTable3},
		{"fig9", "Fig. 9: Model-picked vs brute-force best performance", runFig9},
		{"fig10", "Fig. 10: Auto-prefetching vs no-prefetch baseline", runFig10},
		{"fig11", "Fig. 11: Lightweight vs traditional zero padding", runFig11},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q", id)
}

func runSubstrate(r *Runner) (*report.Table, error) {
	t := report.NewTable("Simulated substrate vs published SW26010 measurements",
		"microbenchmark", "simulated", "published [24]")
	triad := sw26010.StreamTriadDMA(8192)
	t.AddRow("DMA stream triad", fmt.Sprintf("%.1f GB/s", triad.GBperSecond), "22.6 GB/s")
	gl := sw26010.StreamGLDGST(1 << 26)
	t.AddRow("gld/gst bandwidth", fmt.Sprintf("%.2f GB/s", gl.GBperSecond), "1.48 GB/s")
	rc := sw26010.RegCommBroadcast(1 << 16)
	t.AddRow("register comm aggregate", fmt.Sprintf("%.0f GB/s", rc.GBperSecond), "647.25 GB/s")
	t.AddRow("chip SP peak", fmt.Sprintf("%.2f TFLOPS", sw26010.PeakGFlops*sw26010.NumCG/1e3), "3.06 TFLOPS")
	return t, nil
}

// runConvFig renders one of Figs. 5–7: a row per layer and batch, then the
// average speedup per batch.
func runConvFig(method, title string) func(r *Runner) (*report.Table, error) {
	return func(r *Runner) (*report.Table, error) {
		rows, err := r.convFig(method, workloads.Batches())
		if err != nil {
			return nil, err
		}
		t := report.NewTable(title,
			"layer", "batch", "swATOP", "manual", "speedup", "eff", "chip TFLOPS", "space")
		for _, row := range rows {
			manual, speed := "n/a", "∞"
			if !row.ManualNA {
				manual = report.Ms(row.Manual)
				speed = fmt.Sprintf("%.2fx", row.Speedup)
			}
			// Budgeted (-searcher) runs show measured/space coverage instead
			// of pretending the walk visited everything; exhaustive rows keep
			// the valid-candidate count, byte-identical to earlier releases.
			space := fmt.Sprint(row.SpaceSize)
			if row.Measured > 0 && row.SpacePoints > 0 {
				space = fmt.Sprintf("%d/%d (%.0f%%)", row.Measured, row.SpacePoints,
					100*float64(row.Measured)/float64(row.SpacePoints))
			}
			t.AddRow(fmt.Sprintf("%s/%s", row.Net, row.Layer), row.Batch,
				report.Ms(row.SwATOP), manual, speed,
				fmt.Sprintf("%.0f%%", row.Eff*100), fmt.Sprintf("%.2f", row.ChipTFlops), space)
		}
		for _, b := range workloads.Batches() {
			if avg, n := AvgSpeedup(rows, b); n > 0 {
				t.AddRow(fmt.Sprintf("— average (batch %d, %d layers)", b, n), b, "", "",
					fmt.Sprintf("%.2fx", avg), "", "", "")
			}
		}
		return t, nil
	}
}

func runTable1(r *Runner) (*report.Table, error) {
	cells, err := r.Table1()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table 1 — Listing-1 sweep vs best manual implementation",
		"method", "batch", "faster", "avg speedup", "slower", "avg slowdown")
	for _, c := range cells {
		fast := fmt.Sprintf("%+.0f%%", c.AvgFasterPct)
		if c.FasterInf {
			fast = "+∞%"
		}
		slow := "-"
		if c.Slower > 0 {
			slow = fmt.Sprintf("-%.0f%%", c.AvgSlowerPct)
		}
		t.AddRow(c.Method, c.Batch, c.Faster, fast, c.Slower, slow)
	}
	return t, nil
}

func runFig8(r *Runner) (*report.Table, error) {
	rows, err := r.Fig8()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 8 — throughput/efficiency over the Listing-1 sweep (direct-conv FLOPs)",
		"method", "batch", "avg chip TFLOPS", "avg eff", "min eff", "max eff")
	for _, row := range rows {
		t.AddRow(row.Method, row.Batch,
			fmt.Sprintf("%.2f", row.AvgTFlops),
			fmt.Sprintf("%.0f%%", row.AvgEff*100),
			fmt.Sprintf("%.0f%%", row.MinEff*100),
			fmt.Sprintf("%.0f%%", row.MaxEff*100))
	}
	return t, nil
}

func runTable2(r *Runner) (*report.Table, error) {
	rows, err := r.Table2()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table 2 — swATOP vs xMath on matrix multiplication",
		"shapes", "faster", "avg speedup", "slower", "avg slowdown")
	for _, row := range rows {
		name := "unaligned"
		if row.Aligned {
			name = "aligned"
		}
		t.AddRow(name, row.Faster, fmt.Sprintf("%+.1f%%", row.AvgFasterPct),
			row.Slower, fmt.Sprintf("-%.1f%%", row.AvgSlowerPct))
	}
	return t, nil
}

func runTable3(r *Runner) (*report.Table, error) {
	rows, err := r.Table3()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table 3 — tuning cost of the implicit CONV layers (machine time)",
		"network", "layers", "space total", "space avg", "black-box", "bb avg/layer",
		"swATOP", "sw avg/layer", "speedup", "host wall bb", "host wall sw")
	for _, row := range rows {
		t.AddRow(row.Net, row.Layers, row.SpaceTotal, fmt.Sprintf("%.1f", row.SpaceAvg),
			report.Duration(row.BlackBoxSec), report.Duration(row.BlackBoxAvg),
			report.Duration(row.SwATOPSec), report.Duration(row.SwATOPAvg),
			fmt.Sprintf("%.0fx", row.SpeedupX),
			report.Duration(row.WallBlack), report.Duration(row.WallSwATOP))
	}
	return t, nil
}

func runFig9(r *Runner) (*report.Table, error) {
	rows, err := r.Fig9()
	if err != nil {
		return nil, err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Ratio < rows[j].Ratio })
	t := report.NewTable("Fig. 9 — model-picked performance / brute-force best", "shape", "ratio")
	for _, row := range rows {
		t.AddRow(row.Shape.String(), fmt.Sprintf("%.3f", row.Ratio))
	}
	avg, worst := Fig9Summary(rows)
	t.AddRow("— average", fmt.Sprintf("%.3f", avg))
	t.AddRow("— worst", fmt.Sprintf("%.3f", worst))
	return t, nil
}

func runFig10(r *Runner) (*report.Table, error) {
	rows, err := r.Fig10()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 10 — auto-prefetching vs baseline (8 best-for-baseline configs)",
		"shape", "baseline", "prefetch", "improvement")
	sum := 0.0
	for _, row := range rows {
		t.AddRow(row.Shape.String(), report.Ms(row.NoPrefetch), report.Ms(row.Prefetch),
			fmt.Sprintf("+%.1f%%", row.ImprovementPct))
		sum += row.ImprovementPct
	}
	if len(rows) > 0 {
		t.AddRow("— average", "", "", fmt.Sprintf("+%.1f%%", sum/float64(len(rows))))
	}
	return t, nil
}

func runFig11(r *Runner) (*report.Table, error) {
	rows, err := r.Fig11()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 11 — boundary-processing overhead (cases with traditional > 10%)",
		"shape", "ideal", "lightweight", "traditional")
	var lsum, tsum float64
	for _, row := range rows {
		t.AddRow(row.Params.String(), report.Ms(row.IdealSec),
			fmt.Sprintf("%+.1f%%", row.LightPct), fmt.Sprintf("%+.1f%%", row.TraditionPct))
		lsum += row.LightPct
		tsum += row.TraditionPct
	}
	if len(rows) > 0 {
		n := float64(len(rows))
		t.AddRow("— average", "", fmt.Sprintf("%+.1f%%", lsum/n), fmt.Sprintf("%+.1f%%", tsum/n))
	}
	return t, nil
}
