package swatop

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper (§5), each regenerating the result on the simulated SW26010 and
// reporting the headline metric. Quick stratified subsets keep
// `go test -bench=.` tractable; `go run ./cmd/swbench -full` runs complete
// grids.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"swatop/internal/autotune"
	"swatop/internal/conv"
	"swatop/internal/experiments"
	"swatop/internal/ir"
	"swatop/internal/report"
	"swatop/internal/workloads"
)

var (
	benchOnce   sync.Once
	benchRunner *experiments.Runner
	benchErr    error
)

func runner(b *testing.B) *experiments.Runner {
	b.Helper()
	benchOnce.Do(func() {
		benchRunner, benchErr = experiments.NewRunner()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRunner
}

func runExperiment(b *testing.B, id string) *report.Table {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var table *report.Table
	for i := 0; i < b.N; i++ {
		table, err = e.Run(runner(b))
		if err != nil {
			b.Fatal(err)
		}
	}
	return table
}

func BenchmarkSubstrate(b *testing.B) {
	t := runExperiment(b, "substrate")
	b.Log("\n" + t.String())
}

func BenchmarkFig5ImplicitVsSwDNN(b *testing.B) {
	r := runner(b)
	rows, err := r.Fig5(workloads.Batches())
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{32, 128} {
		if avg, n := experiments.AvgSpeedup(rows, batch); n > 0 {
			b.Logf("batch %d: avg speedup %.2fx over %d layers (paper: 1.44x/1.32x)", batch, avg, n)
			b.ReportMetric(avg, "speedup@b"+itoa(batch))
		}
	}
}

func BenchmarkFig6WinogradVsManual(b *testing.B) {
	r := runner(b)
	rows, err := r.Fig6(workloads.Batches())
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range workloads.Batches() {
		if avg, n := experiments.AvgSpeedup(rows, batch); n > 0 {
			b.Logf("batch %d: avg speedup %.2fx over %d layers (paper: 2.20-2.35x)", batch, avg, n)
			b.ReportMetric(avg, "speedup@b"+itoa(batch))
		}
	}
}

func BenchmarkFig7ExplicitVsManual(b *testing.B) {
	r := runner(b)
	rows, err := r.Fig7(workloads.Batches())
	if err != nil {
		b.Fatal(err)
	}
	faster, total := 0, 0
	best := 1.0
	for _, row := range rows {
		if row.ManualNA {
			continue
		}
		total++
		if row.Speedup >= 1 {
			faster++
		}
		if row.Speedup > best {
			best = row.Speedup
		}
	}
	b.Logf("faster in %d/%d layer cases, best speedup %.1fx (paper: majority faster, best 15.2x)",
		faster, total, best)
	b.ReportMetric(best, "best-speedup")
}

func BenchmarkTable1Sweep(b *testing.B) {
	t := runExperiment(b, "table1")
	b.Log("\n" + t.String())
}

func BenchmarkFig8Efficiency(b *testing.B) {
	t := runExperiment(b, "fig8")
	b.Log("\n" + t.String())
}

func BenchmarkTable2GemmVsXMath(b *testing.B) {
	t := runExperiment(b, "table2")
	b.Log("\n" + t.String())
}

func BenchmarkTable3TuningTime(b *testing.B) {
	r := runner(b)
	rows, err := r.Table3()
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range rows {
		b.Logf("%s: space avg %.0f, black-box %s vs swATOP %s → %.0fx (paper: 353-454x)",
			row.Net, row.SpaceAvg, report.Duration(row.BlackBoxSec),
			report.Duration(row.SwATOPSec), row.SpeedupX)
		b.ReportMetric(row.SpeedupX, row.Net+"-speedup")
	}
}

func BenchmarkFig9ModelQuality(b *testing.B) {
	r := runner(b)
	rows, err := r.Fig9()
	if err != nil {
		b.Fatal(err)
	}
	avg, worst := experiments.Fig9Summary(rows)
	b.Logf("model-picked/best ratio: avg %.3f, worst %.3f over %d configs (paper: avg >0.98, worst >0.92)",
		avg, worst, len(rows))
	b.ReportMetric(worst, "worst-ratio")
	if worst < 0.92 {
		b.Errorf("worst-case model loss %.1f%% exceeds the paper's 8%% bound", (1-worst)*100)
	}
}

func BenchmarkFig10Prefetching(b *testing.B) {
	t := runExperiment(b, "fig10")
	b.Log("\n" + t.String())
}

// Ablations of the scheduler's three transformation families (§4.3) beyond
// the paper's own prefetching (Fig. 10) and padding (Fig. 11) studies:
// restrict one family to its trivial choice and measure what the search
// loses on a representative layer.

func ablate(b *testing.B, label string, restrict func(op *conv.ImplicitOp)) {
	b.Helper()
	r := runner(b)
	s := conv.Shape{B: 32, Ni: 256, No: 256, Ro: 28, Co: 28, Kr: 3, Kc: 3}
	full, err := conv.NewImplicitOp(s)
	if err != nil {
		b.Fatal(err)
	}
	fres, err := r.Tune(context.Background(), full, false)
	if err != nil {
		b.Fatal(err)
	}
	cut, err := conv.NewImplicitOp(s)
	if err != nil {
		b.Fatal(err)
	}
	restrict(cut)
	cres, err := r.Tune(context.Background(), cut, false)
	if err != nil {
		b.Fatal(err)
	}
	loss := cres.Best.Measured/fres.Best.Measured - 1
	b.Logf("%s: full space %.4gms vs ablated %.4gms (+%.1f%% loss without it)",
		label, fres.Best.Measured*1e3, cres.Best.Measured*1e3, loss*100)
	b.ReportMetric(loss*100, "loss-pct")
}

func BenchmarkAblationLoopFusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ablate(b, "co fusion (merging columns into the GEMM N)", func(op *conv.ImplicitOp) {
			op.Space().Factors["co"] = []int{1}
		})
	}
}

func BenchmarkAblationLayoutChoice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ablate(b, "weight layout transformation", func(op *conv.ImplicitOp) {
			// Only the naive (No,Ni,Kr,Kc) layout: single-float DMA gathers.
			op.Space().Layouts["weight"] = [][]int{{0, 1, 2, 3}}
		})
	}
}

func BenchmarkAblationVectorization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ablate(b, "vectorized-dimension choice", func(op *conv.ImplicitOp) {
			op.Space().Vecs = []ir.VecDim{ir.VecM}
		})
	}
}

// BenchmarkTuningWallClock measures what the candidate worker pool buys on
// the host: the same VGG16 layer tuned sequentially and with one worker per
// CPU. The selected schedule and the simulated machine-time ledger are
// asserted identical — parallelism only shrinks wall clock.
func BenchmarkTuningWallClock(b *testing.B) {
	r := runner(b)
	var s conv.Shape
	for _, l := range workloads.Networks()["vgg16"] {
		if sh := l.Shape(32); sh.Ni >= conv.MinNiImplicit {
			s = sh
			break
		}
	}
	tune := func(w int) autotune.Result {
		op, err := conv.NewImplicitOp(s)
		if err != nil {
			b.Fatal(err)
		}
		wr := &experiments.Runner{Model: r.Model, Options: autotune.Options{Workers: w}}
		res, err := wr.Tune(context.Background(), op, false)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	// On single-CPU hosts still run a real pool, so the benchmark always
	// compares the two code paths (there it measures pool overhead rather
	// than speedup).
	par := runtime.NumCPU()
	if par < 2 {
		par = 4
	}
	seq := tune(1)
	pll := tune(par)
	if seq.Best.Strategy.String() != pll.Best.Strategy.String() ||
		seq.MachineSeconds != pll.MachineSeconds {
		b.Fatal("parallel tuning diverged from the sequential reference")
	}
	b.Logf("%d candidates: %.2fs sequential vs %.2fs with %d workers (%.1fx wall clock)",
		seq.SpaceSize, seq.WallSeconds, pll.WallSeconds, par,
		seq.WallSeconds/pll.WallSeconds)
	b.Run("workers-1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tune(1)
		}
	})
	b.Run(fmt.Sprintf("workers-%d", par), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tune(par)
		}
	})
}

func BenchmarkFig11Padding(b *testing.B) {
	t := runExperiment(b, "fig11")
	b.Log("\n" + t.String())
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkInferVGG16 measures the end-to-end network runtime on the
// cached-library path: the first inference tunes every layer and fills the
// library outside the timer, then each iteration replays the whole network
// from cached schedules — the steady-state inference cost the paper's
// swCaffe integration pays per forward pass.
func BenchmarkInferVGG16(b *testing.B) {
	e, err := NewEngine()
	if err != nil {
		b.Fatal(err)
	}
	lib := NewLibrary()
	e.UseLibrary(lib)
	e.SetWorkers(runtime.NumCPU())
	warm, err := e.Infer("vgg16", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rep *NetReport
	for i := 0; i < b.N; i++ {
		rep, err = e.Infer("vgg16", 1)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Seconds != warm.Seconds {
			b.Fatalf("cached replay %g s differs from tuning run %g s", rep.Seconds, warm.Seconds)
		}
	}
	b.ReportMetric(rep.Seconds*1e3, "machine-ms")
	b.ReportMetric(rep.GFLOPS, "machine-GFLOPS")
}
