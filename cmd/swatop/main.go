// Command swatop tunes one operator and emits its schedule report and
// generated SW26010 C code.
//
// Usage:
//
//	swatop gemm -m 2048 -n 2048 -k 2048 [-workers N] [-c out.c] [-ir]
//	swatop conv -method implicit -b 32 -ni 256 -no 256 -r 28 [-kernel 3] [-workers N] [-c out.c] [-ir]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"swatop"
	"swatop/internal/cliobs"
)

// metricsReg is the registry every tuning run records into; -metrics
// decides whether (and where) it is reported.
var metricsReg = swatop.NewMetricsRegistry()

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gemm":
		gemmCmd(os.Args[2:])
	case "conv":
		convCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  swatop gemm -m M -n N -k K [-searcher evo] [-budget F] [-fallback] [-retries N] [-deadline D] [-c out.c] [-ir] [-metrics -|file] [-trace-out t.json] [-listen addr]
  swatop conv -method implicit|explicit|winograd -b B -ni Ni -no No -r R [-kernel K] [-searcher evo] [-budget F] [-fallback] [-retries N] [-deadline D] [-c out.c] [-ir] [-metrics -|file] [-trace-out t.json] [-listen addr]`)
	os.Exit(2)
}

func gemmCmd(args []string) {
	fs := flag.NewFlagSet("gemm", flag.ExitOnError)
	m := fs.Int("m", 1024, "rows of A/C")
	n := fs.Int("n", 1024, "columns of B/C")
	k := fs.Int("k", 1024, "reduction extent")
	cOut := fs.String("c", "", "write generated C to file")
	showIR := fs.Bool("ir", false, "print the optimized IR")
	showTrace := fs.Bool("trace", false, "print the execution timeline")
	workers := fs.Int("workers", runtime.NumCPU(), "concurrent tuning workers (result is worker-count independent)")
	obsFlags := cliobs.Register(fs,
		"write the tuned schedule's execution timeline as Chrome trace-event JSON (opens in ui.perfetto.dev)")
	fallback, retries, deadline := resilienceFlags(fs)
	sName, sBudget, sSeed := searchFlags(fs)
	_ = fs.Parse(args)

	sess, err := obsFlags.Start("swatop", metricsReg)
	check(err)
	defer sess.Close()
	tuner := mustTuner(sess, *workers, *fallback, *retries)
	applySearch(tuner, *sName, *sBudget, *sSeed)
	ctx, cancel := deadlineCtx(sess.Context(), *deadline)
	defer cancel()
	stop := sess.StartProgress(os.Stderr)
	tuned, err := tuner.TuneGemmCtx(ctx, swatop.GemmParams{M: *m, N: *n, K: *k})
	stop()
	check(err)
	base, err := swatop.BaselineGemmSeconds(swatop.GemmParams{M: *m, N: *n, K: *k})
	check(err)
	reportTuned(tuned, base, "xMath")
	emit(tuned, *cOut, *showIR)
	if *showTrace {
		tr, err := tuned.Trace()
		check(err)
		fmt.Println("\n--- execution timeline ---")
		fmt.Print(tr)
	}
	check(cliobs.WriteTrace(obsFlags.TraceOut, tuned.WriteChromeTrace))
	check(sess.WriteMetrics(false))
}

func convCmd(args []string) {
	fs := flag.NewFlagSet("conv", flag.ExitOnError)
	method := fs.String("method", swatop.Implicit, "implicit|explicit|winograd")
	b := fs.Int("b", 32, "batch size")
	ni := fs.Int("ni", 256, "input channels")
	no := fs.Int("no", 256, "output channels")
	r := fs.Int("r", 28, "output rows = columns")
	kk := fs.Int("kernel", 3, "kernel rows = columns")
	cOut := fs.String("c", "", "write generated C to file")
	showIR := fs.Bool("ir", false, "print the optimized IR")
	showTrace := fs.Bool("trace", false, "print the execution timeline")
	workers := fs.Int("workers", runtime.NumCPU(), "concurrent tuning workers (result is worker-count independent)")
	obsFlags := cliobs.Register(fs,
		"write the tuned schedule's execution timeline as Chrome trace-event JSON (opens in ui.perfetto.dev)")
	fallback, retries, deadline := resilienceFlags(fs)
	sName, sBudget, sSeed := searchFlags(fs)
	_ = fs.Parse(args)

	s := swatop.ConvShape{B: *b, Ni: *ni, No: *no, Ro: *r, Co: *r, Kr: *kk, Kc: *kk}
	sess, err := obsFlags.Start("swatop", metricsReg)
	check(err)
	defer sess.Close()
	tuner := mustTuner(sess, *workers, *fallback, *retries)
	applySearch(tuner, *sName, *sBudget, *sSeed)
	ctx, cancel := deadlineCtx(sess.Context(), *deadline)
	defer cancel()
	stop := sess.StartProgress(os.Stderr)
	tuned, err := tuner.TuneConvCtx(ctx, *method, s)
	stop()
	check(err)
	base, berr := swatop.BaselineConvSeconds(*method, s)
	if berr != nil {
		fmt.Printf("manual baseline: n/a (%v)\n", berr)
		base = 0
	}
	reportTuned(tuned, base, "manual")
	emit(tuned, *cOut, *showIR)
	if *showTrace {
		tr, err := tuned.Trace()
		check(err)
		fmt.Println("\n--- execution timeline ---")
		fmt.Print(tr)
	}
	check(cliobs.WriteTrace(obsFlags.TraceOut, tuned.WriteChromeTrace))
	check(sess.WriteMetrics(false))
}

// searchFlags registers the sample-efficient-search flags shared by both
// subcommands. An empty -searcher keeps the exhaustive walk, bit-identical
// to earlier releases.
func searchFlags(fs *flag.FlagSet) (name *string, budget *float64, seed *uint64) {
	name = fs.String("searcher", "",
		"search strategy: evo (evolutionary); empty = exhaustive walk")
	budget = fs.Float64("budget", 0,
		"fraction of the schedule space a -searcher may measure (0 = default 0.10)")
	seed = fs.Uint64("search-seed", 0,
		"search RNG seed (0 = derived from the operator name; results are deterministic either way)")
	return
}

// applySearch configures the tuner from the -searcher/-budget/-search-seed
// flags.
func applySearch(t *swatop.Tuner, name string, budget float64, seed uint64) {
	s, err := swatop.SearcherByName(name)
	check(err)
	if s == nil {
		return
	}
	t.SetSearcher(s)
	if budget > 0 {
		t.SetSearchBudget(budget)
	}
	if seed != 0 {
		t.SetSearchSeed(seed)
	}
}

// resilienceFlags registers the failure-policy flags shared by both
// subcommands.
func resilienceFlags(fs *flag.FlagSet) (fallback *bool, retries *int, deadline *time.Duration) {
	fallback = fs.Bool("fallback", false,
		"serve the manual baseline schedule (flagged degraded) when tuning fails or the deadline expires")
	retries = fs.Int("retries", 1,
		"total attempts per candidate measurement for transient errors (capped exponential backoff)")
	deadline = fs.Duration("deadline", 0,
		"tuning time budget (0 = none); with -fallback an expired budget degrades instead of failing")
	return
}

// deadlineCtx bounds the run by -deadline on top of the session context,
// so both an expired budget and a SIGTERM/SIGINT drain stop the tuner.
func deadlineCtx(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return parent, func() {}
	}
	return context.WithTimeout(parent, d)
}

func mustTuner(sess *cliobs.Session, workers int, fallback bool, retries int) *swatop.Tuner {
	t, err := swatop.NewTuner()
	check(err)
	t.SetWorkers(workers)
	if fallback {
		t.SetFallback(swatop.FallbackBaseline)
	}
	if retries > 1 {
		t.SetRetry(retries, 0, 0) // library defaults for base/max delay
	}
	t.SetMetrics(metricsReg)
	t.SetObserver(sess.Observer)
	return t
}

func reportTuned(tuned *swatop.Tuned, baseline float64, baseName string) {
	if tuned.Degraded() {
		fmt.Printf("DEGRADED       : tuning did not complete; serving the manual baseline schedule\n")
	}
	if n := tuned.FailedCandidates(); n > 0 {
		fmt.Printf("failed cands   : %d (panicked or exhausted retries; skipped)\n", n)
	}
	fmt.Printf("schedule space : %d valid candidates\n", tuned.SpaceSize())
	if m, sp := tuned.MeasuredCandidates(), tuned.SpacePoints(); m > 0 && sp > 0 {
		fmt.Printf("searched       : %d of %d points (%.1f%% coverage)\n",
			m, sp, 100*float64(m)/float64(sp))
	}
	fmt.Printf("selected       : %s\n", tuned.Strategy())
	fmt.Printf("simulated time : %.4g ms  (%.0f GFLOPS per core group)\n",
		tuned.Seconds()*1e3, tuned.GFLOPS())
	if baseline > 0 {
		fmt.Printf("%-15s: %.4g ms  (swATOP speedup %.2fx)\n",
			baseName, baseline*1e3, baseline/tuned.Seconds())
	}
}

func emit(tuned *swatop.Tuned, cOut string, showIR bool) {
	if showIR {
		fmt.Println("\n--- optimized IR ---")
		fmt.Println(tuned.PrintIR())
	}
	if cOut != "" {
		src, err := tuned.EmitC()
		check(err)
		check(os.WriteFile(cOut, []byte(src), 0o644))
		fmt.Printf("generated C    : %s (%d bytes)\n", cOut, len(src))
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "swatop:", err)
		os.Exit(1)
	}
}
