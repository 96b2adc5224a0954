// Command benchmark is the repository's two-clock benchmark: six workloads
// over the swATOP stack, each reporting end-to-end metrics on the host
// clock and the simulated SW26010 clock, and — in a separate traced run —
// per-layer metrics. BENCHMARK.json at the repository root declares the
// workloads and metrics; README.md in this directory explains them.
//
//	go run ./benchmark                         the whole suite, both families
//	go run ./benchmark -workload replay-warm   one workload, end to end
//	go run ./benchmark -workload replay-warm -trace 1   its per-layer metrics
//	go run ./benchmark -check-repeat           the suite twice, compared
//	go run ./benchmark -compare a.json b.json  two saved result files
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// options are the command line.
type options struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       int
	quick       bool
	checkRepeat bool
	compare     bool
	out         string
	traceOut    string
	args        []string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print its metrics as one JSON object on the last line (default: the whole suite)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs: request arrival schedule and searcher seeds")
	flag.Float64Var(&o.seconds, "seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "one repetition per workload on a tiny network (smoke test)")
	flag.BoolVar(&o.checkRepeat, "check-repeat", false, "run the suite twice and fail if an end-to-end metric differs by more than its bound")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files given as arguments, the second against the first")
	flag.StringVar(&o.out, "out", "benchmark/out/result.json", "suite mode: result file")
	flag.StringVar(&o.traceOut, "trace-out", "benchmark/out/trace.json", "where the traced runs write their spans")
	flag.Parse()
	o.args = flag.Args()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	decl, err := loadDeclaration()
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(decl.RunSeconds)
	}
	switch {
	case o.compare:
		if len(o.args) != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(decl, o.args[0], o.args[1])
	case o.checkRepeat:
		return checkRepeat(decl, o)
	}

	// One process, GOMAXPROCS = tuning workers = min(nproc, 4): the load is
	// sized to the box it runs on.
	workers := runtime.NumCPU()
	if workers > 4 {
		workers = 4
	}
	runtime.GOMAXPROCS(workers)
	e := &env{workers: workers, seed: o.seed, quick: o.quick, size: fullSizing()}
	if o.quick {
		e.size = quickSizing()
	}
	d := time.Duration(o.seconds * float64(time.Second))
	ctx := context.Background()

	fmt.Printf("# swatop benchmark: seed=%d seconds=%g workers=%d quick=%v\n", o.seed, o.seconds, workers, o.quick)
	if err := checkFunctional(ctx, e); err != nil {
		return err
	}
	fmt.Println("# correctness stage passed: every operator of the tiny chain matches the reference oracle")

	if o.workload == "" {
		return runSuite(ctx, e, decl, d, o.out, o.traceOut)
	}
	w := workloadByName(o.workload)
	if w == nil || !decl.hasWorkload(o.workload) {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	return runOne(ctx, e, decl, w, d, o.trace != 0, o.traceOut)
}

// compareFiles compares two saved result files, b against a.
func compareFiles(decl *declaration, a, b string) error {
	first, err := readResultFile(a)
	if err != nil {
		return err
	}
	second, err := readResultFile(b)
	if err != nil {
		return err
	}
	if n := compareResults(os.Stdout, decl, first, second); n > 0 {
		return fmt.Errorf("%d end-to-end metrics of %s are worse than in %s by more than their bound", n, b, a)
	}
	return nil
}

// checkRepeat runs the suite twice and compares the two result files. Each
// suite runs in a process of its own: whatever the first left on the heap
// would be live memory the second has and the first did not, and at this
// program's heap sizes that shifts the collector's pacing.
func checkRepeat(decl *declaration, o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	outs := []string{o.out, repeatPath(o.out)}
	for i, traceOut := range []string{o.traceOut, repeatPath(o.traceOut)} {
		args := []string{"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-out", outs[i], "-trace-out", traceOut}
		if o.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("suite run %d: %w", i+1, err)
		}
	}
	fmt.Println("# second run against the first")
	return compareFiles(decl, outs[0], outs[1])
}

func repeatPath(p string) string {
	ext := filepath.Ext(p)
	return p[:len(p)-len(ext)] + ".repeat" + ext
}

// outcome is what one run of one workload measured, end to end or traced.
type outcome struct {
	vals map[string]float64
	// samples are the per-operation (or per-set-up) values behind a
	// median, for the quartiles printed beside it.
	samples   map[string][]float64
	spans     []span // traced runs only
	attempted int
	failed    int
}

// runFamily runs one workload for one metric family and lines the result
// up with the declaration.
func runFamily(ctx context.Context, e *env, decl *declaration, w *workload, d time.Duration,
	traced bool, traceOut string) (*outcome, []metricValue, error) {
	var r *outcome
	var err error
	if traced {
		r, err = runTraced(ctx, e, w, d, filepath.Dir(traceOut))
	} else {
		r, err = runEndToEnd(ctx, e, w, d)
	}
	if err != nil {
		return nil, nil, err
	}
	vs, err := values(decl.metrics(traced), w.name, r.vals, traced, r.samples)
	if err != nil {
		return nil, nil, err
	}
	printValues(os.Stdout, vs)
	return r, vs, nil
}

// runOne is the driver's mode: one workload, one metric family, and as the
// last line of standard output one JSON object with the verdict and the
// metrics.
func runOne(ctx context.Context, e *env, decl *declaration, w *workload, d time.Duration, traced bool, traceOut string) error {
	r, vs, err := runFamily(ctx, e, decl, w, d, traced, traceOut)
	if err != nil {
		return err
	}
	if traced {
		traces, err := newTraceWriter(traceOut)
		if err != nil {
			return err
		}
		defer traces.close()
		if err := traces.add(w.name, r.spans); err != nil {
			return err
		}
		if err := traces.close(); err != nil {
			return err
		}
	}
	line, err := verdictLine(vs, r.attempted, r.failed)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// verdictLine is the JSON object the driver reads from the last line of
// standard output. A run that found a wrong output has already ended with
// an error and a non-zero exit code, so a verdict is only ever written for
// a correct run.
func verdictLine(vs []metricValue, attempted, failed int) ([]byte, error) {
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	verdict := struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]reading{}}
	for _, v := range vs {
		verdict.Metrics[v.Name] = reading{Value: v.Value, Unit: v.Unit}
	}
	return json.Marshal(verdict)
}

// runSuite runs every declared workload, end to end and then traced,
// prints every metric by name and writes the result and trace files.
func runSuite(ctx context.Context, e *env, decl *declaration, d time.Duration, out, traceOut string) error {
	res := newResultFile(e, d.Seconds())
	traces, err := newTraceWriter(traceOut)
	if err != nil {
		return err
	}
	defer traces.close()
	for _, wd := range decl.Workloads {
		w := workloadByName(wd.Name)
		if w == nil {
			return fmt.Errorf("BENCHMARK.json lists workload %q, which this harness does not have", wd.Name)
		}
		r, vs, err := runFamily(ctx, e, decl, w, d, false, traceOut)
		if err != nil {
			return err
		}
		fmt.Printf("%-14s %-38s %16d of %d\n", w.name, "failed operations", r.failed, r.attempted)
		res.EndToEnd = append(res.EndToEnd, vs...)

		if r, vs, err = runFamily(ctx, e, decl, w, d, true, traceOut); err != nil {
			return err
		}
		res.PerLayer = append(res.PerLayer, vs...)
		if err := traces.add(w.name, r.spans); err != nil {
			return err
		}
	}
	if err := writeJSON(out, res); err != nil {
		return err
	}
	if err := traces.close(); err != nil {
		return err
	}
	fmt.Printf("# result file %s, trace file %s\n", out, traceOut)
	return nil
}

// runEndToEnd is one workload's end-to-end run: nothing attached, no
// spans. Set-up is repeated for the setup_s median; the last one's state
// serves the timed operations.
func runEndToEnd(ctx context.Context, e *env, w *workload, d time.Duration) (*outcome, error) {
	reps := w.setupReps
	if e.quick {
		reps = 1
	}
	var st *state
	var setups []float64
	for i := 0; i < reps; i++ {
		closeState(st)
		t0 := time.Now()
		var err error
		if st, err = w.setup(ctx, e); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer closeState(st)
	var m *measured
	var err error
	if w.op != nil {
		m, err = measureLoop(ctx, e, w, st, d)
	} else if m, err = measureServe(ctx, e, plainSubmit(st.srv), d); err == nil {
		m.machineMs = st.setupMachineMs
	}
	if err != nil {
		return nil, err
	}
	if w.check != nil {
		if err := w.check(ctx, e, st); err != nil {
			return nil, err
		}
	}
	return &outcome{
		vals: map[string]float64{
			"setup_s":         median(setups),
			"wall_ms_p50":     median(m.wallMs),
			"ops_per_s":       m.opsPerS,
			"machine_ms":      m.machineMs,
			"allocs_per_op":   m.mallocs,
			"alloc_mb_per_op": m.allocMB,
			"live_heap_mb":    liveHeapMB(st),
		},
		samples:   map[string][]float64{"setup_s": setups, "wall_ms_p50": m.wallMs},
		attempted: m.attempted,
		failed:    m.failed,
	}, nil
}
