// Command swbench regenerates the paper's tables and figures against the
// simulated SW26010.
//
// Usage:
//
//	swbench [-full] [-csv] [-json] [-workers N] [-searcher evo]
//	        [-budget F] [-metrics -|file] [-trace-out trace.json]
//	        [-listen addr] [experiment ...]
//	swbench -bench-out BENCH.json
//	swbench -bench-against BENCH.json [-bench-tolerance pct]
//	swbench -bench-diff OLD.json NEW.json
//	swbench -search-check
//
// Experiments: substrate fig5 fig6 fig7 table1 fig8 table2 table3 fig9
// fig10 fig11 (default: all). -full runs the complete parameter grids
// instead of the quick stratified subsets. -workers tunes sweep entries
// in parallel; every reported number is identical for any worker count.
// -metrics reports the session's cumulative tuning metrics; -trace-out
// writes a host-side timeline (one span per experiment, wall time) in
// Chrome trace-event JSON; -listen serves live introspection while the
// sweeps run.
//
// -bench-out / -bench-against skip the experiment tables and instead run
// the canonical performance workloads (the 2048^3 GEMM point, VGG16
// batch-1 inference, and VGG16 batch-8 throughput on 1 and 4 core
// groups), writing or gating on a machine-seconds snapshot — the repo's
// performance trajectory record. -bench-diff runs nothing: it compares
// two snapshot files and attributes every delta per workload, per phase
// (exec vs comm machine seconds), and per layer —
// naming the conv and the phase a regression lives in, and any schedule
// change on that layer.
//
// -searcher replaces the exhaustive schedule walk with a sample-efficient
// evolutionary search that measures at most -budget of each space; -search-check is the quality gate that holds the
// evolutionary searcher to within 5% of the exhaustive result on the VGG16
// conv set.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"swatop"
	"swatop/internal/autotune"
	"swatop/internal/bench"
	"swatop/internal/cliobs"
	"swatop/internal/experiments"
	"swatop/internal/metrics"
	"swatop/internal/trace"
)

func main() {
	full := flag.Bool("full", false, "run complete parameter grids (slow)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := flag.Bool("json", false, "emit JSON instead of aligned tables")
	workers := flag.Int("workers", runtime.NumCPU(),
		"concurrent tuning workers (results are worker-count independent)")
	retries := flag.Int("retries", 1,
		"total attempts per candidate measurement for transient errors (reported numbers are retry-independent)")
	benchOut := flag.String("bench-out", "",
		"run the canonical performance workloads and write the snapshot JSON to this file")
	benchAgainst := flag.String("bench-against", "",
		"run the canonical performance workloads and compare against this snapshot file (exit 1 on regression)")
	benchTolerance := flag.Float64("bench-tolerance", bench.DefaultTolerancePct,
		"allowed machine-seconds regression in percent for -bench-against")
	benchDiff := flag.Bool("bench-diff", false,
		"attribute the machine-seconds difference between two snapshot files (swbench -bench-diff old.json new.json); runs nothing, exit 1 on regression")
	searcherName := flag.String("searcher", "",
		"search strategy: evo; empty = exhaustive walk (results stay worker-count independent)")
	budget := flag.Float64("budget", 0,
		"fraction of each schedule space a -searcher may measure (0 = default 0.10)")
	searchCheck := flag.Bool("search-check", false,
		"quality gate: tune the VGG16 conv set exhaustively and with '-searcher evo -budget 0.10'; exit 1 if any layer's chosen schedule is >5% slower")
	obsFlags := cliobs.Register(flag.CommandLine,
		"write a host-side experiment timeline (wall time) as Chrome trace-event JSON")
	flag.Parse()

	if *benchDiff {
		// Pure file comparison: no tuner, no session, no workloads run.
		os.Exit(benchDiffCmd(flag.Args()))
	}

	searcher, err := swatop.SearcherByName(*searcherName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swbench:", err)
		os.Exit(2)
	}

	runner, err := experiments.NewRunner()
	if err != nil {
		fmt.Fprintln(os.Stderr, "swbench:", err)
		os.Exit(1)
	}
	runner.Quick = !*full
	reg := metrics.NewRegistry()
	runner.Options = autotune.Options{Workers: *workers, Metrics: reg, Searcher: searcher, SearchBudget: *budget}
	if *retries > 1 {
		runner.Options.Retry = autotune.Retry{Attempts: *retries}
	}
	sess, err := obsFlags.Start("swbench", reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swbench:", err)
		os.Exit(1)
	}
	defer sess.Close()
	runner.Options.Observer = sess.Observer

	if *searchCheck {
		code := searchCheckCmd(sess, runner)
		if err := sess.WriteMetrics(true); err != nil {
			fmt.Fprintln(os.Stderr, "swbench:", err)
			code = 1
		}
		if code != 0 {
			sess.Close()
			os.Exit(code)
		}
		return
	}

	if *benchOut != "" || *benchAgainst != "" {
		code := benchCmd(sess, *benchOut, *benchAgainst, *benchTolerance, *workers)
		if err := sess.WriteMetrics(true); err != nil {
			fmt.Fprintln(os.Stderr, "swbench:", err)
			code = 1
		}
		if code != 0 {
			sess.Close()
			os.Exit(code)
		}
		return
	}

	progress := false
	runner.Progress = func(done, total int) {
		progress = true
		// Counts come from the live registry: cumulative over the whole
		// session, not just the current sweep entry. Space points are
		// recorded by every tuning run, so the coverage ratio shows how
		// much of the candidate space was actually measured — 100% for the
		// exhaustive walk, the budget fraction under -searcher.
		cands := reg.Counter("autotune_candidates_total").Value()
		space := reg.Counter("autotune_space_points_total").Value()
		if space > 0 {
			fmt.Fprintf(os.Stderr, "\r%d/%d tuned (%d of %d candidates measured, %.1f%% of space)",
				done, total, cands, space, 100*float64(cands)/float64(space))
			return
		}
		fmt.Fprintf(os.Stderr, "\r%d/%d tuned (%d candidates searched)", done, total, cands)
	}

	hostLog := &trace.Log{}
	sessionStart := time.Now()

	ids := flag.Args()
	if len(ids) == 0 {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		if sess.Context().Err() != nil {
			// SIGTERM/SIGINT drain: finish the experiment that was running,
			// skip the rest, still flush traces and metrics below.
			fmt.Fprintln(os.Stderr, "swbench: draining, skipping remaining experiments")
			break
		}
		e, err := experiments.ByID(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "swbench:", err)
			os.Exit(1)
		}
		start := time.Now()
		table, err := e.Run(runner)
		if progress {
			fmt.Fprintln(os.Stderr)
			progress = false
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "swbench %s: %v\n", id, err)
			os.Exit(1)
		}
		hostLog.Add(trace.Kind("experiment"), e.ID,
			start.Sub(sessionStart).Seconds(), time.Since(start).Seconds())
		reg.Counter("swbench_experiments_total").Inc()
		switch {
		case *jsonOut:
			doc, err := table.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "swbench %s: %v\n", id, err)
				os.Exit(1)
			}
			fmt.Println(doc)
		case *csv:
			fmt.Printf("# %s\n%s\n", e.Title, table.CSV())
		default:
			fmt.Println(table.String())
		}
		out := os.Stdout
		if *jsonOut {
			// Keep stdout machine-parseable when emitting JSON.
			out = os.Stderr
		}
		fmt.Fprintf(out, "(%s finished in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if err := cliobs.WriteTrace(obsFlags.TraceOut, hostLog.WriteChromeTrace); err != nil {
		fmt.Fprintln(os.Stderr, "swbench:", err)
		os.Exit(1)
	}
	if err := sess.WriteMetrics(*jsonOut || *csv); err != nil {
		fmt.Fprintln(os.Stderr, "swbench:", err)
		os.Exit(1)
	}
}
