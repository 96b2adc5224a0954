package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"swatop"
	"swatop/internal/bench"
	"swatop/internal/cache"
	"swatop/internal/cliobs"
	"swatop/internal/graph"
	"swatop/internal/metrics"
	"swatop/internal/serve"
)

// benchCmd implements -bench-out / -bench-against: it runs the canonical
// performance workloads, optionally writes the snapshot, optionally
// compares against a baseline file, and returns the process exit code.
func benchCmd(sess *cliobs.Session, out, against string, tolerancePct float64, workers int) int {
	snap, err := collectSnapshot(sess, workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swbench:", err)
		return 1
	}
	if out != "" {
		if err := snap.WriteFile(out); err != nil {
			fmt.Fprintln(os.Stderr, "swbench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "bench snapshot: %s\n", out)
	}
	if against != "" {
		base, err := bench.Load(against)
		if err != nil {
			fmt.Fprintln(os.Stderr, "swbench:", err)
			return 1
		}
		diff := bench.Compare(snap, base, tolerancePct)
		fmt.Print(diff.String())
		if !diff.OK() {
			// Attribute the failure before exiting: the gate's job is not
			// just "something regressed" but naming the layer and phase.
			fmt.Print(bench.Attribute(base, snap).String())
			fmt.Fprintf(os.Stderr, "swbench: machine-seconds regression beyond %.2f%% tolerance: %v\n",
				tolerancePct, diff.Regressions())
			return 1
		}
		fmt.Printf("bench: no regression beyond %.2f%% tolerance\n", tolerancePct)
	}
	return 0
}

// benchDiffCmd implements -bench-diff OLD.json NEW.json: no workloads are
// run; the two snapshot files are compared and every machine-seconds delta
// is attributed per workload, per phase (exec vs comm), and per layer,
// naming schedule changes. Exit 1 when the new snapshot regresses any
// workload, 0 otherwise (identical snapshots attribute to zero — the
// obs-check gate relies on that).
func benchDiffCmd(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "swbench: -bench-diff needs exactly two snapshot files: old.json new.json")
		return 2
	}
	old, err := bench.Load(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "swbench:", err)
		return 1
	}
	cur, err := bench.Load(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "swbench:", err)
		return 1
	}
	a := bench.Attribute(old, cur)
	fmt.Print(a.String())
	if top := a.Top(); top != nil {
		phase, layer := top.TopPhase(), ""
		if l := top.TopLayer(); l != nil {
			layer = l.Name
		}
		fmt.Fprintf(os.Stderr, "swbench: %s regressed %+.2f%% (phase %s, layer %s)\n",
			top.Name, top.DeltaPct, orDash(phase), orDash(layer))
		return 1
	}
	return 0
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// layerCosts converts a network report's per-layer breakdown into the
// snapshot's attribution records.
func layerCosts(rep *swatop.NetReport) []bench.LayerCost {
	out := make([]bench.LayerCost, 0, len(rep.Layers))
	for _, l := range rep.Layers {
		out = append(out, bench.LayerCost{
			Name: l.Name, Kind: l.Kind, Seconds: l.Seconds, Strategy: l.Strategy,
		})
	}
	return out
}

// collectSnapshot tunes the canonical workloads: the paper's headline
// 2048^3 GEMM point, batch-1 end-to-end inference of VGG16, ResNet and
// YOLO, and the VGG16 batch-8 throughput points at one core group and at the full 4-group
// fleet. Machine seconds are worker-count independent, so `workers` only
// affects the recorded wall seconds.
func collectSnapshot(sess *cliobs.Session, workers int) (*bench.Snapshot, error) {
	snap := &bench.Snapshot{
		Schema:    bench.SchemaVersion,
		Name:      "swatop-canonical",
		GoVersion: runtime.Version(),
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
	}

	stop := sess.StartProgress(os.Stderr)
	defer stop()

	reg := swatop.NewMetricsRegistry()
	tuner, err := swatop.NewTuner()
	if err != nil {
		return nil, err
	}
	tuner.SetWorkers(workers)
	tuner.SetMetrics(reg)
	tuner.SetObserver(sess.Observer)
	start := time.Now()
	tuned, err := tuner.TuneGemm(swatop.GemmParams{M: 2048, N: 2048, K: 2048})
	if err != nil {
		return nil, fmt.Errorf("bench gemm-2048: %w", err)
	}
	snap.Workloads = append(snap.Workloads, bench.Workload{
		Name:           "gemm-2048",
		MachineSeconds: tuned.Seconds(),
		WallSeconds:    time.Since(start).Seconds(),
		Candidates:     reg.Counter("autotune_candidates_total").Value(),
		GFLOPS:         tuned.GFLOPS(),
		ExecSeconds:    tuned.Seconds(),
		Layers: []bench.LayerCost{{
			Name: "gemm-2048", Kind: "gemm",
			Seconds: tuned.Seconds(), Strategy: tuned.Strategy(),
		}},
	})

	// Batch-1 inference of each network on one core group.
	var eng *swatop.Engine
	var rep *swatop.NetReport
	for _, net := range []string{"vgg16", "resnet", "yolo"} {
		reg = swatop.NewMetricsRegistry()
		if eng, err = swatop.NewEngine(); err != nil {
			return nil, err
		}
		eng.SetWorkers(workers)
		eng.SetMetrics(reg)
		eng.SetObserver(sess.Observer)
		start = time.Now()
		if rep, err = eng.Infer(net, 1); err != nil {
			return nil, fmt.Errorf("bench %s-b1: %w", net, err)
		}
		snap.Workloads = append(snap.Workloads, bench.Workload{
			Name:           net + "-b1",
			MachineSeconds: rep.Seconds,
			WallSeconds:    time.Since(start).Seconds(),
			Candidates:     reg.Counter("autotune_candidates_total").Value(),
			GFLOPS:         rep.GFLOPS,
			ExecSeconds:    rep.Seconds - rep.CommSeconds,
			CommSeconds:    rep.CommSeconds,
			Layers:         layerCosts(rep),
		})
	}

	// The sample-efficient-search row: the same batch-1 inference tuned by
	// the evolutionary searcher at the default 10% measurement budget.
	// Informational but deterministic — it records how close budgeted
	// search stays to the exhaustive row above, and at what coverage.
	reg = swatop.NewMetricsRegistry()
	eng, err = swatop.NewEngine()
	if err != nil {
		return nil, err
	}
	eng.SetWorkers(workers)
	eng.SetMetrics(reg)
	eng.SetObserver(sess.Observer)
	eng.SetSearcher(swatop.NewEvoSearcher())
	start = time.Now()
	rep, err = eng.Infer("vgg16", 1)
	if err != nil {
		return nil, fmt.Errorf("bench vgg16-b1-evo: %w", err)
	}
	cands := reg.Counter("autotune_candidates_total").Value()
	space := reg.Counter("autotune_space_points_total").Value()
	evoRow := bench.Workload{
		Name:           "vgg16-b1-evo",
		MachineSeconds: rep.Seconds,
		WallSeconds:    time.Since(start).Seconds(),
		Candidates:     cands,
		GFLOPS:         rep.GFLOPS,
		SpacePoints:    space,
		ExecSeconds:    rep.Seconds - rep.CommSeconds,
		CommSeconds:    rep.CommSeconds,
		Layers:         layerCosts(rep),
	}
	if space > 0 {
		evoRow.CoveragePct = 100 * float64(cands) / float64(space)
	}
	snap.Workloads = append(snap.Workloads, evoRow)

	// The scale-out throughput rows: VGG16 batch 8 on one core group and
	// on the full 4-group fleet (hybrid data parallelism). Gating their
	// machine seconds gates the fleet speedup.
	for _, w := range []struct {
		name   string
		groups int
	}{
		{"vgg16-b8-g1", 1},
		{"vgg16-b8-g4", 4},
	} {
		reg = swatop.NewMetricsRegistry()
		eng, err = swatop.NewEngine()
		if err != nil {
			return nil, err
		}
		eng.SetWorkers(workers)
		eng.SetGroups(w.groups)
		eng.SetMetrics(reg)
		eng.SetObserver(sess.Observer)
		start = time.Now()
		rep, err = eng.Infer("vgg16", 8)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", w.name, err)
		}
		snap.Workloads = append(snap.Workloads, bench.Workload{
			Name:             w.name,
			MachineSeconds:   rep.Seconds,
			WallSeconds:      time.Since(start).Seconds(),
			Candidates:       reg.Counter("autotune_candidates_total").Value(),
			GFLOPS:           rep.GFLOPS,
			InferencesPerSec: rep.InferencesPerSec,
			ExecSeconds:      rep.Seconds - rep.CommSeconds,
			CommSeconds:      rep.CommSeconds,
			Layers:           layerCosts(rep),
		})
	}

	w, err := collectServeWorkload(sess, workers)
	if err != nil {
		return nil, err
	}
	snap.Workloads = append(snap.Workloads, *w)
	return snap, nil
}

// collectServeWorkload runs the serving-path row, vgg16-serve-b8: warm the
// daemon's batch-8 bucket. Its deterministic machine seconds are the row,
// exactly like the offline vgg16-b8-g1 point — same network, same tuner,
// same single group. Host-clock serving numbers (latency percentiles,
// sustained rate) are benchmark/'s serve-open workload, not this ledger's.
func collectServeWorkload(sess *cliobs.Session, workers int) (*bench.Workload, error) {
	reg := metrics.NewRegistry()
	lib := cache.NewLibrary()
	lib.SetMetrics(reg)
	srv, err := serve.New(serve.Config{
		Net:         "vgg16",
		Builder:     func(b int) (*graph.Graph, error) { return graph.ByName("vgg16", b) },
		MaxBatch:    8,
		Buckets:     []int{8},
		BatchWindow: time.Millisecond,
		Workers:     workers,
		Library:     lib,
		Metrics:     reg,
		Observer:    sess.Observer,
	})
	if err != nil {
		return nil, fmt.Errorf("bench vgg16-serve-b8: %w", err)
	}
	start := time.Now()
	secs, err := srv.Warmup(context.Background())
	if err != nil {
		return nil, fmt.Errorf("bench vgg16-serve-b8: warmup: %w", err)
	}
	wall := time.Since(start).Seconds()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return nil, fmt.Errorf("bench vgg16-serve-b8: %w", err)
	}
	sec := secs[8]
	g, err := graph.ByName("vgg16", 8)
	if err != nil {
		return nil, fmt.Errorf("bench vgg16-serve-b8: %w", err)
	}
	return &bench.Workload{
		Name:             "vgg16-serve-b8",
		MachineSeconds:   sec,
		WallSeconds:      wall,
		Candidates:       reg.Counter("autotune_candidates_total").Value(),
		GFLOPS:           float64(g.FLOPs()) / sec / 1e9,
		ExecSeconds:      sec,
		InferencesPerSec: 8 / sec, // batch over machine seconds, like the fleet rows
	}, nil
}
