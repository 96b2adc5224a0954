package main

import (
	"fmt"
	"os"
	"time"

	"swatop"
	"swatop/internal/autotune"
	"swatop/internal/cliobs"
	"swatop/internal/conv"
	"swatop/internal/experiments"
	"swatop/internal/workloads"
)

// searchCheckSlowdownPct is the quality gate: the evolutionary searcher's
// chosen schedule may be at most this much slower (simulated machine
// seconds) than the exhaustive walk's, on every layer.
const searchCheckSlowdownPct = 5.0

// searchCheckCoveragePct caps the sample budget the gate certifies: across
// the whole conv set the searcher must measure at most this fraction of
// the candidate space.
const searchCheckCoveragePct = 10.0

// searchCheckCmd implements -search-check: tune the unique VGG16 batch-1
// convolution shapes twice — the exhaustive walk and the evolutionary
// searcher at a 0.10 budget — and fail if the searcher's schedule is >5%
// slower on any layer or its aggregate coverage exceeds 10% of the space.
// This is the CI gate that keeps sample-efficient search honest. Both sides
// take the session's fitted model and worker budget, and nothing else of
// its options.
func searchCheckCmd(sess *cliobs.Session, r *experiments.Runner) int {
	exhaustive := &experiments.Runner{Model: r.Model,
		Options: autotune.Options{Workers: r.Options.Workers, Observer: sess.Observer}}
	evo := &experiments.Runner{Model: r.Model, Options: exhaustive.Options}
	evo.Options.Searcher = swatop.NewEvoSearcher()
	evo.Options.SearchBudget = autotune.DefaultSearchBudget

	// Unique shapes only: VGG16 repeats conv3_2/3_3 etc.; tuning a
	// duplicate shape proves nothing the first instance didn't.
	var layers []workloads.ConvLayer
	seen := map[string]bool{}
	for _, l := range workloads.VGG16() {
		key := fmt.Sprintf("%dx%dx%dx%d", l.Ni, l.No, l.R, l.K)
		if seen[key] {
			continue
		}
		seen[key] = true
		layers = append(layers, l)
	}

	fmt.Printf("search-check: %d unique VGG16 conv shapes, evo budget %.0f%%, gate %.0f%% slowdown\n",
		len(layers), autotune.DefaultSearchBudget*100, searchCheckSlowdownPct)
	start := time.Now()
	var failures int
	var spaceTotal, measuredTotal int
	for _, l := range layers {
		shape := l.Shape(1)
		// conv1_1's Ni=3 is below the implicit method's channel minimum;
		// tune it the way the inference path lowers it, via explicit im2col.
		method := "implicit"
		if shape.Ni < conv.MinNiImplicit {
			method = "explicit"
		}
		if sess.Context().Err() != nil {
			fmt.Fprintln(os.Stderr, "swbench: draining, search-check aborted")
			return 1
		}
		op, err := conv.NewOp(method, shape)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swbench: %s: %v\n", l, err)
			return 1
		}
		base, err := exhaustive.Tune(sess.Context(), op, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swbench: %s exhaustive: %v\n", l, err)
			return 1
		}
		got, err := evo.Tune(sess.Context(), op, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swbench: %s evo: %v\n", l, err)
			return 1
		}
		spaceTotal += got.SpaceSize
		measuredTotal += got.Measured
		slowdown := 100 * (got.Best.Measured - base.Best.Measured) / base.Best.Measured
		status := "ok"
		if slowdown > searchCheckSlowdownPct {
			status = "FAIL"
			failures++
		}
		fmt.Printf("  %-16s exhaustive %.4gms  evo %.4gms (%+.2f%%)  %d/%d measured  %s\n",
			l.Name, base.Best.Measured*1e3, got.Best.Measured*1e3, slowdown,
			got.Measured, got.SpaceSize, status)
	}
	coverage := 100 * float64(measuredTotal) / float64(spaceTotal)
	fmt.Printf("search-check: coverage %.1f%% of %d candidates, %d/%d layers within %.0f%% (%s)\n",
		coverage, spaceTotal, len(layers)-failures, len(layers),
		searchCheckSlowdownPct, time.Since(start).Round(time.Millisecond))
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "swbench: search-check FAILED: %d layer(s) beyond the %.0f%% gate\n",
			failures, searchCheckSlowdownPct)
		return 1
	}
	if coverage > searchCheckCoveragePct {
		fmt.Fprintf(os.Stderr, "swbench: search-check FAILED: coverage %.1f%% exceeds %.0f%%\n",
			coverage, searchCheckCoveragePct)
		return 1
	}
	fmt.Println("search-check: PASS")
	return 0
}
