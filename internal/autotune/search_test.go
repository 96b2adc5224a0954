package autotune

import (
	"context"
	"testing"

	"swatop/internal/cache"
	"swatop/internal/dsl"
	"swatop/internal/gemm"
	"swatop/internal/search"
)

// searchLedger bundles what the determinism contract pins: the chosen
// schedule and the measured-candidate accounting.
type searchLedger struct {
	strategy string
	measured float64
	machine  float64
	rounds   int
	count    int
}

func tuneWithSearcher(t *testing.T, s search.Searcher, workers int, seed uint64) (Result, searchLedger) {
	t.Helper()
	op, err := gemm.NewOp(gemm.Params{M: 512, N: 512, K: 512})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ModelBasedCtx(context.Background(), op, model(t), Options{
		Workers:      workers,
		Searcher:     s,
		SearchSeed:   seed,
		SearchBudget: 0.10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, searchLedger{
		strategy: res.Best.Strategy.String(),
		measured: res.Best.Measured,
		machine:  res.MachineSeconds,
		rounds:   res.Rounds,
		count:    res.Measured,
	}
}

// TestEvoSearcherWorkerCountInvariance is the determinism contract: given
// (seed, budget), the chosen schedule, its measured seconds, the machine-
// seconds ledger and the round count are bit-identical at 1 and 4 workers.
func TestEvoSearcherWorkerCountInvariance(t *testing.T) {
	_, seq := tuneWithSearcher(t, &search.Evolutionary{}, 1, 7)
	for _, w := range []int{2, 4} {
		_, par := tuneWithSearcher(t, &search.Evolutionary{}, w, 7)
		if seq != par {
			t.Fatalf("workers=%d diverged:\nseq %+v\npar %+v", w, seq, par)
		}
	}
}

// TestSearcherRespectsBudget: the searcher must measure at most the budget
// fraction of the space (plus nothing — the floor only applies to tiny
// spaces) and still land within 5% of the exhaustive walk's machine-second
// quality on this GEMM.
func TestSearcherRespectsBudget(t *testing.T) {
	res, _ := tuneWithSearcher(t, &search.Evolutionary{}, 4, 7)
	budget := search.BudgetFor(0.10, res.SpaceSize)
	if res.Measured > budget {
		t.Fatalf("measured %d > budget %d (space %d)", res.Measured, budget, res.SpaceSize)
	}
	if res.Measured == 0 || res.Proposed < res.Measured {
		t.Fatalf("accounting wrong: proposed %d measured %d", res.Proposed, res.Measured)
	}

	op, err := gemm.NewOp(gemm.Params{M: 512, N: 512, K: 512})
	if err != nil {
		t.Fatal(err)
	}
	exh, err := ModelBasedCtx(context.Background(), op, model(t), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Measured > exh.Best.Measured*1.05 {
		t.Fatalf("evo schedule %.6g s is >5%% slower than exhaustive %.6g s",
			res.Best.Measured, exh.Best.Measured)
	}
	t.Logf("evo: %.6g s with %d/%d measured; exhaustive: %.6g s",
		res.Best.Measured, res.Measured, res.SpaceSize, exh.Best.Measured)
}

// TestSearcherDefaultPathUntouched: without a Searcher the exhaustive walk
// must behave exactly as before — same schedule, same ledger.
func TestSearcherDefaultPathUntouched(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 256, N: 256, K: 256})
	a, err := ModelBasedCtx(context.Background(), op, model(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Proposed != 0 || a.Measured != 0 || a.Rounds != 0 || a.Converged {
		t.Fatalf("exhaustive result carries searcher stats: %+v", a)
	}
}

// TestTransferSeedsFromLibrary: a cached neighbor's winner seeds the
// search; a Degraded neighbor must not.
func TestTransferSeedsFromLibrary(t *testing.T) {
	lib := cache.NewLibrary()
	// A neighbor shape of the same family with a plausible strategy.
	lib.Put(cache.FromStrategy("gemm_256x256x256", dsl.Strategy{
		Factors: map[string]int{"m": 64, "n": 64, "k": 128},
		Order:   []string{"m", "n", "k"},
	}, 0.001, 100))
	op, err := gemm.NewOp(gemm.Params{M: 512, N: 512, K: 512})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ModelBasedCtx(context.Background(), op, model(t), Options{
		Workers:    2,
		Searcher:   &search.Evolutionary{},
		SearchSeed: 7,
		Transfer:   lib,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Measured <= 0 {
		t.Fatal("no result with transfer seeding")
	}

	// Degraded entries are invisible to Nearest, so seeding them changes
	// nothing relative to an empty library.
	degraded := cache.NewLibrary()
	e := cache.FromStrategy("gemm_256x256x256", dsl.Strategy{
		Factors: map[string]int{"m": 64, "n": 64, "k": 128},
	}, 0.001, 100)
	e.Degraded = true
	degraded.Put(e)
	if n := degraded.Nearest("gemm_512x512x512", 3); len(n) != 0 {
		t.Fatalf("degraded entry offered as transfer seed: %v", n)
	}
}

// TestSearcherTinyBudget: a near-zero budget fraction clamps to the
// measurement floor and the searcher still terminates with a valid best.
func TestSearcherTinyBudget(t *testing.T) {
	op, err := gemm.NewOp(gemm.Params{M: 512, N: 512, K: 512})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ModelBasedCtx(context.Background(), op, model(t), Options{
		Searcher:     &search.Evolutionary{},
		SearchSeed:   1,
		SearchBudget: 0.0001, // clamps to the measurement floor
	})
	if err != nil {
		t.Fatal(err)
	}
	want := search.BudgetFor(0.0001, res.SpaceSize)
	if res.Measured > want {
		t.Fatalf("floor budget violated: measured %d > %d", res.Measured, want)
	}
	if res.Best.Measured <= 0 {
		t.Fatalf("no valid best under tiny budget: %+v", res.Best)
	}
}
