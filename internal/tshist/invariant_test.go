package tshist_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"swatop"
	"swatop/internal/tshist"
)

// runTuned tunes a fixed small GEMM with or without a history scraper
// storming the registry, and returns the selected strategy, the simulated
// seconds, and the deterministic part of the metrics snapshot as JSON —
// the same probe TestObserverChangesNoResult uses for observers.
func runTuned(t *testing.T, withHistory bool) (string, float64, []byte) {
	t.Helper()
	tn, err := swatop.NewTuner()
	if err != nil {
		t.Fatal(err)
	}
	tn.SetWorkers(4)
	reg := swatop.NewMetricsRegistry()
	tn.SetMetrics(reg)
	if withHistory {
		// A deliberately hostile scrape interval: snapshot the registry as
		// often as the scheduler allows while tuning runs.
		store := tshist.New(tshist.Options{})
		sc := tshist.NewScraper(store, reg, time.Microsecond)
		sc.Start()
		defer func() {
			sc.Stop()
			if sc.Scrapes() < 2 {
				t.Fatalf("scraper barely ran (%d scrapes); invariant not exercised", sc.Scrapes())
			}
			if _, ok := store.Query("autotune_candidates_total", 0); !ok {
				t.Fatal("history store empty after tuning")
			}
		}()
	}
	tuned, err := tn.TuneGemm(swatop.GemmParams{M: 256, N: 256, K: 256})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	// Host wall clocks and retry backoff are the only legitimately
	// nondeterministic metrics; everything else must match bit for bit.
	for name := range snap.Gauges {
		if strings.Contains(name, "wall_seconds") || strings.Contains(name, "backoff_seconds") {
			delete(snap.Gauges, name)
		}
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return tuned.Strategy(), tuned.Seconds(), buf.Bytes()
}

// TestHistoryMachineSecondsInvariant is the tentpole's cardinal
// invariant, gated by `make obs-check`: a scraper snapshotting the
// registry as fast as it can changes neither the selected schedule, nor
// the simulated machine seconds, nor any deterministic metric — history
// on and off are bit-identical.
func TestHistoryMachineSecondsInvariant(t *testing.T) {
	baseStrategy, baseSeconds, baseSnap := runTuned(t, false)
	strategy, seconds, snap := runTuned(t, true)
	if strategy != baseStrategy {
		t.Fatalf("history scraper changed the schedule:\n  %s\nvs\n  %s", strategy, baseStrategy)
	}
	if seconds != baseSeconds {
		t.Fatalf("history scraper changed simulated seconds: %v vs %v", seconds, baseSeconds)
	}
	if !bytes.Equal(snap, baseSnap) {
		t.Fatalf("history scraper changed the metrics snapshot:\n%s\nvs\n%s", snap, baseSnap)
	}
}
