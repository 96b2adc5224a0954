package experiments

import (
	"testing"

	"swatop/internal/obsrv"
)

// TestExperimentsReachObserver checks that the experiments which tune with
// schedules of their own (Fig. 10's no-prefetch baselines, Fig. 11's
// lightweight-padding winners) tune through the runner's options: each of
// their searches is a job on the observer's tracker and opens with a
// tune.start event in the flight ring.
func TestExperimentsReachObserver(t *testing.T) {
	r, err := NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		id  string
		run func() error
	}{
		{"fig10", func() error { _, err := r.Fig10(); return err }},
		{"fig11", func() error { _, err := r.Fig11(); return err }},
	} {
		// The ring holds every event of either figure (Fig. 11 emits about
		// 28 000, mostly candidate.finish), so no tune.start has fallen off.
		obs := obsrv.NewWithCapacity(1 << 15)
		r.Options.Observer = obs
		if err := e.run(); err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
		jobs := 0
		for _, j := range obs.Jobs().Snapshot() {
			if j.Kind == "tune" {
				jobs++
			}
		}
		starts := 0
		for _, ev := range obs.Flight().Snapshot() {
			if ev.Kind == "tune.start" {
				starts++
			}
		}
		if jobs == 0 || starts == 0 {
			t.Errorf("%s: %d tune jobs on the tracker, %d tune.start events in the flight ring; want both > 0",
				e.id, jobs, starts)
		}
	}
}
