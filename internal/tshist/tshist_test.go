package tshist

import (
	"math"
	"testing"
	"time"

	"swatop/internal/metrics"
)

// at is a synthetic clock: seconds since an arbitrary epoch.
func at(sec float64) time.Time {
	return time.UnixMilli(int64(sec * 1000))
}

// counterSnap builds a snapshot holding one counter.
func counterSnap(name string, v int64) metrics.Snapshot {
	return metrics.Snapshot{Counters: map[string]int64{name: v}}
}

// TestCounterWindowedRate is the acceptance case: a counter growing 5/s,
// scraped once per second; /varz-style Query over a 60s window must
// report delta 300 and rate 5/s exactly.
func TestCounterWindowedRate(t *testing.T) {
	s := New(Options{})
	for sec := 0; sec <= 120; sec++ {
		s.Ingest(at(float64(sec)), counterSnap("reqs_total", int64(5*sec)))
	}
	q, ok := s.Query("reqs_total", 60*time.Second)
	if !ok {
		t.Fatal("series not found")
	}
	if q.Kind != KindCounter {
		t.Fatalf("kind = %q", q.Kind)
	}
	if q.Delta != 300 {
		t.Fatalf("delta = %v, want 300", q.Delta)
	}
	if q.Rate != 5 {
		t.Fatalf("rate = %v, want 5", q.Rate)
	}
	if len(q.Points) != 61 {
		t.Fatalf("points in window = %d, want 61", len(q.Points))
	}
}

// TestCounterReset: a counter that resets inside the window reports what
// accumulated since the reset, never a negative rate.
func TestCounterReset(t *testing.T) {
	s := New(Options{})
	s.Ingest(at(0), counterSnap("c", 1000))
	s.Ingest(at(10), counterSnap("c", 0)) // process restart
	s.Ingest(at(20), counterSnap("c", 40))
	q, _ := s.Query("c", time.Minute)
	if q.Delta != 40 {
		t.Fatalf("delta after reset = %v, want 40", q.Delta)
	}
	if q.Rate < 0 {
		t.Fatalf("negative rate %v after reset", q.Rate)
	}
}

// histSnap builds a snapshot holding one histogram with the given
// cumulative bucket counts.
func histSnap(name string, bounds []float64, counts []int64, sum float64) metrics.Snapshot {
	var total int64
	for _, c := range counts {
		total += c
	}
	return metrics.Snapshot{Histograms: map[string]metrics.HistogramSnapshot{
		name: {Count: total, Sum: sum, Bounds: bounds, Counts: counts},
	}}
}

// TestHistogramWindowedP99 is the acceptance case: cumulative bucket
// counts scraped over time; the windowed p50/p99 must come from the
// bucket deltas inside the window only — history before the window (1000
// old observations in the lowest bucket) must not drag the percentile
// down.
func TestHistogramWindowedP99(t *testing.T) {
	bounds := []float64{1, 10, 100}
	s := New(Options{})
	// Before the window: 1000 observations, all <= 1.
	s.Ingest(at(0), histSnap("lat", bounds, []int64{1000, 0, 0, 0}, 500))
	// Window start (t=60 queried at t=120 with window 60s).
	s.Ingest(at(60), histSnap("lat", bounds, []int64{1000, 0, 0, 0}, 500))
	// Inside the window: +98 obs <=1, +1 obs <=10, +1 obs <=100.
	s.Ingest(at(120), histSnap("lat", bounds, []int64{1098, 1, 1, 0}, 600))

	q, ok := s.Query("lat", 60*time.Second)
	if !ok {
		t.Fatal("series not found")
	}
	if q.Count != 100 {
		t.Fatalf("windowed count = %d, want 100", q.Count)
	}
	if math.Abs(q.Sum-100) > 1e-12 {
		t.Fatalf("windowed sum = %v, want 100", q.Sum)
	}
	if q.P50 != 1 {
		t.Fatalf("windowed p50 = %v, want 1", q.P50)
	}
	if q.P90 != 1 {
		t.Fatalf("windowed p90 = %v, want 1", q.P90)
	}
	if q.P99 != 10 {
		t.Fatalf("windowed p99 = %v, want 10", q.P99)
	}

	// The full-history view (window = everything) is dominated by the old
	// observations: p99 collapses back into the lowest bucket.
	q, _ = s.Query("lat", 0)
	if q.Count != 1100 {
		t.Fatalf("full count = %d, want 1100", q.Count)
	}
	if q.P99 != 1 {
		t.Fatalf("full-history p99 = %v, want 1", q.P99)
	}
}

// TestHistogramOverflowClamp: ranks landing in the +Inf bucket clamp to
// the largest finite bound.
func TestHistogramOverflowClamp(t *testing.T) {
	bounds := []float64{1, 10}
	s := New(Options{})
	s.Ingest(at(0), histSnap("h", bounds, []int64{0, 0, 0}, 0))
	s.Ingest(at(10), histSnap("h", bounds, []int64{0, 0, 50}, 5000))
	q, _ := s.Query("h", time.Minute)
	if q.P99 != 10 {
		t.Fatalf("overflow p99 = %v, want clamp to 10", q.P99)
	}
}

// TestRingWraparound: a capacity-4 store retains only the newest 4
// snapshots, oldest evicted first, order preserved.
func TestRingWraparound(t *testing.T) {
	s := New(Options{Capacity: 4})
	for sec := 0; sec < 10; sec++ {
		s.Ingest(at(float64(sec)), counterSnap("c", int64(sec)))
	}
	q, _ := s.Query("c", 0)
	if len(q.Points) != 4 {
		t.Fatalf("retained %d points, want 4", len(q.Points))
	}
	for i, p := range q.Points {
		want := int64((6 + i) * 1000)
		if p.T != want {
			t.Fatalf("point %d at T=%d, want %d", i, p.T, want)
		}
	}
	if q.Points[3].V != 9 {
		t.Fatalf("newest value = %v, want 9", q.Points[3].V)
	}
}

// TestOutOfOrderDrop: a snapshot older than the newest retained one is
// dropped rather than corrupting the ring order.
func TestOutOfOrderDrop(t *testing.T) {
	s := New(Options{})
	s.Ingest(at(10), counterSnap("c", 10))
	s.Ingest(at(5), counterSnap("c", 99)) // stale: dropped
	s.Ingest(at(11), counterSnap("c", 11))
	q, _ := s.Query("c", 0)
	if len(q.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(q.Points))
	}
	if q.Points[0].V != 10 || q.Points[1].V != 11 {
		t.Fatalf("points = %+v", q.Points)
	}
}

// TestStoreBounded: ten times the capacity in ingests retains exactly
// Capacity snapshots — the newest ones — and Series still lists every name.
func TestStoreBounded(t *testing.T) {
	s := New(Options{Capacity: 8})
	for sec := 0; sec < 80; sec++ {
		s.Ingest(at(float64(sec)), metrics.Snapshot{
			Counters:   map[string]int64{"c": int64(sec)},
			Gauges:     map[string]float64{"g": float64(sec)},
			Histograms: map[string]metrics.HistogramSnapshot{"h": {Count: int64(sec)}},
		})
	}
	if _, n := s.LastIngest(); n != 80 {
		t.Fatalf("ingests = %d, want 80", n)
	}
	for _, name := range []string{"c", "g", "h"} {
		q, ok := s.Query(name, 0)
		if !ok || len(q.Points) != 8 || q.Points[0].T != 72_000 || q.Points[7].V != 79 {
			t.Fatalf("%s: retained %+v (ok=%v), want the 8 newest", name, q.Points, ok)
		}
	}
	series := s.Series()
	if len(series) != 3 || series[0].Name != "c" || series[1].Name != "g" || series[2].Name != "h" {
		t.Fatalf("series = %+v, want c, g, h", series)
	}
}

// TestQueryWindowBeyondRetentionClamps: a window longer than capacity x
// scrape interval is answered from what is retained, like the lifetime
// view but as a windowed delta.
func TestQueryWindowBeyondRetentionClamps(t *testing.T) {
	s := New(Options{Capacity: 10})
	for sec := 0; sec < 100; sec++ {
		s.Ingest(at(float64(sec)), counterSnap("c", int64(5*sec)))
	}
	q, ok := s.Query("c", 24*time.Hour)
	if !ok || len(q.Points) != 10 {
		t.Fatalf("points = %d (ok=%v), want the 10 retained", len(q.Points), ok)
	}
	if q.Delta != 45 || q.Rate != 5 {
		t.Fatalf("delta/rate = %v/%v, want 45/5 over the retained 9 s", q.Delta, q.Rate)
	}
}

// TestSeriesBornInsideWindow: a series first scraped midway through the
// window is summarized from its first sample, not from a phantom zero.
func TestSeriesBornInsideWindow(t *testing.T) {
	s := New(Options{})
	s.Ingest(at(0), counterSnap("old", 1))
	s.Ingest(at(10), metrics.Snapshot{Counters: map[string]int64{"old": 2, "young": 100}})
	s.Ingest(at(20), metrics.Snapshot{Counters: map[string]int64{"old": 3, "young": 130}})
	q, ok := s.Query("young", time.Minute)
	if !ok || len(q.Points) != 2 || q.Delta != 30 || q.Rate != 3 || q.Min != 100 {
		t.Fatalf("young = %+v (ok=%v), want 2 points, delta 30, rate 3, min 100", q, ok)
	}
}

// TestFleetUtilization: per-group machine gauges plus the aggregate comm
// gauge yield one utilization row per group and a fleet row.
func TestFleetUtilization(t *testing.T) {
	s := New(Options{})
	snapAt := func(scale float64) metrics.Snapshot {
		return metrics.Snapshot{Gauges: map[string]float64{
			"machine_compute_seconds":        8 * scale,
			"machine_stall_seconds":          2 * scale,
			"infer_comm_seconds":             1 * scale,
			"group0_machine_compute_seconds": 5 * scale,
			"group0_machine_stall_seconds":   1 * scale,
			"group1_machine_compute_seconds": 3 * scale,
			"group1_machine_stall_seconds":   1 * scale,
		}}
	}
	s.Ingest(at(0), snapAt(1))
	s.Ingest(at(30), snapAt(2)) // every cumulative gauge doubles

	util := s.FleetUtilization(time.Minute)
	if len(util) != 3 {
		t.Fatalf("groups = %d (%+v), want 3", len(util), util)
	}
	if util[0].Group != "fleet" || util[1].Group != "group0" || util[2].Group != "group1" {
		t.Fatalf("group order = %+v", util)
	}
	fleet := util[0]
	if fleet.ComputeSeconds != 8 || fleet.StallSeconds != 2 || fleet.CommSeconds != 1 {
		t.Fatalf("fleet deltas = %+v", fleet)
	}
	if math.Abs(fleet.Utilization-8.0/11.0) > 1e-12 {
		t.Fatalf("fleet utilization = %v", fleet.Utilization)
	}
	g0 := util[1]
	if g0.ComputeSeconds != 5 || g0.StallSeconds != 1 || g0.CommSeconds != 0 {
		t.Fatalf("group0 deltas = %+v", g0)
	}
}

// TestSplitGroupPrefix covers the group-name parser's edges.
func TestSplitGroupPrefix(t *testing.T) {
	cases := []struct{ in, prefix, rest string }{
		{"group0_machine_compute_seconds", "group0_", "machine_compute_seconds"},
		{"group12_x", "group12_", "x"},
		{"machine_compute_seconds", "", "machine_compute_seconds"},
		{"group_x", "", "group_x"},     // no digits
		{"group7", "", "group7"},       // no underscore
		{"groups0_x", "", "groups0_x"}, // digit run must follow "group"
	}
	for _, tc := range cases {
		p, r := splitGroupPrefix(tc.in)
		if p != tc.prefix || r != tc.rest {
			t.Fatalf("splitGroupPrefix(%q) = (%q, %q), want (%q, %q)",
				tc.in, p, r, tc.prefix, tc.rest)
		}
	}
}

// TestNilStore: every entry point tolerates a nil store.
func TestNilStore(t *testing.T) {
	var s *Store
	s.Ingest(at(0), metrics.Snapshot{})
	if _, ok := s.Query("x", time.Minute); ok {
		t.Fatal("nil store answered a query")
	}
	if s.Series() != nil || s.FleetUtilization(time.Minute) != nil {
		t.Fatal("nil store returned data")
	}
	if _, n := s.LastIngest(); n != 0 {
		t.Fatal("nil store counted ingests")
	}
}
