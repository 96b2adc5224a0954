package metrics_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"swatop/internal/metrics"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := metrics.NewRegistry()
	c := r.Counter("hits_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("hits_total") != c {
		t.Fatal("second lookup must return the same counter")
	}

	g := r.Gauge("depth")
	g.Set(2.5)
	g.Add(0.5)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %g, want 3", got)
	}
	g.Max(2)
	if g.Value() != 3 {
		t.Fatal("Max must not lower the gauge")
	}
	g.Max(7)
	if g.Value() != 7 {
		t.Fatal("Max must raise the gauge")
	}

	h := r.Histogram("lat_seconds", 0.1, 1, 10)
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("hist count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-105.65) > 1e-9 {
		t.Fatalf("hist sum = %g, want 105.65", h.Sum())
	}
	s := r.Snapshot()
	hs := s.Histograms["lat_seconds"]
	// v <= bound lands in that bucket: 0.05 and 0.1 in le=0.1, 0.5 in le=1,
	// 5 in le=10, 100 overflows.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
}

func TestNilRegistryAndMetricsAreInert(t *testing.T) {
	var r *metrics.Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Gauge("y").Add(1)
	r.Gauge("y").Max(1)
	r.Histogram("z").Observe(1)
	if r.Counter("x").Value() != 0 || r.Gauge("y").Value() != 0 || r.Histogram("z").Count() != 0 {
		t.Fatal("nil metrics must read zero")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	if !strings.Contains(s.Table(), "no metrics") {
		t.Fatal("empty table should say so")
	}
}

func TestSnapshotJSONRoundTripAndDeterminism(t *testing.T) {
	r := metrics.NewRegistry()
	r.Counter("b_total").Add(2)
	r.Counter("a_total").Add(1)
	r.Gauge("ratio").Set(0.75)
	r.Histogram("t", 1, 10).Observe(3)

	var buf1, buf2 bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Fatal("snapshot JSON must be deterministic")
	}
	var back metrics.Snapshot
	if err := json.Unmarshal(buf1.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a_total"] != 1 || back.Counters["b_total"] != 2 || back.Gauges["ratio"] != 0.75 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Histograms["t"].Count != 1 {
		t.Fatalf("round trip lost histogram: %+v", back.Histograms)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := metrics.NewRegistry()
	r.Counter("cache.hits-total").Add(3) // name needs sanitizing
	r.Gauge("ratio").Set(0.5)
	h := r.Histogram("lat", 1, 10)
	h.Observe(0.5)
	h.Observe(20)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE cache_hits_total counter",
		"cache_hits_total 3",
		"# TYPE ratio gauge",
		"ratio 0.5",
		"# TYPE lat histogram",
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="10"} 1`,
		`lat_bucket{le="+Inf"} 2`,
		"lat_sum 20.5",
		"lat_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryRaceStress hammers one registry from many goroutines — the
// dedicated -race stress test for the metrics layer. Correctness of the
// final values doubles as a lost-update check on the CAS paths.
func TestRegistryRaceStress(t *testing.T) {
	r := metrics.NewRegistry()
	const workers = 16
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("c").Inc()
				r.Gauge("sum").Add(1)
				r.Gauge("max").Max(float64(w*iters + i))
				r.Histogram("h", 0.5).Observe(float64(i % 2))
				if i%128 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := r.Gauge("sum").Value(); got != workers*iters {
		t.Fatalf("gauge sum = %g, want %d (lost CAS update)", got, workers*iters)
	}
	if got := r.Gauge("max").Value(); got != workers*iters-1 {
		t.Fatalf("gauge max = %g, want %d", got, workers*iters-1)
	}
	h := r.Histogram("h")
	if h.Count() != workers*iters {
		t.Fatalf("hist count = %d, want %d", h.Count(), workers*iters)
	}
	if h.Sum() != workers*iters/2 {
		t.Fatalf("hist sum = %g, want %d", h.Sum(), workers*iters/2)
	}
}

// TestScope: scoped views write prefixed names into the root's storage,
// nested scopes concatenate, snapshots of a view filter to its prefix, and
// nil/empty scoping stays inert.
func TestScope(t *testing.T) {
	root := metrics.NewRegistry()
	g0 := root.Scope("group0_")
	g1 := root.Scope("group1_")

	g0.Counter("dma_ops").Add(3)
	g1.Counter("dma_ops").Add(5)
	root.Counter("dma_ops").Inc()
	g0.Gauge("seconds").Set(1.5)
	g1.Gauge("seconds").Set(2.5)
	g0.Histogram("lat", 1, 10).Observe(0.5)

	// Same underlying metric through view and root.
	if g0.Counter("dma_ops") != root.Counter("group0_dma_ops") {
		t.Fatal("scoped counter is not the root's prefixed counter")
	}
	s := root.Snapshot()
	if s.Counters["group0_dma_ops"] != 3 || s.Counters["group1_dma_ops"] != 5 || s.Counters["dma_ops"] != 1 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if s.Gauges["group0_seconds"] != 1.5 || s.Gauges["group1_seconds"] != 2.5 {
		t.Fatalf("gauges = %v", s.Gauges)
	}

	// A view's snapshot contains only its own prefix, under full names.
	vs := g0.Snapshot()
	if len(vs.Counters) != 1 || vs.Counters["group0_dma_ops"] != 3 {
		t.Fatalf("view counters = %v", vs.Counters)
	}
	if _, ok := vs.Gauges["group1_seconds"]; ok {
		t.Fatal("view snapshot leaked another scope")
	}
	if _, ok := vs.Histograms["group0_lat"]; !ok {
		t.Fatalf("view histograms = %v", vs.Histograms)
	}

	// Nested scoping concatenates prefixes.
	nested := g0.Scope("infer_")
	nested.Counter("runs").Inc()
	if root.Snapshot().Counters["group0_infer_runs"] != 1 {
		t.Fatal("nested scope did not concatenate prefixes")
	}

	// SetHelp goes through the prefix too.
	g0.SetHelp("seconds", "group zero seconds")
	if root.Snapshot().Help["group0_seconds"] != "group zero seconds" {
		t.Fatal("scoped SetHelp lost the prefix")
	}

	// Inert cases.
	if root.Scope("") != root {
		t.Fatal("empty prefix must return the receiver")
	}
	var nilReg *metrics.Registry
	if nilReg.Scope("x_") != nil {
		t.Fatal("nil registry must scope to nil")
	}
	nilReg.Scope("x_").Counter("c").Inc() // must not panic
}
