package tshist

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"swatop/internal/metrics"
)

// testClock is a deterministic time source: each call advances by step.
type testClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.t
	c.t = c.t.Add(c.step)
	return now
}

func TestScrapeOnceIngests(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("requests").Add(7)
	reg.Gauge("depth").Set(3.5)
	reg.Histogram("lat", 1, 10).Observe(0.5)

	s := New(Options{})
	sc := NewScraper(s, reg, time.Second)
	clock := &testClock{t: time.Unix(100, 0), step: time.Second}
	sc.SetClock(clock.Now)

	sc.ScrapeOnce()
	reg.Counter("requests").Add(3)
	sc.ScrapeOnce()

	if got := sc.Scrapes(); got != 2 {
		t.Fatalf("scrapes = %d, want 2", got)
	}
	q, ok := s.Query("requests", 0)
	if !ok {
		t.Fatal("requests series missing after scrape")
	}
	if q.Last != 10 {
		t.Fatalf("requests last = %v, want 10", q.Last)
	}
	if _, ok := s.Query("depth", 0); !ok {
		t.Fatal("depth series missing after scrape")
	}
	if q, ok := s.Query("lat", 0); !ok || q.Count != 1 {
		t.Fatalf("lat count = %d (ok=%v), want 1", q.Count, ok)
	}
}

func TestScraperStartStop(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("ticks").Inc()

	s := New(Options{})
	sc := NewScraper(s, reg, time.Millisecond)
	sc.Start()
	sc.Start() // idempotent

	deadline := time.After(2 * time.Second)
	for sc.Scrapes() < 3 {
		select {
		case <-deadline:
			t.Fatalf("scraper took too long: %d scrapes", sc.Scrapes())
		case <-time.After(time.Millisecond):
		}
	}
	sc.Stop()
	sc.Stop() // idempotent

	// Stop takes a final scrape, so the count must be settled now.
	after := sc.Scrapes()
	time.Sleep(5 * time.Millisecond)
	if got := sc.Scrapes(); got != after {
		t.Fatalf("scrapes moved after Stop: %d -> %d", after, got)
	}
	if _, ok := s.Query("ticks", 0); !ok {
		t.Fatal("ticks series missing")
	}
}

func TestScraperStopBeforeStart(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("x").Inc()
	s := New(Options{})
	sc := NewScraper(s, reg, time.Millisecond)

	sc.Stop()  // must not hang waiting for a goroutine that never ran
	sc.Start() // disarmed by Stop: must not launch the loop

	if got := sc.Scrapes(); got != 1 {
		t.Fatalf("scrapes = %d, want exactly the final Stop scrape", got)
	}
}

func TestScraperNil(t *testing.T) {
	var sc *Scraper
	sc.Start()
	sc.ScrapeOnce()
	sc.Stop()
	if sc.Scrapes() != 0 {
		t.Fatal("nil scraper reported scrapes")
	}
}

// TestConcurrentScrapeWhileWrite hammers a registry with writers — on the
// root namespace and on group-prefixed scopes — while a scraper snapshots
// it and readers query the store. Run under -race this is the satellite
// gate for scrape-while-write safety.
func TestConcurrentScrapeWhileWrite(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(Options{})
	sc := NewScraper(s, reg, time.Millisecond)
	sc.Start()
	defer sc.Stop()

	const iters = 500
	var wg sync.WaitGroup

	// Root-namespace writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			reg.Counter("requests_total").Inc()
			reg.Gauge("queue_depth").Set(float64(i))
			reg.Histogram("latency_seconds", 0.001, 0.01, 0.1).Observe(float64(i) / 1000)
		}
	}()

	// Group-prefixed writers, one per scope, as the fleet publishes them.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scope := reg.Scope(fmt.Sprintf("group%d_", g))
			for i := 0; i < iters; i++ {
				scope.Gauge("machine_compute_seconds").Add(0.001)
				scope.Gauge("machine_stall_seconds").Add(0.0002)
				scope.Counter("layers_total").Inc()
			}
		}(g)
	}

	// Concurrent readers: explicit scrapes, store queries, utilization.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/10; i++ {
			sc.ScrapeOnce()
			s.Query("requests_total", time.Minute)
			s.Query("latency_seconds", time.Minute)
			s.FleetUtilization(time.Minute)
			s.Series()
		}
	}()

	wg.Wait()
	sc.ScrapeOnce()

	q, ok := s.Query("requests_total", 0)
	if !ok || q.Last != iters {
		t.Fatalf("requests_total last = %v (ok=%v), want %d", q.Last, ok, iters)
	}
	for g := 0; g < 3; g++ {
		name := fmt.Sprintf("group%d_layers_total", g)
		if q, ok := s.Query(name, 0); !ok || q.Last != iters {
			t.Fatalf("%s last = %v (ok=%v), want %d", name, q.Last, ok, iters)
		}
	}
}

// TestConcurrentRegistrySnapshot races Snapshot against writers directly
// (no store in the loop) — the registry-level half of the guarantee,
// including a group-prefixed scope view.
func TestConcurrentRegistrySnapshot(t *testing.T) {
	reg := metrics.NewRegistry()
	scope := reg.Scope("group0_")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			reg.Counter("writes").Inc()
			scope.Histogram("lat", 1, 10).Observe(float64(i % 20))
			scope.Gauge("depth").Set(float64(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			snap := reg.Snapshot()
			// A snapshot must be internally consistent enough to read.
			for name, h := range snap.Histograms {
				var sum int64
				for _, c := range h.Counts {
					sum += c
				}
				if sum != h.Count {
					t.Errorf("%s: bucket sum %d != count %d", name, sum, h.Count)
					return
				}
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}
