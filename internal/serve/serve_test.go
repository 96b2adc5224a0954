package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"swatop/internal/cache"
	"swatop/internal/faults"
	"swatop/internal/graph"
	"swatop/internal/metrics"
	"swatop/internal/obsrv"
	"swatop/internal/workloads"
)

// tinyBuilder mirrors the infer test network: small enough to tune in
// milliseconds, structurally complete (explicit conv head, implicit convs,
// pooled FC tail).
func tinyBuilder(batch int) (*graph.Graph, error) {
	return graph.Chain("tiny", batch,
		[]workloads.ConvLayer{
			{Net: "tiny", Name: "c1", Ni: 3, No: 16, R: 8, K: 3},
			{Net: "tiny", Name: "c2", Ni: 16, No: 16, R: 8, K: 3},
			{Net: "tiny", Name: "c3", Ni: 16, No: 16, R: 4, K: 3},
		},
		[]workloads.FCLayer{
			{Net: "tiny", Name: "f1", In: 16 * 2 * 2, Out: 32},
			{Net: "tiny", Name: "f2", In: 32, Out: 12},
		})
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Builder == nil {
		cfg.Builder = tinyBuilder
	}
	if cfg.Net == "" {
		cfg.Net = "tiny"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s
}

func TestNormalizeBuckets(t *testing.T) {
	cases := []struct {
		in       []int
		maxBatch int
		want     string
		wantErr  bool
	}{
		{nil, 8, "[1 2 4 8]", false},
		{nil, 1, "[1]", false},
		{nil, 6, "[1 2 4 6]", false},
		{[]int{8, 2, 2, 16}, 8, "[2 8]", false},
		{[]int{3}, 8, "[3 8]", false},
		{[]int{0}, 8, "", true},
	}
	for _, c := range cases {
		got, err := normalizeBuckets(c.in, c.maxBatch)
		if c.wantErr {
			if err == nil {
				t.Errorf("normalizeBuckets(%v, %d): want error", c.in, c.maxBatch)
			}
			continue
		}
		if err != nil {
			t.Errorf("normalizeBuckets(%v, %d): %v", c.in, c.maxBatch, err)
			continue
		}
		if fmt.Sprint(got) != c.want {
			t.Errorf("normalizeBuckets(%v, %d) = %v, want %s", c.in, c.maxBatch, got, c.want)
		}
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(2, 1)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("initial state %q", got)
	}
	// One bad batch is not enough.
	b.record(true)
	b.record(false) // a good batch resets the streak
	b.record(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after interrupted streak %q, want closed", got)
	}
	// Two consecutive bad batches trip it.
	if from, to := b.record(true); from != BreakerClosed || to != BreakerOpen {
		t.Fatalf("trip transition (%q, %q)", from, to)
	}
	if b.allowTuning() {
		t.Fatal("open breaker allowed tuning before cooldown")
	}
	// Cooldown elapsed: next batch is a half-open probe.
	if !b.allowTuning() {
		t.Fatal("breaker did not go half-open after cooldown")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state %q, want half-open", got)
	}
	// Failed probe re-opens.
	if from, to := b.record(true); from != BreakerHalfOpen || to != BreakerOpen {
		t.Fatalf("probe-failure transition (%q, %q)", from, to)
	}
	if got := b.Trips(); got != 2 {
		t.Fatalf("trips %d, want 2", got)
	}
	// Cooldown again, successful probe closes.
	b.allowTuning()
	if !b.allowTuning() {
		t.Fatal("breaker did not re-probe")
	}
	if from, to := b.record(false); from != BreakerHalfOpen || to != BreakerClosed {
		t.Fatalf("probe-success transition (%q, %q)", from, to)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state %q, want closed", got)
	}
}

// TestServeWarmupAndSubmit: a warmed server answers from the schedule cache
// (no degraded ops), echoes IDs, and reports consistent latency splits.
func TestServeWarmupAndSubmit(t *testing.T) {
	reg := metrics.NewRegistry()
	s := newServer(t, Config{
		MaxBatch:    4,
		BatchWindow: time.Millisecond,
		Buckets:     []int{1, 4},
		Metrics:     reg,
	})
	warm, err := s.Warmup(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{1, 4} {
		if warm[b] <= 0 {
			t.Fatalf("warmup bucket %d machine seconds %v", b, warm[b])
		}
	}
	resp, err := s.Submit(context.Background(), Request{ID: "r-0"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != "r-0" || resp.Net != "tiny" {
		t.Fatalf("response identity %q/%q", resp.ID, resp.Net)
	}
	if resp.Degraded || resp.DegradedOps != 0 {
		t.Fatalf("warmed response degraded: %+v", resp)
	}
	if resp.TunedOps != 0 || resp.CachedOps == 0 {
		t.Fatalf("warmed response should be all-cached: tuned=%d cached=%d",
			resp.TunedOps, resp.CachedOps)
	}
	if resp.Bucket < resp.Batch || resp.MachineMs <= 0 || resp.PerInferenceMs <= 0 {
		t.Fatalf("response accounting: %+v", resp)
	}
	if resp.LatencyMs < resp.RunMs {
		t.Fatalf("latency %.3fms < run %.3fms", resp.LatencyMs, resp.RunMs)
	}
	if got := reg.Counter("serve_responses_total").Value(); got != 1 {
		t.Fatalf("serve_responses_total = %d", got)
	}
	if got := reg.Counter("serve_degraded_total").Value(); got != 0 {
		t.Fatalf("serve_degraded_total = %d", got)
	}
}

// TestServeCoalescing: concurrent requests inside one batch window must
// coalesce instead of running one-by-one.
func TestServeCoalescing(t *testing.T) {
	reg := metrics.NewRegistry()
	s := newServer(t, Config{
		MaxBatch:    8,
		BatchWindow: 200 * time.Millisecond, // generous: scheduling noise proof
		QueueDepth:  16,
		Metrics:     reg,
	})
	if _, err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	resps := make([]*Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Submit(context.Background(), Request{ID: fmt.Sprintf("r-%d", i)})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			resps[i] = r
		}(i)
	}
	wg.Wait()
	maxBatch := 0
	for _, r := range resps {
		if r != nil && r.Batch > maxBatch {
			maxBatch = r.Batch
		}
	}
	if maxBatch < 2 {
		t.Fatalf("no coalescing: max observed batch %d, want >= 2", maxBatch)
	}
	if got := reg.Counter("serve_responses_total").Value(); got != n {
		t.Fatalf("serve_responses_total = %d, want %d", got, n)
	}
}

// TestServeShedding: with a one-deep queue and a wide burst, some requests
// must be shed immediately — and every request still gets a definite answer.
func TestServeShedding(t *testing.T) {
	reg := metrics.NewRegistry()
	// A builder that sleeps makes every batch take >= 20ms of wall clock, so
	// a simultaneous burst reliably overruns the one-deep queue.
	slowBuilder := func(b int) (*graph.Graph, error) {
		time.Sleep(20 * time.Millisecond)
		return tinyBuilder(b)
	}
	s := newServer(t, Config{
		Builder:     slowBuilder,
		MaxBatch:    1,
		BatchWindow: time.Millisecond,
		QueueDepth:  1,
		Metrics:     reg,
	})
	if _, err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	const n = 64
	var wg sync.WaitGroup
	var ok, shed int64
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Submit(context.Background(), Request{})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, ErrShed):
				shed++
			default:
				t.Errorf("unexpected submit error: %v", err)
			}
		}()
	}
	wg.Wait()
	if ok == 0 || shed == 0 {
		t.Fatalf("burst of %d: ok=%d shed=%d, want both > 0", n, ok, shed)
	}
	if got := reg.Counter("serve_shed_total").Value(); got != shed {
		t.Fatalf("serve_shed_total = %d, want %d", got, shed)
	}
	if got := reg.Counter("serve_admitted_total").Value(); got != ok {
		t.Fatalf("serve_admitted_total = %d, want %d", got, ok)
	}
}

// TestServeDeadlineExpired: a request whose deadline has already passed by
// the time its batch forms is answered ErrDeadline, not executed.
func TestServeDeadlineExpired(t *testing.T) {
	reg := metrics.NewRegistry()
	s := newServer(t, Config{
		MaxBatch:    1,
		BatchWindow: time.Millisecond,
		Metrics:     reg,
	})
	if _, err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(context.Background(), Request{ID: "late", DeadlineMs: 0.0001})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired request: err = %v, want ErrDeadline", err)
	}
	if got := reg.Counter("serve_deadline_expired_total").Value(); got == 0 {
		t.Fatal("serve_deadline_expired_total not incremented")
	}
	// A sane deadline still serves.
	resp, err := s.Submit(context.Background(), Request{ID: "fine", DeadlineMs: 60_000})
	if err != nil {
		t.Fatalf("in-deadline request: %v", err)
	}
	if resp.ID != "fine" {
		t.Fatalf("response id %q", resp.ID)
	}
}

// TestServeBreakerTripsAndRecovers drives the whole degradation state
// machine against real fault injection: sabotaged measurements make every
// tuned batch degrade, the breaker trips, degraded responses are flagged
// and never cached, a failed probe re-opens, and once the faults clear a
// successful probe closes the breaker and tuning resumes.
func TestServeBreakerTripsAndRecovers(t *testing.T) {
	inj := faults.New(1)
	inj.FailEveryNth(faults.Measure, 1, errors.New("injected measurement failure"))
	lib := cache.NewLibrary()
	reg := metrics.NewRegistry()
	s := newServer(t, Config{
		MaxBatch:         1, // one request = one batch: deterministic breaker feed
		BatchWindow:      time.Millisecond,
		Buckets:          []int{1},
		BreakerThreshold: 2,
		BreakerCooldown:  1,
		Library:          lib,
		Faults:           inj,
		Metrics:          reg,
	})

	submit := func(id string) *Response {
		t.Helper()
		r, err := s.Submit(context.Background(), Request{ID: id})
		if err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
		return r
	}

	// Two degraded batches trip the breaker (threshold 2).
	for i := 0; i < 2; i++ {
		r := submit(fmt.Sprintf("bad-%d", i))
		if !r.Degraded || r.DegradedOps == 0 {
			t.Fatalf("faulted batch %d not degraded: %+v", i, r)
		}
	}
	if got := s.breaker.State(); got != BreakerOpen {
		t.Fatalf("breaker %q after %d degraded batches, want open", got, 2)
	}
	// Open state: served degraded without tuning; cooldown 1 means the next
	// batch is degraded and the one after is a (still-faulted) probe that
	// re-opens the breaker.
	if r := submit("open-0"); !r.Degraded {
		t.Fatalf("open-state response not degraded: %+v", r)
	}
	if r := submit("probe-fail"); !r.Degraded {
		t.Fatalf("failed-probe response not degraded: %+v", r)
	}
	if got := s.breaker.State(); got != BreakerOpen {
		t.Fatalf("breaker %q after failed probe, want open", got)
	}
	if got := s.breaker.Trips(); got != 2 {
		t.Fatalf("trips = %d, want 2", got)
	}
	// Degraded schedules must never have entered the cache.
	if got := lib.Len(); got != 0 {
		t.Fatalf("library has %d entries after degraded-only serving, want 0", got)
	}

	// Faults clear: one more degraded batch burns the cooldown, then the
	// probe tunes successfully and closes the breaker.
	inj.Disarm(faults.Measure)
	if r := submit("open-1"); !r.Degraded {
		t.Fatalf("cooldown response not degraded: %+v", r)
	}
	probe := submit("probe-ok")
	if probe.Degraded || probe.TunedOps == 0 {
		t.Fatalf("recovered probe: %+v, want tuned and not degraded", probe)
	}
	if got := s.breaker.State(); got != BreakerClosed {
		t.Fatalf("breaker %q after successful probe, want closed", got)
	}
	if got := lib.Len(); got == 0 {
		t.Fatal("library empty after successful tuned batch")
	}
	// And the next request rides the now-warm cache.
	if r := submit("cached"); r.Degraded || r.CachedOps == 0 {
		t.Fatalf("post-recovery response: %+v, want cached", r)
	}
	if got := reg.Counter("serve_degraded_total").Value(); got != 5 {
		t.Fatalf("serve_degraded_total = %d, want 5", got)
	}
	if trips := reg.Gauge("serve_breaker_trips").Value(); trips != 2 {
		t.Fatalf("serve_breaker_trips gauge = %v, want 2", trips)
	}
}

// TestServeDrain: everything admitted before Drain is served; nothing is
// admitted after.
func TestServeDrain(t *testing.T) {
	reg := metrics.NewRegistry()
	s, err := New(Config{
		Net:         "tiny",
		Builder:     tinyBuilder,
		MaxBatch:    4,
		BatchWindow: 250 * time.Millisecond, // requests sit in the window during Drain
		QueueDepth:  16,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Submit(context.Background(), Request{ID: fmt.Sprintf("d-%d", i)})
		}(i)
	}
	// Wait until all six are admitted (queued or already in a batch window).
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("serve_admitted_total").Value() < n {
		if time.Now().After(deadline) {
			t.Fatal("requests were not admitted in time")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("admitted request %d failed during drain: %v", i, err)
		}
	}
	if got := reg.Counter("serve_responses_total").Value(); got != n {
		t.Fatalf("serve_responses_total = %d, want %d (drain must finish in-flight work)", got, n)
	}
	if !s.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	if _, err := s.Submit(context.Background(), Request{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit err = %v, want ErrDraining", err)
	}
	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestServeSlowSubscriberDeterminism: a wedged SSE-style subscriber must
// not change the simulated machine seconds of the serving path — events are
// dropped, never waited for.
func TestServeSlowSubscriberDeterminism(t *testing.T) {
	warm := func(obs *obsrv.Observer) map[int]float64 {
		t.Helper()
		s := newServer(t, Config{
			MaxBatch: 4,
			Buckets:  []int{1, 4},
			Observer: obs,
		})
		m, err := s.Warmup(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	quiet := warm(nil)

	obs := obsrv.New()
	_, cancel := obs.Subscribe(1) // never read: wedged consumer
	defer cancel()
	noisy := warm(obs)

	for b, want := range quiet {
		if got := noisy[b]; got != want {
			t.Errorf("bucket %d: machine seconds %v with wedged subscriber, want %v", b, got, want)
		}
	}
	if obs.Dropped() == 0 {
		t.Error("wedged subscriber dropped no events — fanout is not exercising the bound")
	}
}
