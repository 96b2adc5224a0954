// Package serve is the always-on inference daemon behind cmd/swserve: it
// accepts single-inference HTTP/JSON requests, coalesces them into dynamic
// batches (a batch window and a max-batch knob, with bucket rounding so the
// tuned-schedule cache stays warm over a bounded set of shapes), executes
// the batches on the internal/infer engine — optionally scaled out across
// the core-group fleet — and is robust by construction:
//
//   - Admission control: a bounded queue; when it is full, requests are
//     shed immediately (HTTP 429 + Retry-After) instead of building an
//     unbounded backlog. Overload degrades throughput, never correctness.
//   - Deadlines: each request can carry one; it propagates through context
//     into the engine, expired requests are answered 408, and a batch whose
//     every member has a deadline runs under the latest of them.
//   - Circuit breaker: repeated tuning/measurement failures trip the
//     execution path into the baseline-fallback degraded mode (cached
//     schedules still serve; fresh tuning is skipped) until a probe batch
//     succeeds. Degraded responses are flagged and never enter the cache.
//   - Graceful drain: Drain stops admission, finishes every in-flight and
//     queued batch, and only then returns — the SIGTERM half of the
//     "millions of users" story.
//
// Everything the daemon does is measured: per-request latency, queue
// depth, batch sizes, shed/degraded/expired counts flow into the
// internal/metrics registry and the internal/obsrv event log that the
// embedded introspection endpoints serve.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"swatop/internal/cache"
	"swatop/internal/faults"
	"swatop/internal/graph"
	"swatop/internal/infer"
	"swatop/internal/metrics"
	"swatop/internal/obsrv"
	"swatop/internal/reqtrace"
	"swatop/internal/tshist"
)

// Admission errors. The HTTP layer maps these onto status codes; embedded
// users (tests, the load generator) branch with errors.Is.
var (
	// ErrShed: the admission queue is full — retry after backing off.
	ErrShed = errors.New("serve: admission queue full")
	// ErrDraining: the server is shutting down and no longer admits work.
	ErrDraining = errors.New("serve: draining, not accepting requests")
	// ErrDeadline: the request's deadline expired before a result was
	// produced (while queued, or mid-batch).
	ErrDeadline = errors.New("serve: deadline exceeded")
)

// Config describes one serving daemon.
type Config struct {
	// Net names the served network in responses and status documents.
	Net string
	// Builder rebuilds the network at a given batch size — the serving
	// analog of infer.Options.Builder (the CLI passes graph.ByName).
	Builder func(batch int) (*graph.Graph, error)

	// MaxBatch caps how many requests one batch coalesces (default 8).
	MaxBatch int
	// BatchWindow is how long the batcher waits for the batch to fill
	// after the first request arrives (default 2ms). 0 coalesces only
	// what is already queued.
	BatchWindow time.Duration
	// QueueDepth bounds the admission queue (default 4*MaxBatch).
	QueueDepth int
	// Buckets are the batch sizes actually executed: a coalesced batch of
	// k requests runs at the smallest bucket >= k (the tail is padding).
	// Bounding the executed shapes keeps the tuned-schedule cache warm
	// instead of tuning every distinct arrival count. Default: powers of
	// two up to MaxBatch.
	Buckets []int
	// DefaultDeadline applies to requests that do not carry their own
	// deadline (0 = no deadline).
	DefaultDeadline time.Duration
	// RetryAfter is the backoff hint attached to shed/draining responses
	// (default 50ms).
	RetryAfter time.Duration

	// Workers is the tuning concurrency of cache misses.
	Workers int
	// Groups/Pipeline scale batch execution across the simulated
	// core-group fleet, exactly as swinfer -groups/-pipeline do.
	Groups   int
	Pipeline bool

	// BreakerThreshold is how many consecutive bad batches (hard failures
	// or degraded resolutions) trip the breaker open (default 3);
	// BreakerCooldown is how many degraded batches are served before a
	// tuned probe (default 8).
	BreakerThreshold int
	BreakerCooldown  int

	// Library is the schedule cache (one is created when nil). Degraded
	// resolutions never enter it.
	Library *cache.Library
	// Faults, when non-nil, sabotages tuning measurements — the chaos
	// hook. Execution of resolved schedules stays clean.
	Faults *faults.Injector
	// Metrics/Observer receive the daemon's instrumentation.
	Metrics  *metrics.Registry
	Observer *obsrv.Observer
	// Trace, when non-nil, enables request-scoped tracing: every admitted
	// request gets a W3C trace ID (inherited from an incoming traceparent
	// header when present) and a span tree — admit, queue-wait, batch
	// formation, schedule resolution, per-group execution, comm share,
	// respond — tail-sampled into the store behind /tracez. Purely
	// observational: schedules and simulated machine seconds are
	// bit-identical with tracing on or off.
	Trace *reqtrace.Store
	// History, when non-nil, is the time-series store the daemon's HTTP
	// surface serves as /varz (the cliobs -history scraper owns
	// populating it). Read-only here like Trace: schedules and machine
	// seconds are bit-identical with or without it.
	History *tshist.Store
	// SLO, when non-nil, runs the error-budget guardrail: a background
	// checker computes burn rate from the latency histogram and the
	// shed/expired counters, and a breach auto-dumps the flight recorder.
	// See SLO.
	SLO *SLO
}

// Request is one inference request: a single sample to be coalesced into
// a batch.
type Request struct {
	// ID is echoed into the response (optional).
	ID string `json:"id,omitempty"`
	// DeadlineMs bounds the request's total latency; 0 uses the server's
	// default deadline (which may be none).
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
	// TraceParent is the incoming W3C traceparent header value, set by the
	// HTTP layer (never from the JSON body). Empty or malformed values
	// start a fresh trace.
	TraceParent string `json:"-"`
}

// Response is the answer to one admitted request.
type Response struct {
	ID  string `json:"id,omitempty"`
	Net string `json:"net"`
	// Mode is the execution path of the batch ("single", "data-parallel",
	// "pipeline").
	Mode string `json:"mode"`
	// Batch is how many live requests the executed batch coalesced;
	// Bucket is the padded batch size actually executed.
	Batch  int `json:"batch"`
	Bucket int `json:"bucket"`
	// Degraded marks a response served by baseline-fallback schedules
	// (tuning failed or the breaker is open). Degraded results are
	// correct but slower, and are never cached.
	Degraded bool `json:"degraded,omitempty"`
	// TunedOps/CachedOps/DegradedOps count the batch's schedule
	// resolutions by kind.
	TunedOps    int `json:"tuned_ops"`
	CachedOps   int `json:"cached_ops"`
	DegradedOps int `json:"degraded_ops,omitempty"`
	// QueueMs/BatchMs/ExecMs/CommMs are the per-phase attribution of
	// LatencyMs: time queued before the batcher picked the request up,
	// batch-formation time (window fill until dispatch), execution, and
	// the batch's modeled inter-group communication share of the run.
	// They sum to LatencyMs exactly. RunMs is the whole engine run
	// (ExecMs + CommMs, measured independently).
	QueueMs   float64 `json:"queue_ms"`
	BatchMs   float64 `json:"batch_ms"`
	ExecMs    float64 `json:"exec_ms"`
	CommMs    float64 `json:"comm_ms"`
	RunMs     float64 `json:"run_ms"`
	LatencyMs float64 `json:"latency_ms"`
	// TraceID identifies the request's trace when tracing is enabled; slow
	// or unusual requests can be looked up at /tracez/<id>.
	TraceID string `json:"trace_id,omitempty"`
	// MachineMs is the batch's simulated machine time; PerInferenceMs is
	// that time amortized over the bucket — the hardware-side latency the
	// wall numbers above wrap.
	MachineMs      float64 `json:"machine_ms"`
	PerInferenceMs float64 `json:"per_inference_ms"`
}

// pending is one admitted request waiting for its batch.
type pending struct {
	id       string
	enq      time.Time
	deq      time.Time // when the batcher picked it up (stamped by batcher)
	deadline time.Time // zero: none
	canceled atomic.Bool
	done     chan outcome
	rec      *reqtrace.Recorder // nil when tracing is off
}

type outcome struct {
	resp *Response
	err  error
}

// Server is the serving daemon. Construct with New, optionally Warmup,
// then either drive it through Handler (HTTP) or Submit (embedded); Drain
// shuts it down gracefully.
type Server struct {
	cfg     Config
	eng     *infer.Engine
	lib     *cache.Library
	reg     *metrics.Registry
	obs     *obsrv.Observer
	breaker *breaker
	buckets []int

	queue       chan *pending
	mu          sync.RWMutex // guards draining against queue sends
	draining    bool
	batcherDone chan struct{}

	warmMu   sync.Mutex
	warmSecs map[int]float64

	slo sloState
}

// New validates the config, fits the engine's cost model and starts the
// batcher. The server admits requests immediately; call Warmup first if
// the first requests must not pay the tuning cost.
func New(cfg Config) (*Server, error) {
	if cfg.Builder == nil {
		return nil, fmt.Errorf("serve: Config.Builder is required")
	}
	if cfg.Net == "" {
		cfg.Net = "net"
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 8
	}
	if cfg.BatchWindow < 0 {
		return nil, fmt.Errorf("serve: negative batch window %v", cfg.BatchWindow)
	}
	if cfg.BatchWindow == 0 {
		cfg.BatchWindow = 2 * time.Millisecond
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 4 * cfg.MaxBatch
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 50 * time.Millisecond
	}
	buckets, err := normalizeBuckets(cfg.Buckets, cfg.MaxBatch)
	if err != nil {
		return nil, err
	}
	eng, err := infer.NewEngine()
	if err != nil {
		return nil, err
	}
	lib := cfg.Library
	if lib == nil {
		lib = cache.NewLibrary()
	}
	s := &Server{
		cfg:         cfg,
		eng:         eng,
		lib:         lib,
		reg:         cfg.Metrics,
		obs:         cfg.Observer,
		breaker:     newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		buckets:     buckets,
		queue:       make(chan *pending, cfg.QueueDepth),
		batcherDone: make(chan struct{}),
		warmSecs:    map[int]float64{},
	}
	s.reg.Gauge("serve_queue_capacity").Set(float64(cfg.QueueDepth))
	s.reg.Gauge("serve_breaker_state").Set(stateGauge(BreakerClosed))
	s.obs.Emit(obsrv.LevelInfo, "serve.start",
		obsrv.F("net", cfg.Net), obsrv.F("max_batch", cfg.MaxBatch),
		obsrv.F("queue_depth", cfg.QueueDepth), obsrv.F("buckets", fmt.Sprint(buckets)),
		obsrv.F("groups", cfg.Groups))
	go s.batcher()
	if cfg.SLO != nil {
		go s.sloChecker()
	}
	return s, nil
}

// normalizeBuckets sorts, dedupes and validates the bucket ladder, capping
// it at maxBatch and guaranteeing maxBatch itself is a bucket (every legal
// coalesced size must round up to something).
func normalizeBuckets(in []int, maxBatch int) ([]int, error) {
	var out []int
	if len(in) == 0 {
		for b := 1; b < maxBatch; b *= 2 {
			out = append(out, b)
		}
		out = append(out, maxBatch)
		return out, nil
	}
	seen := map[int]bool{}
	for _, b := range in {
		if b < 1 {
			return nil, fmt.Errorf("serve: bucket %d, want >= 1", b)
		}
		if b > maxBatch || seen[b] {
			continue
		}
		seen[b] = true
		out = append(out, b)
	}
	if !seen[maxBatch] {
		out = append(out, maxBatch)
	}
	sort.Ints(out)
	return out, nil
}

// bucketFor is the smallest bucket >= k.
func (s *Server) bucketFor(k int) int {
	for _, b := range s.buckets {
		if b >= k {
			return b
		}
	}
	return s.buckets[len(s.buckets)-1]
}

// Buckets returns the executed batch-size ladder.
func (s *Server) Buckets() []int { return append([]int(nil), s.buckets...) }

// Library exposes the schedule cache (tests assert degraded schedules
// never enter it).
func (s *Server) Library() *cache.Library { return s.lib }

// Warmup resolves and executes one batch per bucket size so serving-path
// requests hit a warm schedule cache. It returns the per-bucket simulated
// machine seconds — the deterministic capacity numbers the bench rows
// gate. Warmup uses the same degradation-tolerant options as serving, so
// it succeeds (degraded) even under fault injection.
func (s *Server) Warmup(ctx context.Context) (map[int]float64, error) {
	out := map[int]float64{}
	for _, b := range s.buckets {
		g, err := s.cfg.Builder(b)
		if err != nil {
			return nil, fmt.Errorf("serve: warmup bucket %d: %w", b, err)
		}
		res, err := s.eng.Run(ctx, g, s.runOptions(true))
		if err != nil {
			return nil, fmt.Errorf("serve: warmup bucket %d: %w", b, err)
		}
		out[b] = res.Seconds
		s.obs.Emit(obsrv.LevelInfo, "serve.warm",
			obsrv.F("bucket", b), obsrv.Ms("machine_ms", res.Seconds),
			obsrv.F("degraded_ops", res.DegradedOps))
	}
	s.warmMu.Lock()
	for b, secs := range out {
		s.warmSecs[b] = secs
	}
	s.warmMu.Unlock()
	return out, nil
}

// runOptions builds the engine options of one batch execution. tuned=false
// is the breaker's open state: resolve from cache or degrade, never tune.
func (s *Server) runOptions(tuned bool) infer.Options {
	return infer.Options{
		Workers:              s.cfg.Workers,
		Library:              s.lib,
		Fallback:             true,
		NoTune:               !tuned,
		Faults:               s.cfg.Faults,
		MaxCandidateFailures: 3,
		SkipBaseline:         true,
		Metrics:              s.reg,
		Observer:             s.obs,
		Groups:               s.cfg.Groups,
		Pipeline:             s.cfg.Pipeline,
		Builder:              s.cfg.Builder,
	}
}

// Submit admits one request and blocks until its batch produces a result,
// the request's context is canceled, or admission is refused (ErrShed /
// ErrDraining — immediately, with no queue time burned).
func (s *Server) Submit(ctx context.Context, req Request) (*Response, error) {
	p := &pending{
		id:   req.ID,
		enq:  time.Now(),
		done: make(chan outcome, 1),
	}
	if s.cfg.Trace != nil {
		p.rec = reqtrace.Start(req.TraceParent)
	}
	if req.DeadlineMs > 0 {
		p.deadline = p.enq.Add(time.Duration(req.DeadlineMs * float64(time.Millisecond)))
	} else if s.cfg.DefaultDeadline > 0 {
		p.deadline = p.enq.Add(s.cfg.DefaultDeadline)
	}

	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		s.reg.Counter("serve_drain_rejected_total").Inc()
		s.finishTrace(p, 503, false)
		return nil, ErrDraining
	}
	select {
	case s.queue <- p:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.reg.Counter("serve_shed_total").Inc()
		s.obs.Emit(obsrv.LevelDebug, "serve.shed", obsrv.F("id", req.ID))
		s.finishTrace(p, 429, false)
		return nil, ErrShed
	}
	s.reg.Counter("serve_admitted_total").Inc()
	depth := float64(len(s.queue))
	s.reg.Gauge("serve_queue_depth").Set(depth)
	s.reg.Gauge("serve_queue_depth_max").Max(depth)
	p.rec.Span(reqtrace.PhaseAdmit, "admit", p.enq, time.Since(p.enq),
		map[string]string{"queue_depth": fmt.Sprint(int(depth))})

	select {
	case o := <-p.done:
		return o.resp, o.err
	case <-ctx.Done():
		// The client went away; the batcher skips canceled requests it
		// has not yet executed.
		p.canceled.Store(true)
		s.reg.Counter("serve_canceled_total").Inc()
		s.finishTrace(p, 499, false)
		return nil, ctx.Err()
	}
}

// finishTrace seals a request's trace with its terminal status and hands
// it to the tail-sampling store. No-op without tracing; Finish is
// idempotent, so racing terminal paths (cancel vs. deliver) store once.
func (s *Server) finishTrace(p *pending, status int, degraded bool) {
	if p.rec == nil {
		return
	}
	tr := p.rec.Finish(status, degraded, time.Now())
	if tr.ID != "" {
		s.cfg.Trace.Add(tr)
	}
}

// Drain stops admission, serves everything already admitted, and returns
// once the batcher has gone idle (or ctx expires). Safe to call more than
// once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	if !already {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	if !already {
		s.obs.Emit(obsrv.LevelInfo, "serve.drain",
			obsrv.F("queued", len(s.queue)))
	}
	select {
	case <-s.batcherDone:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}
}

// Draining reports whether admission has stopped.
func (s *Server) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// batcher is the single consumer of the admission queue: it coalesces
// requests into batches (window + max-batch) and executes them serially.
// After Drain closes the queue it keeps consuming until the buffer is
// empty — that is the graceful half of shutdown.
func (s *Server) batcher() {
	defer close(s.batcherDone)
	for {
		p, ok := <-s.queue
		if !ok {
			return
		}
		p.deq = time.Now()
		batch := []*pending{p}
		if s.cfg.MaxBatch > 1 {
			timer := time.NewTimer(s.cfg.BatchWindow)
		collect:
			for len(batch) < s.cfg.MaxBatch {
				select {
				case q, ok := <-s.queue:
					if !ok {
						break collect
					}
					q.deq = time.Now()
					batch = append(batch, q)
				case <-timer.C:
					break collect
				}
			}
			timer.Stop()
		}
		s.reg.Gauge("serve_queue_depth").Set(float64(len(s.queue)))
		s.runBatch(batch)
	}
}

// runBatch executes one coalesced batch: drop dead members, pick the
// bucket, consult the breaker, run the engine (retrying once in degraded
// mode when a tuned run hard-fails), and deliver each member's outcome.
func (s *Server) runBatch(batch []*pending) {
	now := time.Now()
	live := make([]*pending, 0, len(batch))
	for _, p := range batch {
		switch {
		case p.canceled.Load():
			// Counted at cancellation time in Submit.
		case !p.deadline.IsZero() && now.After(p.deadline):
			s.expire(p)
		default:
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return
	}
	bucket := s.bucketFor(len(live))

	// The batch runs under the latest member deadline — cancelling at the
	// earliest would waste every other member's work. Members whose own
	// deadline passes during the run are expired afterwards.
	ctx := context.Background()
	var cancel context.CancelFunc = func() {}
	if latest, ok := latestDeadline(live); ok {
		ctx, cancel = context.WithDeadline(ctx, latest)
	}
	defer cancel()

	// One batch-level span collector, imported into every member's trace:
	// resolve and per-group exec spans are shared by the whole batch.
	var spans *reqtrace.Spans
	if s.cfg.Trace != nil {
		spans = &reqtrace.Spans{}
	}

	tuned := s.breaker.allowTuning()
	start := time.Now()
	res, err := s.execute(ctx, bucket, tuned, spans)
	if err != nil && tuned && !isDeadline(err) {
		// A hard failure on the tuned path charges the breaker and is
		// retried once in degraded mode — requests see a flagged answer,
		// not an error, whenever the baseline can still serve.
		s.recordBreaker(true)
		tuned = false
		res, err = s.execute(ctx, bucket, false, spans)
	}
	runMs := time.Since(start).Seconds() * 1e3

	if err != nil {
		if isDeadline(err) {
			// ctx deadline = latest member deadline, so every member's own
			// deadline has passed.
			for _, p := range live {
				s.expire(p)
			}
			return
		}
		s.recordBreaker(true)
		s.reg.Counter("serve_batch_failures_total").Inc()
		s.obs.Emit(obsrv.LevelError, "batch.fail",
			obsrv.F("bucket", bucket), obsrv.F("error", err))
		for _, p := range live {
			s.deliver(p, outcome{err: err})
			s.finishTrace(p, 500, false)
		}
		return
	}

	degraded := res.DegradedOps > 0
	s.recordBreaker(degraded)
	s.reg.Counter("serve_batches_total").Inc()
	if degraded {
		s.reg.Counter("serve_batches_degraded_total").Inc()
	}
	s.reg.Histogram("serve_batch_size", 1, 2, 4, 8, 16, 32, 64).Observe(float64(len(live)))
	s.reg.Counter("serve_batch_pad_total").Add(int64(bucket - len(live)))
	s.reg.Gauge("serve_machine_seconds").Add(res.Seconds)
	s.reg.Histogram("serve_run_ms", 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000).Observe(runMs)
	s.obs.Emit(obsrv.LevelDebug, "batch.run",
		obsrv.F("requests", len(live)), obsrv.F("bucket", bucket),
		obsrv.F("mode", res.Mode), obsrv.F("degraded", degraded),
		obsrv.Ms("machine_ms", res.Seconds))

	done := time.Now()
	// Per-phase attribution splits each member's wall latency exactly:
	// queue (enqueue -> batcher pickup) + batch (pickup -> dispatch) +
	// exec + comm (the run, split by the batch's modeled comm fraction)
	// = latency. The comm fraction comes from simulated seconds, but only
	// apportions measured wall time — it never feeds back into execution.
	runDur := done.Sub(start)
	commShare := 0.0
	if res.Seconds > 0 && res.CommSeconds > 0 {
		commShare = res.CommSeconds / res.Seconds
	}
	commDur := time.Duration(float64(runDur) * commShare)
	for _, p := range live {
		if !p.deadline.IsZero() && done.After(p.deadline) {
			s.expire(p)
			continue
		}
		queueDur := p.deq.Sub(p.enq)
		batchDur := start.Sub(p.deq)
		resp := &Response{
			ID:             p.id,
			Net:            s.cfg.Net,
			Mode:           res.Mode,
			Batch:          len(live),
			Bucket:         bucket,
			Degraded:       degraded,
			TunedOps:       res.TunedOps,
			CachedOps:      res.CachedOps,
			DegradedOps:    res.DegradedOps,
			QueueMs:        queueDur.Seconds() * 1e3,
			BatchMs:        batchDur.Seconds() * 1e3,
			ExecMs:         (runDur - commDur).Seconds() * 1e3,
			CommMs:         commDur.Seconds() * 1e3,
			RunMs:          runMs,
			LatencyMs:      done.Sub(p.enq).Seconds() * 1e3,
			MachineMs:      res.Seconds * 1e3,
			PerInferenceMs: res.Seconds * 1e3 / float64(bucket),
			TraceID:        p.rec.ID(),
		}
		s.reg.Counter("serve_responses_total").Inc()
		if degraded {
			s.reg.Counter("serve_degraded_total").Inc()
		}
		s.reg.Histogram("serve_latency_ms",
			0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000).Observe(resp.LatencyMs)
		if p.rec != nil {
			p.rec.Span(reqtrace.PhaseQueue, "queue wait", p.enq, queueDur, nil)
			p.rec.Span(reqtrace.PhaseBatch, "batch form", p.deq, batchDur,
				map[string]string{
					"batch": fmt.Sprint(len(live)), "bucket": fmt.Sprint(bucket),
					"mode": res.Mode, "tuned": fmt.Sprint(tuned),
				})
			p.rec.Import(spans)
			p.rec.Span(reqtrace.PhaseComm, "inter-group comm share", done.Add(-commDur), commDur,
				map[string]string{"machine_comm_ms": reqtrace.MsArg(res.CommSeconds * 1e3)})
		}
		s.deliver(p, outcome{resp: resp})
		if p.rec != nil {
			p.rec.Span(reqtrace.PhaseRespond, "respond", done, time.Since(done), nil)
			s.finishTrace(p, 200, degraded)
		}
	}
}

// execute runs one bucket-sized batch through the engine. spans, when
// non-nil, collects the run's resolve and per-group exec spans.
func (s *Server) execute(ctx context.Context, bucket int, tuned bool, spans *reqtrace.Spans) (*infer.Result, error) {
	g, err := s.cfg.Builder(bucket)
	if err != nil {
		return nil, fmt.Errorf("serve: building bucket-%d graph: %w", bucket, err)
	}
	opts := s.runOptions(tuned)
	opts.Spans = spans
	return s.eng.Run(ctx, g, opts)
}

// recordBreaker feeds one batch outcome into the breaker and publishes
// state transitions.
func (s *Server) recordBreaker(bad bool) {
	from, to := s.breaker.record(bad)
	s.reg.Gauge("serve_breaker_state").Set(stateGauge(s.breaker.State()))
	if from == "" {
		return
	}
	level := obsrv.LevelWarn
	kind := "breaker.trip"
	if to == BreakerClosed {
		level = obsrv.LevelInfo
		kind = "breaker.close"
	}
	s.reg.Gauge("serve_breaker_trips").Set(float64(s.breaker.Trips()))
	s.obs.Emit(level, kind, obsrv.F("from", from), obsrv.F("to", to))
}

func (s *Server) expire(p *pending) {
	s.reg.Counter("serve_deadline_expired_total").Inc()
	s.obs.Emit(obsrv.LevelDebug, "serve.expired", obsrv.F("id", p.id))
	if p.rec != nil && !p.deq.IsZero() {
		p.rec.Span(reqtrace.PhaseQueue, "queue wait", p.enq, p.deq.Sub(p.enq), nil)
	}
	s.deliver(p, outcome{err: ErrDeadline})
	s.finishTrace(p, 408, false)
}

// deliver hands the outcome to the waiting Submit (buffered; never blocks,
// and a canceled waiter simply never reads it).
func (s *Server) deliver(p *pending, o outcome) {
	select {
	case p.done <- o:
	default:
	}
}

// latestDeadline returns the latest member deadline, and whether every
// member has one (a single open-ended request keeps the batch open-ended).
func latestDeadline(live []*pending) (time.Time, bool) {
	var latest time.Time
	for _, p := range live {
		if p.deadline.IsZero() {
			return time.Time{}, false
		}
		if p.deadline.After(latest) {
			latest = p.deadline
		}
	}
	return latest, true
}

func isDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded)
}
