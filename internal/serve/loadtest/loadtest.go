// Package loadtest is a deterministic closed-loop load generator for the
// serving daemon: a fixed number of clients each keep exactly one request
// in flight until a fixed request budget is spent, and every terminal
// status is accounted for. Closed-loop generation makes the offered load a
// pure function of (Clients, server latency) — no random arrival process,
// so the same binary produces the same admission story run over run, up to
// goroutine scheduling.
//
// The Report aggregates what robustness testing needs to assert: a
// latency distribution (p50/p90/p99) over served requests, the shed rate,
// the degraded count, and a guarantee-checking status histogram (overload
// must map to 429/408, never 5xx).
package loadtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"swatop/internal/metrics"
	"swatop/internal/serve"
)

// Options shape one load run.
type Options struct {
	// Clients is the closed-loop concurrency: each client keeps one request
	// in flight (default 8).
	Clients int
	// Requests is the total request budget across all clients (default 100).
	Requests int
	// DeadlineMs is attached to every request (0 = none).
	DeadlineMs float64
	// Timeout bounds each HTTP round trip (default 30s).
	Timeout time.Duration
}

// Report is the aggregate outcome of one run.
type Report struct {
	Total    int           `json:"total"`
	Clients  int           `json:"clients"`
	Wall     time.Duration `json:"wall_ns"`
	Statuses map[int]int   `json:"statuses"`

	// OK counts 200s; Shed 429s; Expired 408s; Draining 503s; Errors
	// transport-level failures (should be zero against a healthy server).
	OK       int `json:"ok"`
	Shed     int `json:"shed"`
	Expired  int `json:"expired"`
	Draining int `json:"draining"`
	Errors   int `json:"errors"`
	// Degraded counts 200s served by the baseline-fallback path.
	Degraded int `json:"degraded"`

	// Latency percentiles over served (200) requests, in milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
	// ShedRate is Shed/Total; ThroughputRPS is OK per wall second.
	ShedRate      float64 `json:"shed_rate"`
	ThroughputRPS float64 `json:"throughput_rps"`

	// Phases attributes where served requests spent their time, per phase
	// as reported by the server (queue wait, batch formation, execution,
	// inter-group communication). The four server-side phases sum to the
	// server-observed latency for every request; PhaseSumErrMax is the
	// largest relative mismatch seen, a consistency check that should stay
	// well under 1%.
	Phases         PhaseReport `json:"phases"`
	PhaseSumErrMax float64     `json:"phase_sum_err_max"`
}

// PhaseReport is the per-phase latency attribution over served requests.
type PhaseReport struct {
	Queue PhaseStats `json:"queue"`
	Batch PhaseStats `json:"batch"`
	Exec  PhaseStats `json:"exec"`
	Comm  PhaseStats `json:"comm"`
}

// PhaseStats are nearest-rank percentiles of one phase, in milliseconds.
type PhaseStats struct {
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// phaseSample is one served request's server-side attribution.
type phaseSample struct {
	queue, batch, exec, comm float64 // ms
	latency                  float64 // server-observed end-to-end ms
}

// clientResult is one worker's tally, merged after the run.
type clientResult struct {
	statuses  map[int]int
	degraded  int
	errors    int
	latencies []float64 // ms, 200s only
	phases    []phaseSample
}

// Run fires opts.Requests at baseURL's /infer endpoint from opts.Clients
// closed-loop workers and aggregates the outcome. It returns an error only
// for misconfiguration — server-side refusals (shed, drain, expiry) are
// data, not errors.
func Run(baseURL string, opts Options) (*Report, error) {
	if opts.Clients < 1 {
		opts.Clients = 8
	}
	if opts.Requests < 1 {
		opts.Requests = 100
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	url := strings.TrimRight(baseURL, "/") + "/infer"
	client := &http.Client{Timeout: opts.Timeout}

	var next atomic.Int64
	results := make([]clientResult, opts.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := clientResult{statuses: map[int]int{}}
			for {
				n := next.Add(1)
				if n > int64(opts.Requests) {
					break
				}
				req := serve.Request{
					ID:         fmt.Sprintf("load-%d", n),
					DeadlineMs: opts.DeadlineMs,
				}
				status, body, ms, err := fire(client, url, req)
				if err != nil {
					res.errors++
					continue
				}
				res.statuses[status]++
				if status == http.StatusOK {
					res.latencies = append(res.latencies, ms)
					if body.Degraded {
						res.degraded++
					}
					res.phases = append(res.phases, phaseSample{
						queue:   body.QueueMs,
						batch:   body.BatchMs,
						exec:    body.ExecMs,
						comm:    body.CommMs,
						latency: body.LatencyMs,
					})
				}
			}
			results[c] = res
		}(c)
	}
	wg.Wait()
	return merge(results, opts, time.Since(start)), nil
}

// fire sends one request and decodes the terminal status and, on 200, the
// response body (for degraded flags and per-phase attribution).
func fire(client *http.Client, url string, req serve.Request) (status int, r serve.Response, ms float64, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, r, 0, err
	}
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, r, 0, err
	}
	defer resp.Body.Close()
	ms = time.Since(t0).Seconds() * 1e3
	if resp.StatusCode == http.StatusOK {
		_ = json.NewDecoder(resp.Body).Decode(&r)
	}
	return resp.StatusCode, r, ms, nil
}

func merge(results []clientResult, opts Options, wall time.Duration) *Report {
	rep := &Report{
		Total:    opts.Requests,
		Clients:  opts.Clients,
		Wall:     wall,
		Statuses: map[int]int{},
	}
	var lats []float64
	var phases []phaseSample
	for _, r := range results {
		for s, n := range r.statuses {
			rep.Statuses[s] += n
		}
		rep.Degraded += r.degraded
		rep.Errors += r.errors
		lats = append(lats, r.latencies...)
		phases = append(phases, r.phases...)
	}
	rep.OK = rep.Statuses[http.StatusOK]
	rep.Shed = rep.Statuses[http.StatusTooManyRequests]
	rep.Expired = rep.Statuses[http.StatusRequestTimeout]
	rep.Draining = rep.Statuses[http.StatusServiceUnavailable]
	if rep.Total > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Total)
	}
	if secs := wall.Seconds(); secs > 0 {
		rep.ThroughputRPS = float64(rep.OK) / secs
	}
	sort.Float64s(lats)
	rep.P50Ms = metrics.Percentile(lats, 50)
	rep.P90Ms = metrics.Percentile(lats, 90)
	rep.P99Ms = metrics.Percentile(lats, 99)
	if n := len(lats); n > 0 {
		rep.MaxMs = lats[n-1]
	}
	queue := make([]float64, 0, len(phases))
	batch := make([]float64, 0, len(phases))
	exec := make([]float64, 0, len(phases))
	comm := make([]float64, 0, len(phases))
	for _, p := range phases {
		queue = append(queue, p.queue)
		batch = append(batch, p.batch)
		exec = append(exec, p.exec)
		comm = append(comm, p.comm)
		if p.latency > 0 {
			sum := p.queue + p.batch + p.exec + p.comm
			if err := math.Abs(sum-p.latency) / p.latency; err > rep.PhaseSumErrMax {
				rep.PhaseSumErrMax = err
			}
		}
	}
	rep.Phases.Queue = phaseStats(queue)
	rep.Phases.Batch = phaseStats(batch)
	rep.Phases.Exec = phaseStats(exec)
	rep.Phases.Comm = phaseStats(comm)
	return rep
}

// phaseStats sorts one phase's samples (in place) and takes percentiles.
func phaseStats(ms []float64) PhaseStats {
	sort.Float64s(ms)
	return PhaseStats{
		P50Ms: metrics.Percentile(ms, 50),
		P90Ms: metrics.Percentile(ms, 90),
		P99Ms: metrics.Percentile(ms, 99),
	}
}

// String renders the one-screen report the CLI and tests log.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "load: %d requests, %d clients, %.2fs wall\n",
		r.Total, r.Clients, r.Wall.Seconds())
	fmt.Fprintf(&b, "  served %d (%.1f rps, %d degraded)  shed %d (%.1f%%)  expired %d  draining %d  errors %d\n",
		r.OK, r.ThroughputRPS, r.Degraded, r.Shed, 100*r.ShedRate, r.Expired, r.Draining, r.Errors)
	fmt.Fprintf(&b, "  latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
		r.P50Ms, r.P90Ms, r.P99Ms, r.MaxMs)
	fmt.Fprintf(&b, "  phase ms (p50/p90/p99): queue %.2f/%.2f/%.2f  batch %.2f/%.2f/%.2f  exec %.2f/%.2f/%.2f  comm %.2f/%.2f/%.2f",
		r.Phases.Queue.P50Ms, r.Phases.Queue.P90Ms, r.Phases.Queue.P99Ms,
		r.Phases.Batch.P50Ms, r.Phases.Batch.P90Ms, r.Phases.Batch.P99Ms,
		r.Phases.Exec.P50Ms, r.Phases.Exec.P90Ms, r.Phases.Exec.P99Ms,
		r.Phases.Comm.P50Ms, r.Phases.Comm.P90Ms, r.Phases.Comm.P99Ms)
	return b.String()
}
