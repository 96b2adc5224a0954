// Command swserve is the always-on inference daemon: it serves single
// HTTP/JSON inference requests, coalescing them into dynamic batches that
// execute on the simulated SW26010 through the tuned-schedule cache — and
// it is built to stay up: bounded admission with load shedding (429),
// per-request deadlines (408), a circuit breaker that degrades to the
// baseline-fallback mode instead of failing, and graceful drain on
// SIGTERM/SIGINT.
//
// Usage:
//
//	swserve [-net vgg16] [-addr 127.0.0.1:8100]
//	        [-max-batch 8] [-batch-window 2ms] [-queue N] [-buckets 1,2,4,8]
//	        [-deadline D] [-groups N] [-pipeline] [-workers N]
//	        [-lib schedules.json] [-warm] [-breaker-threshold 3] [-breaker-cooldown 8]
//	        [-trace] [-trace-sample 0.1] [-trace-slow 100]
//	        [-slo-p99 MS] [-slo-availability 0.999] [-history] [-scrape-interval 1s]
//	        [-metrics -|file] [-listen addr] [-flight-out f.json]
//
// Endpoints (on -addr):
//
//	POST /infer    {"id": "...", "deadline_ms": 50}  → per-request report;
//	               send a W3C traceparent header to join the caller's trace
//	GET  /serverz  queue / breaker / shed / degraded / SLO counters
//	GET  /tracez   tail-sampled request traces (with -trace);
//	               /tracez/<id> one trace, ?format=chrome for Perfetto
//	GET  /varz     time-series history (with -history); /varz/<metric>?window=60s
//	               is one series' windowed rate or percentiles
//	GET  /healthz, /metrics, /statusz, /events, /flightz, /debug/pprof/
//	               (an SLO breach writes a flight dump; /debug/pprof/profile is the CPU profile)
//
// Example:
//
//	swserve -net vgg16 -max-batch 8 -lib vgg16.json -trace &
//	curl -s -X POST localhost:8100/infer -d '{"id":"r1","deadline_ms":5000}'
//
// On SIGTERM/SIGINT the daemon stops admitting (new requests get 503),
// finishes every in-flight batch, flushes metrics and the schedule
// library, then exits; a second signal force-quits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"swatop/internal/cache"
	"swatop/internal/cliobs"
	"swatop/internal/graph"
	"swatop/internal/metrics"
	"swatop/internal/reqtrace"
	"swatop/internal/serve"
)

func main() {
	netName := flag.String("net", "vgg16", "network: vgg16, resnet or yolo")
	addr := flag.String("addr", "127.0.0.1:8100", "serving address (':0' picks a port)")
	maxBatch := flag.Int("max-batch", 8, "max requests coalesced into one batch")
	window := flag.Duration("batch-window", 2*time.Millisecond,
		"how long a forming batch waits to fill after its first request")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 4*max-batch); overflow is shed with 429")
	bucketsFlag := flag.String("buckets", "",
		"comma-separated executed batch sizes (default: powers of two up to max-batch)")
	deadline := flag.Duration("deadline", 0,
		"default per-request deadline when the request carries none (0 = none)")
	groups := flag.Int("groups", 1, "simulated core groups: >1 scales batch execution across a fleet")
	pipeline := flag.Bool("pipeline", false, "with -groups N: pipeline layers across N stages instead of sharding the batch")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent tuning workers for cache misses")
	libPath := flag.String("lib", "", "schedule library file: loaded if present, saved on drain")
	warm := flag.Bool("warm", true, "tune every bucket size before accepting traffic")
	breakerThreshold := flag.Int("breaker-threshold", 3,
		"consecutive bad batches that trip the circuit breaker into degraded mode")
	breakerCooldown := flag.Int("breaker-cooldown", 8,
		"degraded batches served before a tuned probe batch")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"how long a SIGTERM drain waits for in-flight work before giving up")
	traceOn := flag.Bool("trace", false,
		"record tail-sampled request traces, served on /tracez")
	traceSample := flag.Float64("trace-sample", 0.1,
		"with -trace: fraction of unremarkable requests kept (slow/shed/expired/degraded always kept)")
	traceSlow := flag.Float64("trace-slow", 100,
		"with -trace: latency ms at which a request always counts as slow and is kept")
	sloP99 := flag.Float64("slo-p99", 0,
		"latency SLO: at most 1%% of responses may exceed this many ms (0 = no latency SLO)")
	sloAvail := flag.Float64("slo-availability", 0,
		"availability SLO, e.g. 0.999 (0 = no availability SLO)")
	obsFlags := cliobs.Register(flag.CommandLine,
		"(swserve exports no trace timeline; use /events and /flightz instead)")
	flag.Parse()

	if *groups < 2 && *pipeline {
		fail(fmt.Errorf("-pipeline needs -groups N with N >= 2"))
	}
	if err := checkTraceFlags(*traceSample, *traceSlow); err != nil {
		fail(err)
	}
	buckets, err := parseBuckets(*bucketsFlag)
	if err != nil {
		fail(err)
	}

	reg := metrics.NewRegistry()
	sess, err := obsFlags.Start("swserve", reg)
	if err != nil {
		fail(err)
	}
	defer sess.Close()

	lib := cache.NewLibrary()
	lib.SetMetrics(reg)
	lib.SetObserver(sess.Observer)
	if *libPath != "" {
		if _, err := os.Stat(*libPath); err == nil {
			if err := lib.Load(*libPath); err != nil {
				fail(fmt.Errorf("load %s: %w", *libPath, err))
			}
			fmt.Fprintf(os.Stderr, "library: %s (%d schedules)\n", *libPath, lib.Len())
		}
	}

	var store *reqtrace.Store
	if *traceOn {
		store = reqtrace.NewStore(reqtrace.StoreOptions{
			SampleRate: *traceSample,
			SlowMs:     *traceSlow,
		})
	}
	var slo *serve.SLO
	if *sloP99 > 0 || *sloAvail > 0 {
		slo = &serve.SLO{
			P99TargetMs:  *sloP99,
			Availability: *sloAvail,
		}
	}

	srv, err := serve.New(serve.Config{
		Net:              *netName,
		Builder:          func(b int) (*graph.Graph, error) { return graph.ByName(*netName, b) },
		MaxBatch:         *maxBatch,
		BatchWindow:      *window,
		QueueDepth:       *queue,
		Buckets:          buckets,
		DefaultDeadline:  *deadline,
		Workers:          *workers,
		Groups:           *groups,
		Pipeline:         *pipeline,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		Library:          lib,
		Metrics:          reg,
		Observer:         sess.Observer,
		Trace:            store,
		History:          sess.History,
		SLO:              slo,
	})
	if err != nil {
		fail(err)
	}

	if *warm {
		fmt.Fprintf(os.Stderr, "warming %s buckets %v...\n", *netName, srv.Buckets())
		stop := sess.StartProgress(os.Stderr)
		secs, err := srv.Warmup(sess.Context())
		stop()
		if err != nil {
			fail(err)
		}
		var bs []int
		for b := range secs {
			bs = append(bs, b)
		}
		sort.Ints(bs)
		for _, b := range bs {
			fmt.Fprintf(os.Stderr, "  bucket %2d: %8.3f machine ms  (%.3f ms/inference, %.1f inferences/s)\n",
				b, secs[b]*1e3, secs[b]*1e3/float64(b), float64(b)/secs[b])
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(os.Stderr, "serving: http://%s/ (POST /infer, GET /serverz)\n", ln.Addr())

	// SIGTERM/SIGINT (via the shared cliobs handler): stop admitting, finish
	// every in-flight batch, then close the HTTP listener so Serve returns
	// and the flush path below runs.
	sess.OnDrain(func() {
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "swserve:", err)
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "swserve: shutdown:", err)
		}
	})

	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fail(err)
	}
	// Drained: flush everything the session owns, then report the totals.
	if *libPath != "" {
		if err := lib.Save(*libPath); err != nil {
			fail(fmt.Errorf("save %s: %w", *libPath, err))
		}
		fmt.Fprintf(os.Stderr, "library: saved %s (%d schedules)\n", *libPath, lib.Len())
	}
	st := srv.Status()
	fmt.Fprintf(os.Stderr,
		"drained: %d served (%d degraded), %d shed, %d expired, %d batches, breaker %s (%d trips)\n",
		st.Responses, st.Degraded, st.Shed, st.Expired, st.Batches, st.Breaker, st.BreakerTrips)
	if err := sess.WriteMetrics(false); err != nil {
		fail(err)
	}
}

// checkTraceFlags rejects the trace flags reqtrace.NewStore would otherwise
// rewrite: a sample rate of 0 becomes its 0.1 default and one outside [0, 1]
// is clamped, a slow threshold of 0 ms or less becomes 100 ms.
func checkTraceFlags(sample, slowMs float64) error {
	if !(sample > 0 && sample <= 1) {
		return fmt.Errorf("-trace-sample %g: want a fraction in (0, 1]", sample)
	}
	if !(slowMs > 0) {
		return fmt.Errorf("-trace-slow %g: want a latency in ms above 0", slowMs)
	}
	return nil
}

func parseBuckets(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("swserve: bad bucket %q (want positive integers)", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "swserve:", err)
	os.Exit(1)
}
