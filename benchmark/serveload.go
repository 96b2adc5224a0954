package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"swatop/internal/serve"
)

// serveRun is what one timed run of serve-open observed beyond the common
// numbers: per-request phase attribution and the generator's own lateness.
type serveRun struct {
	sentA, okA     int
	withinLimit    int
	latencyMs      []float64 // phase A, from each request's due time
	genLateMs      []float64 // phase A, how late the generator fired
	queueMs        []float64 // phases of every OK response, both phases
	batchMs        []float64
	execMs         []float64
	slots          float64 // executed batch slots, padding included
	batches        float64 // executed batches (each response is 1/Batch of one)
	okB            int
	shed, expired  int
	checkFailures  int
	firstCheckFail string
}

// reqOutcome is the one terminal outcome of one request sent.
type reqOutcome struct {
	resp *serve.Response
	err  error
	done time.Time
}

// submitFunc sends one request; the traced run wraps it in spans.
type submitFunc func(ctx context.Context, op int, req serve.Request) (*serve.Response, error)

func plainSubmit(srv *serve.Server) submitFunc {
	return func(ctx context.Context, _ int, req serve.Request) (*serve.Response, error) {
		return srv.Submit(ctx, req)
	}
}

// measureServe drives the server through Submit, no sockets. Phase A is an
// open loop: Poisson arrivals at a fixed rate from the seed, sent on
// schedule whether or not earlier requests have returned, each timed from
// the moment it was due. Phase B is a closed loop of parked clients that
// each send their next request when the previous one returns, which finds
// the saturation rate.
func measureServe(ctx context.Context, e *env, submit submitFunc, d time.Duration) (*measured, error) {
	dA, dB := d*6/10, d*4/10
	rng := rand.New(rand.NewSource(int64(e.seed)))
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / e.size.rate
		at := time.Duration(t * float64(time.Second))
		if at >= dA || (e.quick && len(due) >= 16) {
			break
		}
		due = append(due, at)
	}
	run := &serveRun{sentA: len(due)}

	// Phase A. One goroutine per request, parked on the fire channel until
	// the generator reaches the request's due time.
	outcomes := make([]reqOutcome, len(due))
	run.genLateMs = make([]float64, len(due))
	fire := make(chan int)
	var wg sync.WaitGroup
	for range due {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := <-fire
			resp, err := submit(ctx, i, serve.Request{ID: "a" + strconv.Itoa(i)})
			outcomes[i] = reqOutcome{resp: resp, err: err, done: time.Now()}
		}()
	}
	start := time.Now()
	for i, at := range due {
		time.Sleep(time.Until(start.Add(at)))
		run.genLateMs[i] = msSince(start.Add(at))
		fire <- i
	}
	wg.Wait()
	for i, o := range outcomes {
		run.account(o, "a"+strconv.Itoa(i))
		if o.err == nil {
			run.okA++
			lat := float64(o.done.Sub(start.Add(due[i]))) / float64(time.Millisecond)
			run.latencyMs = append(run.latencyMs, lat)
			if lat <= e.size.limitMs {
				run.withinLimit++
			}
		}
	}

	// Phase B. The rate counts the responses that land inside the window,
	// over the time up to the last of them; the clients' final requests,
	// which drain with ever smaller batches after the window, are booked
	// but not rated. Allocations are taken over this
	// phase, where batches are full and the count per request does not
	// hang on how the arrivals of phase A happened to bunch.
	var mu sync.Mutex
	sentB, inWindow := 0, 0
	var lastInWindow time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	startB := time.Now()
	for c := 0; c < e.size.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; ; n++ {
				id := "b" + strconv.Itoa(c) + "-" + strconv.Itoa(n)
				resp, err := submit(ctx, len(due)+c, serve.Request{ID: id})
				o := reqOutcome{resp: resp, err: err, done: time.Now()}
				mu.Lock()
				sentB++
				run.account(o, id)
				if err == nil {
					run.okB++
					if at := o.done.Sub(startB); at <= dB {
						inWindow++
						if at > lastInWindow {
							lastInWindow = at
						}
					}
				}
				mu.Unlock()
				if time.Since(startB) >= dB || (e.quick && n >= 1) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	if e.quick { // two requests per client, however long they take
		lastInWindow, inWindow = time.Since(startB), run.okB
	}

	sent := run.sentA + sentB
	m := &measured{
		wallMs:    run.latencyMs,
		opsPerS:   ratio(float64(inWindow), lastInWindow.Seconds()),
		attempted: sent,
		failed:    sent - run.okA - run.okB,
		mallocs:   float64(after.Mallocs-before.Mallocs) / float64(sentB),
		allocMB:   float64(after.TotalAlloc-before.TotalAlloc) / float64(sentB) / (1 << 20),
		serve:     run,
	}
	if run.checkFailures > 0 {
		return nil, fmt.Errorf("serve-open: %d responses failed their checks, first: %s",
			run.checkFailures, run.firstCheckFail)
	}
	return m, nil
}

// account books one request's terminal outcome and checks an OK response:
// it must answer the request it was sent for, and its phase attribution
// must add up to its latency.
func (r *serveRun) account(o reqOutcome, id string) {
	switch {
	case o.err == nil:
		p := o.resp
		r.queueMs = append(r.queueMs, p.QueueMs)
		r.batchMs = append(r.batchMs, p.BatchMs)
		r.execMs = append(r.execMs, p.ExecMs)
		r.slots += float64(p.Bucket) / float64(p.Batch)
		r.batches += 1 / float64(p.Batch)
		phases := p.QueueMs + p.BatchMs + p.ExecMs + p.CommMs
		switch {
		case p.ID != id:
			r.checkFail(fmt.Sprintf("request %s answered with id %q", id, p.ID))
		case math.Abs(phases-p.LatencyMs) > 1e-6*math.Max(1, p.LatencyMs):
			r.checkFail(fmt.Sprintf("request %s: phases sum to %v ms, latency is %v ms", id, phases, p.LatencyMs))
		case p.Degraded || p.TunedOps != 0:
			r.checkFail(fmt.Sprintf("request %s: warm server answered degraded=%v with %d tuned operators",
				id, p.Degraded, p.TunedOps))
		}
	case errors.Is(o.err, serve.ErrShed):
		r.shed++
	case errors.Is(o.err, serve.ErrDeadline):
		r.expired++
	}
}

func (r *serveRun) checkFail(msg string) {
	if r.checkFailures == 0 {
		r.firstCheckFail = msg
	}
	r.checkFailures++
}
