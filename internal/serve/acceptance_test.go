// Acceptance test for the tracing/SLO surface, in an external test package
// so it can drive the server through loadtest (which imports serve) the
// way an operator does: over real HTTP.
package serve_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"swatop/internal/graph"
	"swatop/internal/metrics"
	"swatop/internal/obsrv"
	"swatop/internal/reqtrace"
	"swatop/internal/serve"
	"swatop/internal/serve/loadtest"
	"swatop/internal/tshist"
	"swatop/internal/workloads"
)

func acceptanceNet(batch int) (*graph.Graph, error) {
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

// TestTraceAcceptanceLoad is the PR's end-to-end acceptance run: 2000
// requests through the real HTTP stack with tracing and an (unmeetable)
// SLO attached, asserting
//
//	(a) per-request phase sums match end-to-end latency within 1%,
//	(b) /tracez serves a complete span tree for a sampled slow request,
//	(c) the forced SLO breach auto-captures a flight dump,
//
// and that the warmed machine seconds are bit-identical to a server with
// tracing disabled.
func TestTraceAcceptanceLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("2000-request load run")
	}
	dir := t.TempDir()
	flightPath := filepath.Join(dir, "flight.json")
	fw, err := os.Create(flightPath)
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	obs := obsrv.New()
	obs.SetFlightSink(fw)

	store := reqtrace.NewStore(reqtrace.StoreOptions{
		Capacity:   2100,
		SampleRate: 1,
		SlowMs:     1e-9, // everything counts as slow: every kept trace is tail-worthy
	})
	reg := metrics.NewRegistry()
	hist := tshist.New(tshist.Options{})
	srv, err := serve.New(serve.Config{
		Net:         "tiny",
		Builder:     acceptanceNet,
		MaxBatch:    4,
		Buckets:     []int{1, 2, 4},
		BatchWindow: time.Millisecond,
		Metrics:     reg,
		Observer:    obs,
		Trace:       store,
		History:     hist,
		SLO: &serve.SLO{
			P99TargetMs:   1e-4, // unmeetable: the forced breach
			CheckInterval: time.Hour,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	warmSecs, err := srv.Warmup(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := loadtest.Run(ts.URL, loadtest.Options{Clients: 16, Requests: 2000})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if rep.OK == 0 || rep.Errors > 0 {
		t.Fatalf("load run unhealthy: ok=%d errors=%d", rep.OK, rep.Errors)
	}

	// (a) Phase attribution is consistent: worst relative mismatch between
	// queue+batch+exec+comm and the server-observed latency stays under 1%.
	if rep.PhaseSumErrMax >= 0.01 {
		t.Errorf("phase sums diverge from latency by %.3f%% (max), want < 1%%", rep.PhaseSumErrMax*100)
	}
	if rep.Phases.Exec.P99Ms <= 0 {
		t.Error("exec phase p99 is zero — attribution did not flow through the load test")
	}

	// A caller-supplied traceparent joins the caller's trace: the response
	// carries the same trace id in header and body.
	callerTrace := "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/infer", strings.NewReader(`{"id":"traced"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", callerTrace)
	httpResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var traced serve.Response
	if err := json.NewDecoder(httpResp.Body).Decode(&traced); err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if traced.TraceID != "0123456789abcdef0123456789abcdef" {
		t.Errorf("trace id %q did not adopt the caller's traceparent", traced.TraceID)
	}
	if h := httpResp.Header.Get("traceparent"); !strings.HasPrefix(h, "00-0123456789abcdef0123456789abcdef-") {
		t.Errorf("response traceparent %q does not continue the caller's trace", h)
	}

	// A response is delivered before its trace is sealed and stored (the
	// respond span times the delivery), so reading /tracez right behind the
	// response races the batcher. Drain returns once the batcher has exited,
	// i.e. after every trace is stored; the HTTP surface stays up.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// (b) /tracez/<id> serves the complete span tree for that request.
	detail, err := http.Get(ts.URL + "/tracez/" + traced.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	var tr reqtrace.Trace
	if err := json.NewDecoder(detail.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	detail.Body.Close()
	if tr.Keep != "slow" {
		t.Errorf("trace keep reason %q, want slow", tr.Keep)
	}
	phases := map[string]bool{}
	for _, sp := range tr.Spans {
		phases[sp.Phase] = true
	}
	for _, want := range []string{
		reqtrace.PhaseAdmit, reqtrace.PhaseQueue, reqtrace.PhaseBatch,
		reqtrace.PhaseExec, reqtrace.PhaseComm, reqtrace.PhaseRespond,
	} {
		if !phases[want] {
			t.Errorf("trace missing %q span (has %v)", want, phases)
		}
	}
	// And the list endpoint retained the load run's traces.
	list, err := http.Get(ts.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	var listDoc struct {
		Stats reqtrace.Stats `json:"stats"`
	}
	if err := json.NewDecoder(list.Body).Decode(&listDoc); err != nil {
		t.Fatal(err)
	}
	list.Body.Close()
	if listDoc.Stats.Retained < 1000 {
		t.Errorf("trace store retained %d traces, want most of the 2000-request run", listDoc.Stats.Retained)
	}

	// The serving port answers /varz from the history store it was handed.
	hist.Ingest(time.Now(), reg.Snapshot())
	varz, err := http.Get(ts.URL + "/varz/serve_responses_total")
	if err != nil {
		t.Fatal(err)
	}
	var served tshist.QueryResult
	if err := json.NewDecoder(varz.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	varz.Body.Close()
	if served.Last != float64(rep.OK+1) {
		t.Errorf("/varz/serve_responses_total last = %v, want the %d served requests", served.Last, rep.OK+1)
	}

	// (c) Forced SLO breach: burn is far above threshold, and the breach
	// auto-captures a flight dump.
	burn := srv.CheckSLO()
	if burn < 2 {
		t.Fatalf("burn rate %v under the unmeetable SLO, want >= threshold 2", burn)
	}
	if got := srv.SLOBreaches(); got != 1 {
		t.Fatalf("breach episodes = %d, want 1", got)
	}
	if obs.Dumps() == 0 {
		t.Error("SLO breach triggered no flight dump")
	}
	if fi, err := os.Stat(flightPath); err != nil || fi.Size() == 0 {
		t.Errorf("flight dump %s missing or empty: %v", flightPath, err)
	}

	// Tracing never changes simulated time: an untraced server warms to
	// bit-identical machine seconds.
	plain, err := serve.New(serve.Config{
		Net:         "tiny",
		Builder:     acceptanceNet,
		MaxBatch:    4,
		Buckets:     []int{1, 2, 4},
		BatchWindow: time.Millisecond,
		Metrics:     metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	plainSecs, err := plain.Warmup(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for b, want := range plainSecs {
		if got := warmSecs[b]; got != want {
			t.Errorf("bucket %d: machine seconds %v traced, %v untraced (must be bit-identical)", b, got, want)
		}
	}
	if err := plain.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
