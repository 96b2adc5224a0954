package obsrv

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"swatop/internal/metrics"
)

func newTestServer(t *testing.T) (*Server, *Observer, *metrics.Registry) {
	t.Helper()
	obs := New()
	reg := metrics.NewRegistry()
	return NewServer("swtest", obs, reg), obs, reg
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func TestServerHealthzAndIndex(t *testing.T) {
	s, _, _ := newTestServer(t)
	h := s.Handler()
	rec := get(t, h, "/healthz")
	if rec.Code != 200 || strings.TrimSpace(rec.Body.String()) != "ok" {
		t.Fatalf("/healthz: %d %q", rec.Code, rec.Body.String())
	}
	rec = get(t, h, "/")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "swtest introspection") {
		t.Fatalf("/: %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, h, "/nope"); rec.Code != 404 {
		t.Fatalf("unknown path served %d", rec.Code)
	}
}

func TestServerMetrics(t *testing.T) {
	s, _, reg := newTestServer(t)
	reg.Counter("autotune_candidates_total").Add(3)
	reg.Histogram("exec_run_seconds", 0.01, 0.1).Observe(0.05)
	h := s.Handler()

	rec := get(t, h, "/metrics")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# HELP autotune_candidates_total",
		"# TYPE autotune_candidates_total counter",
		"autotune_candidates_total 3",
		`exec_run_seconds_bucket{le="+Inf"} 1`,
		"exec_run_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestServerStatusz(t *testing.T) {
	s, obs, _ := newTestServer(t)
	j := obs.Jobs().Start("tune", "gemm_1024")
	j.Progress(10, 8, 1, 2.5)
	obs.Emit(LevelInfo, "tune.start")

	rec := get(t, s.Handler(), "/statusz")
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Component != "swtest" || st.PID == 0 || st.GoVersion == "" {
		t.Fatalf("bad build header: %+v", st)
	}
	if st.EventsTotal != 1 || st.FlightCap != DefaultFlightCapacity || st.FlightLen != 1 {
		t.Fatalf("bad event accounting: %+v", st)
	}
	if len(st.Jobs) != 1 {
		t.Fatalf("jobs: %+v", st.Jobs)
	}
	job := st.Jobs[0]
	if job.Name != "gemm_1024" || job.State != JobRunning ||
		job.Done != 10 || job.Valid != 8 || job.Failed != 1 || job.BestMs != 2.5 {
		t.Fatalf("job status: %+v", job)
	}
}

func TestServerFlightz(t *testing.T) {
	s, obs, _ := newTestServer(t)
	obs.Emit(LevelWarn, "candidate.failed", F("error", "boom"))
	rec := get(t, s.Handler(), "/flightz")
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("/flightz not JSON: %s", rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "candidate.failed") {
		t.Fatalf("/flightz missing event: %s", rec.Body.String())
	}
}

// TestServerEventsSSE drives the live stream end to end over a real
// socket: subscribe, emit, and check the id/event/data framing.
func TestServerEventsSSE(t *testing.T) {
	s, obs, _ := newTestServer(t)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// Wait for the subscription to be registered before emitting, then
	// emit two events and read frames off the stream.
	deadline := time.Now().Add(5 * time.Second)
	for obs.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}
	obs.Emit(LevelInfo, "tune.start", F("op", "gemm_64"))
	obs.Emit(LevelWarn, "candidate.retry", F("attempt", 2))

	r := bufio.NewReader(resp.Body)
	var frames []map[string]string
	frame := map[string]string{}
	for len(frames) < 2 {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended early: %v (frames %v)", err, frames)
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case strings.HasPrefix(line, ":"): // comment / heartbeat
		case line == "":
			if len(frame) > 0 {
				frames = append(frames, frame)
				frame = map[string]string{}
			}
		default:
			k, v, ok := strings.Cut(line, ": ")
			if !ok {
				t.Fatalf("malformed SSE line %q", line)
			}
			frame[k] = v
		}
	}
	if frames[0]["event"] != "tune.start" || frames[0]["id"] != "1" {
		t.Fatalf("first frame: %v", frames[0])
	}
	if frames[1]["event"] != "candidate.retry" {
		t.Fatalf("second frame: %v", frames[1])
	}
	var payload struct {
		Kind   string            `json:"kind"`
		Fields map[string]string `json:"fields"`
	}
	if err := json.Unmarshal([]byte(frames[1]["data"]), &payload); err != nil {
		t.Fatalf("data line not JSON: %v", err)
	}
	if payload.Kind != "candidate.retry" || payload.Fields["attempt"] != "2" {
		t.Fatalf("payload: %+v", payload)
	}
}

func TestServerCloseUnblocksStream(t *testing.T) {
	s, _, _ := newTestServer(t)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	done := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		close(done)
	}()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end on server close")
	}
}

// TestServerEventsSSESlowConsumer wedges a real SSE client (connected but
// never reading) under sustained event load: the bounded fanout must drop
// events for that subscriber rather than block the emitters, and a healthy
// concurrent subscriber must keep receiving. This is the serving daemon's
// guarantee that a stuck dashboard cannot stall — or perturb — the
// deterministic execution path.
func TestServerEventsSSESlowConsumer(t *testing.T) {
	s, obs, _ := newTestServer(t)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A wedged consumer: the HTTP response body is never read, so once the
	// client-side transport buffer and the TCP windows fill, the /events
	// handler goroutine blocks on the socket — and its 512-event channel
	// overflows.
	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for obs.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("SSE subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}

	// A healthy subscriber drained continuously, to show isolation.
	healthy, cancel := obs.Subscribe(512)
	defer cancel()
	var received atomic.Int64
	go func() {
		for range healthy {
			received.Add(1)
		}
	}()

	// Sustained load: emit until the wedged stream has dropped events. The
	// emitting (execution-path) goroutine must never block: bound the whole
	// loop's wall clock, far above healthy emit cost and far below forever.
	const batch = 10_000
	start := time.Now()
	for i := 0; obs.Dropped() == 0; i++ {
		if time.Since(start) > 20*time.Second {
			t.Fatalf("no drops after %d events — fanout is buffering unboundedly or blocking", i*batch)
		}
		for j := 0; j < batch; j++ {
			obs.Emit(LevelInfo, "load.tick", F("i", i*batch+j))
		}
	}
	if obs.Dropped() == 0 {
		t.Fatal("wedged SSE consumer dropped nothing")
	}
	// The healthy subscriber kept receiving despite the wedged peer.
	deadline = time.Now().Add(5 * time.Second)
	for received.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("healthy subscriber starved by a wedged peer")
		}
		time.Sleep(time.Millisecond)
	}
	// And emitting stayed non-blocking: had Emit blocked on the wedged
	// subscriber even once, the loop above would have hung, not returned.
	if obs.Subscribers() != 2 {
		t.Fatalf("Subscribers = %d, want the wedged and the healthy one", obs.Subscribers())
	}
}
