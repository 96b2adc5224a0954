package reqtrace

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseTraceparent(t *testing.T) {
	tid := "4bf92f3577b34da6a3ce929d0e0e4736"
	pid := "00f067aa0ba902b7"
	cases := []struct {
		in      string
		ok      bool
		id, par string
	}{
		{"00-" + tid + "-" + pid + "-01", true, tid, pid},
		{"  00-" + tid + "-" + pid + "-00  ", true, tid, pid},
		{"00-" + strings.ToUpper(tid) + "-" + pid + "-01", true, tid, pid},
		{"", false, "", ""},
		{"garbage", false, "", ""},
		{"00-" + tid + "-" + pid, false, "", ""},                             // missing flags
		{"00-" + tid[:31] + "-" + pid + "-01", false, "", ""},                // short trace id
		{"00-" + strings.Repeat("0", 32) + "-" + pid + "-01", false, "", ""}, // all-zero trace id
		{"00-" + tid + "-" + strings.Repeat("0", 16) + "-01", false, "", ""}, // all-zero parent
		{"00-" + tid[:30] + "zz-" + pid + "-01", false, "", ""},              // non-hex
	}
	for _, c := range cases {
		id, par, ok := ParseTraceparent(c.in)
		if ok != c.ok || id != c.id || par != c.par {
			t.Errorf("ParseTraceparent(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.in, id, par, ok, c.id, c.par, c.ok)
		}
	}
}

func TestFormatTraceparentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	if len(tid) != 32 || len(sid) != 16 {
		t.Fatalf("id lengths: trace %d span %d", len(tid), len(sid))
	}
	h := FormatTraceparent(tid, sid)
	gotID, gotPar, ok := ParseTraceparent(h)
	if !ok || gotID != tid || gotPar != sid {
		t.Fatalf("round trip %q -> (%q, %q, %v)", h, gotID, gotPar, ok)
	}
}

func TestRecorderBasics(t *testing.T) {
	rec := Start("")
	if rec.ID() == "" {
		t.Fatal("fresh recorder has empty trace id")
	}
	t0 := rec.start
	rec.Span(PhaseQueue, "queue wait", t0, 2*time.Millisecond, nil)
	rec.AddGroup(PhaseExec, "exec batch", 1, t0.Add(2*time.Millisecond), 3*time.Millisecond,
		map[string]string{"machine_ms": "1.5"})
	tr := rec.Finish(200, false, t0.Add(6*time.Millisecond))
	if tr.ID != rec.ID() || tr.Status != 200 {
		t.Fatalf("trace identity: %+v", tr)
	}
	if got := tr.LatencyMs; got < 5.999 || got > 6.001 {
		t.Fatalf("latency = %v, want 6ms", got)
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(tr.Spans))
	}
	if tr.Spans[0].Phase != PhaseQueue || tr.Spans[0].Group != -1 {
		t.Fatalf("span 0 = %+v", tr.Spans[0])
	}
	if tr.Spans[1].Group != 1 || tr.Spans[1].Args["machine_ms"] != "1.5" {
		t.Fatalf("span 1 = %+v", tr.Spans[1])
	}
	// Post-finish recording and double finish are inert.
	rec.Span(PhaseRespond, "late", t0, time.Millisecond, nil)
	if tr2 := rec.Finish(500, false, t0); tr2.ID != "" {
		t.Fatalf("second Finish returned %+v", tr2)
	}
}

func TestRecorderInheritsTraceparent(t *testing.T) {
	tid := "4bf92f3577b34da6a3ce929d0e0e4736"
	pid := "00f067aa0ba902b7"
	rec := Start("00-" + tid + "-" + pid + "-01")
	if rec.ID() != tid {
		t.Fatalf("trace id = %q, want %q", rec.ID(), tid)
	}
	tr := rec.Finish(200, false, rec.start)
	if tr.Parent != pid {
		t.Fatalf("parent = %q, want %q", tr.Parent, pid)
	}
}

func TestNilRecorderAndSpansInert(t *testing.T) {
	var rec *Recorder
	if rec.ID() != "" {
		t.Fatal("nil recorder id")
	}
	rec.Span(PhaseQueue, "x", time.Now(), 0, nil)
	rec.Import(nil)
	if tr := rec.Finish(200, false, time.Now()); tr.ID != "" {
		t.Fatal("nil Finish not zero")
	}
	var sp *Spans
	sp.Add(PhaseExec, "x", time.Now(), 0, nil)
	if sp.Snapshot() != nil {
		t.Fatal("nil Spans not inert")
	}
	var st *Store
	if st.Add(Trace{ID: "x"}) != "" || st.Get("x") != nil || st.Len() != 0 {
		t.Fatal("nil Store not inert")
	}
}

func TestSpansSnapshotOrderStable(t *testing.T) {
	base := time.Now()
	build := func(order []int) []Span {
		s := &Spans{}
		for _, i := range order {
			s.AddGroup(PhaseExec, fmt.Sprintf("exec g%d", i), i,
				base.Add(time.Duration(i)*time.Millisecond), time.Millisecond, nil)
		}
		return s.Snapshot()
	}
	a := build([]int{0, 1, 2, 3})
	b := build([]int{3, 1, 0, 2})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Group != b[i].Group {
			t.Fatalf("snapshot order differs at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRecorderImportsBatchSpans(t *testing.T) {
	rec := Start("")
	t0 := rec.start
	batch := &Spans{}
	batch.AddGroup(PhaseExec, "exec", 0, t0.Add(time.Millisecond), 2*time.Millisecond, nil)
	batch.Add(PhaseResolve, "resolve conv", t0, 500*time.Microsecond, map[string]string{"cached": "true"})
	rec.Import(batch)
	tr := rec.Finish(200, false, t0.Add(4*time.Millisecond))
	if len(tr.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(tr.Spans))
	}
	// Snapshot sorts by start: resolve (t0) before exec (t0+1ms).
	if tr.Spans[0].Phase != PhaseResolve || tr.Spans[1].Phase != PhaseExec {
		t.Fatalf("import order: %+v", tr.Spans)
	}
	if tr.Spans[1].StartMs < 0.999 || tr.Spans[1].StartMs > 1.001 {
		t.Fatalf("exec start = %v, want 1ms relative", tr.Spans[1].StartMs)
	}
}

func finished(id string, status int, degraded bool, latencyMs float64) Trace {
	return Trace{ID: id, Start: time.Now(), Status: status, Degraded: degraded, LatencyMs: latencyMs}
}

func TestStoreTailSampling(t *testing.T) {
	st := NewStore(StoreOptions{Capacity: 100, SlowMs: 50, SampleRate: 0.5})
	cases := []struct {
		tr   Trace
		want string
	}{
		{finished("a1", 429, false, 0.1), "shed"},
		{finished("a2", 408, false, 10), "deadline"},
		{finished("a3", 503, false, 0.1), "error"},
		{finished("a4", 200, true, 1), "degraded"},
		{finished("a5", 200, false, 75), "slow"},
	}
	for _, c := range cases {
		if got := st.Add(c.tr); got != c.want {
			t.Errorf("Add(%s status=%d) kept as %q, want %q", c.tr.ID, c.tr.Status, got, c.want)
		}
	}
	if st.Len() != len(cases) {
		t.Fatalf("retained %d, want %d", st.Len(), len(cases))
	}
	if tr := st.Get("a5"); tr == nil || tr.Keep != "slow" {
		t.Fatalf("Get(a5) = %+v", tr)
	}

	// Fast 200s: sampled deterministically by trace-ID hash at ~rate.
	kept := 0
	for i := 0; i < 400; i++ {
		if st.Add(finished(fmt.Sprintf("%032x", i), 200, false, 1)) == "sampled" {
			kept++
		}
	}
	if kept < 120 || kept > 280 {
		t.Fatalf("sampled %d/400 at rate 0.5", kept)
	}
	// Decision is deterministic per ID.
	stb := NewStore(StoreOptions{Capacity: 100, SlowMs: 50, SampleRate: 0.5})
	for i := 0; i < 400; i++ {
		id := fmt.Sprintf("%032x", i)
		a, b := st.Get(id) != nil, stb.Add(finished(id, 200, false, 1)) == "sampled"
		// st may have evicted sampled traces; only check positive agreement
		// on the replica's decision function.
		_ = a
		if b != (sampleHash(id) < 0.5) {
			t.Fatalf("sampling not deterministic for %s", id)
		}
	}
}

func TestStoreEvictsSampledBeforeImportant(t *testing.T) {
	st := NewStore(StoreOptions{Capacity: 4, SlowMs: 50, SampleRate: 1})
	st.Add(finished("imp1", 429, false, 0.1))
	st.Add(finished("imp2", 408, false, 1))
	st.Add(finished("s1", 200, false, 1))
	st.Add(finished("s2", 200, false, 1))
	// Store full; an important add must evict a sampled one, not imp1/imp2.
	st.Add(finished("imp3", 200, false, 99))
	if st.Get("imp1") == nil || st.Get("imp2") == nil || st.Get("imp3") == nil {
		t.Fatal("important trace evicted before sampled ones")
	}
	if st.Get("s1") != nil && st.Get("s2") != nil {
		t.Fatal("no sampled trace evicted at capacity")
	}
	stats := st.Stats()
	if stats.Retained != 4 || stats.Evicted != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestStoreCollisionKeepsImportantClass: a retried request reuses its
// traceparent, so a trace first kept as an ordinary sampled 200 can be
// replaced by a shed one with the same ID. The replacement is an
// always-keep trace and must be evicted as one — after the sampled traces,
// not with the class its first occurrence happened to have.
func TestStoreCollisionKeepsImportantClass(t *testing.T) {
	st := NewStore(StoreOptions{Capacity: 4, SlowMs: 50, SampleRate: 1})
	if got := st.Add(finished("x", 200, false, 1)); got != "sampled" {
		t.Fatalf("first occurrence kept as %q, want sampled", got)
	}
	if got := st.Add(finished("x", 429, false, 0.1)); got != "shed" {
		t.Fatalf("retry kept as %q, want shed", got)
	}
	for i := 0; i < 8; i++ { // fill to capacity and evict five times
		st.Add(finished(fmt.Sprintf("s%d", i), 200, false, 1))
	}
	if tr := st.Get("x"); tr == nil || tr.Keep != "shed" {
		t.Fatalf("shed trace x evicted ahead of sampled 200s (got %+v)", tr)
	}
	if stats := st.Stats(); stats.Retained != 4 || stats.Evicted != 5 {
		t.Fatalf("stats = %+v, want 4 retained after 5 evictions", stats)
	}
}

func TestTracezHandler(t *testing.T) {
	st := NewStore(StoreOptions{Capacity: 10, SlowMs: 50, SampleRate: 1})
	rec := Start("")
	t0 := rec.start
	rec.Span(PhaseQueue, "queue wait", t0, time.Millisecond, nil)
	rec.AddGroup(PhaseExec, "exec", 0, t0.Add(time.Millisecond), 2*time.Millisecond, nil)
	tr := rec.Finish(200, false, t0.Add(60*time.Millisecond))
	tr.LatencyMs = 60
	if st.Add(tr) != "slow" {
		t.Fatal("slow trace not kept")
	}
	h := st.Handler()

	// List.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/tracez", nil))
	if rr.Code != 200 {
		t.Fatalf("/tracez status %d", rr.Code)
	}
	var list struct {
		Stats  Stats          `json:"stats"`
		Traces []traceSummary `json:"traces"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &list); err != nil {
		t.Fatalf("list decode: %v", err)
	}
	if len(list.Traces) != 1 || list.Traces[0].ID != tr.ID || list.Traces[0].Keep != "slow" {
		t.Fatalf("list = %+v", list)
	}

	// Detail.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/tracez/"+tr.ID, nil))
	if rr.Code != 200 {
		t.Fatalf("/tracez/<id> status %d", rr.Code)
	}
	var got Trace
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatalf("detail decode: %v", err)
	}
	if got.ID != tr.ID || len(got.Spans) != 2 {
		t.Fatalf("detail = %+v", got)
	}

	// Chrome export: one flame with phase-named tracks.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/tracez/"+tr.ID+"?format=chrome", nil))
	if rr.Code != 200 {
		t.Fatalf("chrome status %d", rr.Code)
	}
	body := rr.Body.String()
	for _, want := range []string{`"queue"`, `"exec"`, `"traceEvents"`, tr.ID} {
		if !strings.Contains(body, want) {
			t.Fatalf("chrome export missing %s in:\n%s", want, body)
		}
	}

	// Miss.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/tracez/deadbeef", nil))
	if rr.Code != 404 {
		t.Fatalf("missing trace status %d", rr.Code)
	}
}

func TestMsArg(t *testing.T) {
	if MsArg(1.5) != "1.5" {
		t.Fatalf("MsArg(1.5) = %q", MsArg(1.5))
	}
}
