// Package reqtrace is request-scoped distributed tracing for the serving
// path: every request admitted by the swserve daemon gets a trace ID (W3C
// traceparent, parsed from and emitted on HTTP) and a tree of spans —
// admit, queue-wait, batch-formation, schedule-resolve, per-group
// execution, inter-group comm, respond — each carrying the same
// Args-style metadata the machine timeline (internal/trace) uses, so a
// single request renders as one flame in the Chrome/Perfetto exporter.
//
// The package follows the repo's two observability rules:
//
//   - Nil receivers are inert: the Recorder and Spans collectors are safe
//     to call unconditionally, so the serving and inference hot paths
//     carry no branching around tracing.
//   - Tracing is purely observational. Spans record wall-clock intervals
//     around deterministic simulated work; they never feed back into
//     schedule selection or the simulated machine, so per-group machine
//     seconds stay bit-identical with tracing on or off.
package reqtrace

import (
	"cmp"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// Span phases, in causal order along the serving path.
const (
	PhaseAdmit   = "admit"   // Submit: admission decision
	PhaseQueue   = "queue"   // enqueue -> batcher pickup
	PhaseBatch   = "batch"   // batcher pickup -> batch dispatch (window fill)
	PhaseResolve = "resolve" // per-operator schedule resolution (cache/tune)
	PhaseExec    = "exec"    // per-group batch execution
	PhaseComm    = "comm"    // modeled inter-group communication share
	PhaseRespond = "respond" // batch done -> outcome delivered
)

// Span is one wall-clock interval of a request's life. Collectors record
// it at absolute times; Recorder.Finish adds the trace-relative
// milliseconds, which is what /tracez serves.
type Span struct {
	Phase string `json:"phase"`
	Name  string `json:"name"`
	// Start and Dur are the interval as recorded.
	Start time.Time     `json:"-"`
	Dur   time.Duration `json:"-"`
	// StartMs/DurMs are the same interval in milliseconds relative to the
	// trace start (zero until the trace is finished).
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"dur_ms"`
	// Group is the simulated core group for exec/comm spans (-1 when the
	// span is not group-bound).
	Group int `json:"group"`
	// Args carries span metadata (cached/degraded flags, strategy,
	// machine milliseconds, comm src/dst groups, ...).
	Args map[string]string `json:"args,omitempty"`
}

// Trace is one finished request: identity, outcome and the span tree.
type Trace struct {
	// ID is the 16-byte W3C trace id in lowercase hex.
	ID string `json:"trace_id"`
	// Parent is the 8-byte parent span id from an incoming traceparent
	// header ("" when the trace originated here).
	Parent string `json:"parent_span_id,omitempty"`
	// Start is the wall-clock admission time.
	Start time.Time `json:"start"`
	// Status is the request's terminal HTTP status (200, 408, 429, 503).
	Status int `json:"status"`
	// Degraded marks a response served by the baseline-fallback path.
	Degraded bool `json:"degraded,omitempty"`
	// LatencyMs is the end-to-end wall latency.
	LatencyMs float64 `json:"latency_ms"`
	// Keep records why the store retained the trace ("slow", "shed",
	// "deadline", "degraded", "error", "sampled").
	Keep string `json:"keep_reason,omitempty"`
	// Spans is the span tree in recording order.
	Spans []Span `json:"spans"`
}

// traceparent implements the W3C Trace Context header:
//
//	00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>
const traceparentVersion = "00"

// ParseTraceparent extracts the trace id and parent span id from a W3C
// traceparent value. It returns ok=false (and empty ids) for anything
// malformed — a bad header starts a fresh trace instead of failing the
// request.
func ParseTraceparent(h string) (traceID, parentID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 4 || len(parts[0]) != 2 {
		return "", "", false
	}
	tid, pid := strings.ToLower(parts[1]), strings.ToLower(parts[2])
	if !isHex(tid, 32) || !isHex(pid, 16) || !isHex(strings.ToLower(parts[3]), 2) {
		return "", "", false
	}
	if tid == strings.Repeat("0", 32) || pid == strings.Repeat("0", 16) {
		return "", "", false
	}
	return tid, pid, true
}

// FormatTraceparent renders the header value for a trace id and span id,
// with the sampled flag set (the daemon decides retention tail-based, but
// downstream services should keep collecting).
func FormatTraceparent(traceID, spanID string) string {
	return traceparentVersion + "-" + traceID + "-" + spanID + "-01"
}

func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for _, r := range s {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// NewTraceID returns a fresh random 32-hex-char trace id.
func NewTraceID() string { return randomHex(16) }

// NewSpanID returns a fresh random 16-hex-char span id.
func NewSpanID() string { return randomHex(8) }

func randomHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand never fails on supported platforms; keep the id
		// non-empty anyway so traces stay addressable.
		for i := range b {
			b[i] = byte(i + 1)
		}
	}
	return hex.EncodeToString(b)
}

// Recorder collects one request's spans: a Spans collector (the admitting
// goroutine and the batcher both record) with the trace's identity and
// start. Nil-inert.
type Recorder struct {
	Spans
	id    string
	paren string
	start time.Time
}

// Start begins a trace for one request. traceparent is the incoming
// header value ("" or malformed starts a fresh trace).
func Start(traceparent string) *Recorder {
	r := &Recorder{start: time.Now()}
	if tid, pid, ok := ParseTraceparent(traceparent); ok {
		r.id, r.paren = tid, pid
	} else {
		r.id = NewTraceID()
	}
	return r
}

// ID returns the trace id ("" on a nil recorder).
func (r *Recorder) ID() string {
	if r == nil {
		return ""
	}
	return r.id
}

// Span records one non-group interval. Nil-safe; spans recorded after
// Finish are dropped (the trace is already in the store).
func (r *Recorder) Span(phase, name string, start time.Time, dur time.Duration, args map[string]string) {
	if r != nil {
		r.Add(phase, name, start, dur, args)
	}
}

// Import copies a batch-level span set into this request's trace — every
// member of a coalesced batch shares the resolve/exec/comm spans, at the
// same absolute wall times.
func (r *Recorder) Import(s *Spans) {
	if r != nil {
		r.add(s.Snapshot()...)
	}
}

// Finish seals the trace with its terminal status and converts its spans
// to trace-relative milliseconds. latency is measured from the trace start.
// Returns the zero Trace on a nil recorder; calling Finish twice returns an
// empty second trace.
func (r *Recorder) Finish(status int, degraded bool, end time.Time) Trace {
	if r == nil {
		return Trace{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sealed {
		return Trace{}
	}
	r.sealed = true
	for i := range r.spans {
		sp := &r.spans[i]
		sp.StartMs, sp.DurMs = sp.Start.Sub(r.start).Seconds()*1e3, sp.Dur.Seconds()*1e3
	}
	return Trace{
		ID:        r.id,
		Parent:    r.paren,
		Start:     r.start,
		Status:    status,
		Degraded:  degraded,
		LatencyMs: end.Sub(r.start).Seconds() * 1e3,
		Spans:     r.spans,
	}
}

// Spans is a concurrency-safe span collector. As a batch-level set the
// engine's resolve loop and the fleet's concurrent group goroutines all
// record into it, and the batcher imports the result into every member
// request's Recorder, which is itself one. Nil-inert.
type Spans struct {
	mu     sync.Mutex
	spans  []Span
	sealed bool // a finished Recorder's: later spans are dropped
}

// Add records one non-group span.
func (s *Spans) Add(phase, name string, start time.Time, dur time.Duration, args map[string]string) {
	s.AddGroup(phase, name, -1, start, dur, args)
}

// AddGroup records one group-bound span (exec/comm).
func (s *Spans) AddGroup(phase, name string, group int, start time.Time, dur time.Duration, args map[string]string) {
	if s != nil {
		s.add(Span{Phase: phase, Name: name, Group: group, Start: start, Dur: dur, Args: args})
	}
}

func (s *Spans) add(spans ...Span) {
	s.mu.Lock()
	if !s.sealed {
		s.spans = append(s.spans, spans...)
	}
	s.mu.Unlock()
}

// Snapshot copies the collected spans, ordered by start time, then group,
// then phase and name: concurrent group goroutines append in scheduler
// order, and a total order keeps snapshots of the same spans identical
// whatever the interleaving.
func (s *Spans) Snapshot() []Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := slices.Clone(s.spans)
	s.mu.Unlock()
	slices.SortStableFunc(out, func(a, b Span) int {
		return cmp.Or(a.Start.Compare(b.Start), cmp.Compare(a.Group, b.Group),
			cmp.Compare(a.Phase, b.Phase), cmp.Compare(a.Name, b.Name))
	})
	return out
}

// MsArg formats a millisecond value for span Args.
func MsArg(ms float64) string { return fmt.Sprintf("%.6g", ms) }
