// Package obsrv is the live half of the repo's observability story:
// internal/metrics makes a finished run inspectable, obsrv makes a
// *running* one inspectable. It provides
//
//   - a structured, leveled event hub (Observer), nil-receiver inert like
//     internal/metrics, that every layer — the autotuner, the executor,
//     the schedule cache, the inference runtime — emits
//     candidate/measurement/cache/layer events into;
//   - a fixed-capacity ring buffer (Ring) that retains the most recent
//     events as a flight recorder, dumped as JSON when a tune fails, falls
//     back to baseline, or the process receives SIGQUIT;
//   - a JobTracker publishing each in-flight tuning or inference job's
//     done/valid/failed/best-ms progress;
//   - an embedded, optional HTTP server (Server) exposing /metrics
//     (Prometheus text), /healthz, /statusz, /events
//     (server-sent events) and /debug/pprof — stdlib only.
//
// The cardinal rule, inherited from PR 4: attaching observability changes
// no tuning result. Observers never touch the metrics registry or any
// tuner state; event emission is bounded work (a ring append plus
// non-blocking subscriber sends), and slow subscribers lose events rather
// than stall the pipeline.
package obsrv

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Level is an event's severity, with log/slog's numeric values. It labels
// the event in the flight dump and the /events stream; the ring and the
// subscribers receive every level.
type Level int

// Event severity levels (slog-compatible values).
const (
	LevelDebug Level = -4
	LevelInfo  Level = 0
	LevelWarn  Level = 4
	LevelError Level = 8
)

// String renders the level the way slog does.
func (l Level) String() string {
	switch {
	case l < LevelInfo:
		return "DEBUG"
	case l < LevelWarn:
		return "INFO"
	case l < LevelError:
		return "WARN"
	default:
		return "ERROR"
	}
}

// Field is one ordered key/value pair of an event. Values are formatted at
// emission time so events are immutable snapshots, never live references
// into tuner state.
type Field struct {
	Key   string
	Value string
}

// F builds a field, formatting the value with the default fmt verb.
func F(key string, value any) Field {
	switch v := value.(type) {
	case string:
		return Field{Key: key, Value: v}
	case error:
		return Field{Key: key, Value: v.Error()}
	case float64:
		return Field{Key: key, Value: strconv.FormatFloat(v, 'g', -1, 64)}
	case int:
		return Field{Key: key, Value: strconv.Itoa(v)}
	case int64:
		return Field{Key: key, Value: strconv.FormatInt(v, 10)}
	case bool:
		return Field{Key: key, Value: strconv.FormatBool(v)}
	default:
		return Field{Key: key, Value: fmt.Sprint(value)}
	}
}

// Ms formats a duration in seconds as a millisecond field, the unit every
// progress surface reports candidate times in.
func Ms(key string, seconds float64) Field {
	return Field{Key: key, Value: strconv.FormatFloat(seconds*1e3, 'g', 6, 64)}
}

// Event is one structured occurrence: a candidate finishing, a cache hit,
// a layer resolving. Kind is a dotted hierarchical name
// ("candidate.retry", "cache.quarantine", "layer.resolved"); Fields keep
// emission order, so encodings are deterministic for deterministic inputs.
type Event struct {
	// Seq is the observer-assigned monotone sequence number (also the SSE
	// event id, so reconnecting clients can spot gaps).
	Seq uint64
	// Time is the wall-clock emission time.
	Time time.Time
	// Level is the event's severity.
	Level Level
	// Kind names what happened.
	Kind string
	// Fields carries the structured payload in emission order.
	Fields []Field
}

// AppendJSON appends the event as a single-line JSON object. The encoding
// is deliberately hand-rolled (ordered fields, no reflection on the hot
// path) but delegates string escaping to encoding/json, so arbitrary
// bytes — including invalid UTF-8 — always yield valid, newline-free JSON.
func (e Event) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	dst = append(dst, `,"time":`...)
	dst = appendJSONString(dst, e.Time.Format(time.RFC3339Nano))
	dst = append(dst, `,"level":`...)
	dst = appendJSONString(dst, e.Level.String())
	dst = append(dst, `,"kind":`...)
	dst = appendJSONString(dst, e.Kind)
	if len(e.Fields) > 0 {
		dst = append(dst, `,"fields":{`...)
		for i, f := range e.Fields {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, f.Key)
			dst = append(dst, ':')
			dst = appendJSONString(dst, f.Value)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// JSON returns the event as one JSON line (no trailing newline).
func (e Event) JSON() []byte { return e.AppendJSON(nil) }

// appendJSONString appends s as a JSON string literal via encoding/json,
// which escapes quotes, control characters and replaces invalid UTF-8.
func appendJSONString(dst []byte, s string) []byte {
	b, err := json.Marshal(s)
	if err != nil { // cannot happen for a string; keep the frame well-formed
		return append(dst, `""`...)
	}
	return append(dst, b...)
}

// AppendSSE appends the event as one server-sent-events frame:
//
//	id: <seq>
//	event: <kind>
//	data: <json>
//	<blank line>
//
// The event name is sanitized (SSE field values must be newline-free) and
// the data line is the AppendJSON encoding, which never contains raw
// newlines — so a frame can never be broken open by hostile field content.
func (e Event) AppendSSE(dst []byte) []byte {
	dst = append(dst, "id: "...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	dst = append(dst, "\nevent: "...)
	dst = append(dst, sanitizeSSEName(e.Kind)...)
	dst = append(dst, "\ndata: "...)
	dst = e.AppendJSON(dst)
	return append(dst, '\n', '\n')
}

// sanitizeSSEName strips the characters that would terminate or split an
// SSE field line.
func sanitizeSSEName(s string) string {
	if !strings.ContainsAny(s, "\r\n") {
		return s
	}
	r := strings.NewReplacer("\r", "", "\n", "")
	return r.Replace(s)
}
