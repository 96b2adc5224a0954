package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer of the stack. Times are nanoseconds since the recorder started.
// Spans of one operation (tuning pass, inference run, request) share OpID.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	OpID   int    `json:"op_id"`
}

// layerBench marks spans around real, undecomposed operations. They are
// kept in the trace for the timeline but carry no layer attribution: the
// re-enacted spans beside them do.
const layerBench = "bench"

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the same pass runs with tracing off to
// measure the tracing overhead.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(parent, op int, name, layer string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Layer: layer, Parent: parent, OpID: op,
		Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records an interval measured elsewhere — the phase fields a
// serve.Response carries, laid end to end under the request's span.
func (r *recorder) add(parent, op int, name, layer string, start time.Time, d time.Duration) int {
	if r == nil {
		return -1
	}
	s := int64(start.Sub(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Layer: layer, Parent: parent, OpID: op,
		Start: s, End: s + int64(d)})
	return len(r.spans) - 1
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children counted
// once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// spanTotal is the summed duration, summed self time and count of the
// spans sharing one name.
type spanTotal struct {
	ns, self int64
	n        int
}

// perCall is the mean duration of one span of this name, in nanoseconds.
func (t spanTotal) perCall() float64 { return ratio(float64(t.ns), float64(t.n)) }

func totalsByName(spans []span) map[string]spanTotal {
	out := map[string]spanTotal{}
	for i, self := range selfTimes(spans) {
		s := spans[i]
		t := out[s.Name]
		t.ns += s.End - s.Start
		t.self += self
		t.n++
		out[s.Name] = t
	}
	return out
}

// selfByLayer sums self time per layer over every attributed span.
func selfByLayer(spans []span) (byLayer map[string]int64, total int64) {
	byLayer = map[string]int64{}
	for i, self := range selfTimes(spans) {
		if spans[i].Layer == layerBench {
			continue
		}
		byLayer[spans[i].Layer] += self
		total += self
	}
	return byLayer, total
}
