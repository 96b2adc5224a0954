package reqtrace

import (
	"encoding/json"
	"net/http"
	"strings"

	"swatop/internal/trace"
)

// traceSummary is one row of the /tracez listing.
type traceSummary struct {
	ID        string  `json:"trace_id"`
	Status    int     `json:"status"`
	Degraded  bool    `json:"degraded,omitempty"`
	LatencyMs float64 `json:"latency_ms"`
	Keep      string  `json:"keep_reason"`
	Spans     int     `json:"spans"`
	Start     string  `json:"start"`
}

// Handler serves the trace store:
//
//	/tracez          — store stats + retained trace summaries, newest first
//	/tracez/<id>     — full span tree of one trace (JSON)
//	/tracez/<id>?format=chrome — the same trace as a Chrome/Perfetto flame
//
// Mount it at /tracez on an observability mux.
func (st *Store) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if st == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		id := strings.Trim(strings.TrimPrefix(r.URL.Path, "/tracez"), "/")
		if id == "" {
			st.serveList(w)
			return
		}
		tr := st.Get(id)
		if tr == nil {
			http.Error(w, "trace not found (evicted or not sampled)", http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition", "attachment; filename=trace-"+tr.ID+".json")
			_ = tr.ChromeLog().WriteChromeTrace(w)
			return
		}
		writeTraceJSON(w, tr)
	})
}

func (st *Store) serveList(w http.ResponseWriter) {
	traces := st.Traces()
	rows := make([]traceSummary, 0, len(traces))
	for _, tr := range traces {
		rows = append(rows, traceSummary{
			ID:        tr.ID,
			Status:    tr.Status,
			Degraded:  tr.Degraded,
			LatencyMs: tr.LatencyMs,
			Keep:      tr.Keep,
			Spans:     len(tr.Spans),
			Start:     tr.Start.Format("2006-01-02T15:04:05.000Z07:00"),
		})
	}
	writeTraceJSON(w, struct {
		Stats  Stats          `json:"stats"`
		Traces []traceSummary `json:"traces"`
	}{st.Stats(), rows})
}

func writeTraceJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// ChromeLog converts the trace into a machine-timeline Log whose Kinds are
// the request phases, so the existing Chrome/Perfetto exporter renders the
// request as one flame: queue/batch/respond on the serve lane (group -1
// is clamped to 0), exec/comm on their core-group lanes. Span times become
// "seconds" on the export clock (the exporter multiplies by 1e6, so
// milliseconds land as microseconds-scale units in the viewer — relative
// proportions, the thing a flame shows, are exact).
func (tr *Trace) ChromeLog() *trace.Log {
	l := &trace.Log{}
	for _, sp := range tr.Spans {
		g := sp.Group
		if g < 0 {
			g = 0
		}
		name := sp.Name
		if name == "" {
			name = sp.Phase
		}
		l.Events = append(l.Events, trace.Event{
			Kind:  trace.Kind(sp.Phase),
			Label: name,
			Start: sp.StartMs / 1e3,
			Dur:   sp.DurMs / 1e3,
			Group: g,
			Args:  sp.Args,
		})
	}
	l.Tag(0, map[string]string{"trace_id": tr.ID})
	return l
}
