package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"

	"swatop/internal/obsrv"
	"swatop/internal/reqtrace"
	"swatop/internal/tshist"
)

// Handler returns the daemon's HTTP surface:
//
//	POST /infer    submit one inference request (JSON body, may be empty;
//	               a W3C traceparent header joins the caller's trace)
//	GET  /serverz  serving status: queue, breaker, batch/shed/degraded counts
//	GET  /tracez   tail-sampled request traces (when Config.Trace is set)
//	GET  /varz     time-series history queries (when Config.History is set)
//	...            every read-only introspection endpoint of internal/obsrv
//	               (/healthz, /metrics, /statusz, /events, /flightz, pprof)
//
// Status mapping: 200 served (degraded responses carry "degraded": true),
// 429 shed (queue full, Retry-After set), 503 draining (Retry-After set),
// 408 deadline exceeded. Overload therefore answers every request — with
// a result or an explicit backoff — and never a 5xx.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	obs := obsrv.NewServer("swserve", s.obs, s.reg)
	if s.cfg.Trace != nil {
		obs.Mount("/tracez", s.cfg.Trace.Handler(), "tail-sampled request traces")
	}
	if s.cfg.History != nil {
		obs.Mount("/varz", s.cfg.History.Handler(), tshist.VarzHelp)
	}
	mux.Handle("/", obs.Handler())
	mux.HandleFunc("/infer", s.handleInfer)
	mux.HandleFunc("/serverz", s.handleServerz)
	return mux
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req Request
	if body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20)); err != nil {
		writeJSONError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	} else if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeJSONError(w, http.StatusBadRequest, "bad request JSON: "+err.Error())
			return
		}
	}
	if req.DeadlineMs < 0 {
		writeJSONError(w, http.StatusBadRequest, "negative deadline_ms")
		return
	}
	req.TraceParent = r.Header.Get("traceparent")

	resp, err := s.Submit(r.Context(), req)
	switch {
	case err == nil:
		if resp.TraceID != "" {
			w.Header().Set("traceparent",
				reqtrace.FormatTraceparent(resp.TraceID, reqtrace.NewSpanID()))
		}
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(err, ErrShed):
		s.setRetryAfter(w)
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":          "overloaded: admission queue full",
			"retry_after_ms": s.cfg.RetryAfter.Seconds() * 1e3,
		})
	case errors.Is(err, ErrDraining):
		s.setRetryAfter(w)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":          "draining: server is shutting down",
			"retry_after_ms": s.cfg.RetryAfter.Seconds() * 1e3,
		})
	case errors.Is(err, ErrDeadline):
		writeJSONError(w, http.StatusRequestTimeout, "deadline exceeded")
	case r.Context().Err() != nil:
		// The client is gone; nothing useful can be written.
	default:
		writeJSONError(w, http.StatusInternalServerError, err.Error())
	}
}

// setRetryAfter attaches the standard Retry-After header (whole seconds,
// rounded up — the millisecond-resolution hint lives in the JSON body).
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	secs := int(math.Ceil(s.cfg.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
}

// ServerStatus is the /serverz document.
type ServerStatus struct {
	Net           string  `json:"net"`
	Groups        int     `json:"groups,omitempty"`
	Pipeline      bool    `json:"pipeline,omitempty"`
	MaxBatch      int     `json:"max_batch"`
	BatchWindowMs float64 `json:"batch_window_ms"`
	Buckets       []int   `json:"buckets"`
	QueueCap      int     `json:"queue_capacity"`
	QueueDepth    int     `json:"queue_depth"`
	Draining      bool    `json:"draining"`
	Breaker       string  `json:"breaker"`
	BreakerTrips  uint64  `json:"breaker_trips"`
	Admitted      int64   `json:"admitted_total"`
	Responses     int64   `json:"responses_total"`
	Shed          int64   `json:"shed_total"`
	Expired       int64   `json:"deadline_expired_total"`
	Degraded      int64   `json:"degraded_total"`
	Batches       int64   `json:"batches_total"`
	BatchFailures int64   `json:"batch_failures_total"`
	// Tracing/SLO report the observability guardrails when configured.
	Tracing *reqtrace.Stats `json:"tracing,omitempty"`
	SLO     *SLOStatus      `json:"slo,omitempty"`
}

// SLOStatus is the /serverz view of the SLO guardrail.
type SLOStatus struct {
	P99TargetMs  float64 `json:"p99_target_ms,omitempty"`
	Availability float64 `json:"availability,omitempty"`
	BurnRate     float64 `json:"burn_rate"`
	Threshold    float64 `json:"burn_threshold"`
	Breaches     uint64  `json:"breaches_total"`
}

// Status freezes the current serving state.
func (s *Server) Status() ServerStatus {
	var tracing *reqtrace.Stats
	if s.cfg.Trace != nil {
		st := s.cfg.Trace.Stats()
		tracing = &st
	}
	var slo *SLOStatus
	if s.cfg.SLO != nil {
		slo = &SLOStatus{
			P99TargetMs:  s.cfg.SLO.P99TargetMs,
			Availability: s.cfg.SLO.Availability,
			BurnRate:     s.SLOBurnRate(),
			Threshold:    s.cfg.SLO.burnThreshold(),
			Breaches:     s.SLOBreaches(),
		}
	}
	return ServerStatus{
		Net:           s.cfg.Net,
		Groups:        s.cfg.Groups,
		Pipeline:      s.cfg.Pipeline,
		MaxBatch:      s.cfg.MaxBatch,
		BatchWindowMs: s.cfg.BatchWindow.Seconds() * 1e3,
		Buckets:       s.Buckets(),
		QueueCap:      s.cfg.QueueDepth,
		QueueDepth:    len(s.queue),
		Draining:      s.Draining(),
		Breaker:       s.breaker.State(),
		BreakerTrips:  s.breaker.Trips(),
		Admitted:      s.reg.Counter("serve_admitted_total").Value(),
		Responses:     s.reg.Counter("serve_responses_total").Value(),
		Shed:          s.reg.Counter("serve_shed_total").Value(),
		Expired:       s.reg.Counter("serve_deadline_expired_total").Value(),
		Degraded:      s.reg.Counter("serve_degraded_total").Value(),
		Batches:       s.reg.Counter("serve_batches_total").Value(),
		BatchFailures: s.reg.Counter("serve_batch_failures_total").Value(),
		Tracing:       tracing,
		SLO:           slo,
	}
}

func (s *Server) handleServerz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Status())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
