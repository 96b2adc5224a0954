package obsrv

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"swatop/internal/metrics"
)

// Server is the embedded introspection server: a stdlib net/http server
// exposing the live state of a tuning or inference process. Endpoints:
//
//	/           index of endpoints (text)
//	/healthz    liveness probe ("ok")
//	/metrics    Prometheus text exposition of the attached registry
//	/statusz    build info, uptime, active jobs (done/valid/failed/best-ms)
//	/events     server-sent events stream of the structured event log
//	/flightz    the flight recorder's retained events as JSON
//	/debug/pprof/  the standard Go profiling handlers
//
// All endpoints are read-only; serving them never mutates tuner state, so
// an attached server preserves the no-result-changes invariant.
type Server struct {
	obs       *Observer
	reg       *metrics.Registry
	component string
	start     time.Time

	mu     sync.Mutex
	ln     net.Listener
	http   *http.Server
	mounts []mount
}

// mount is an extra handler grafted onto the server's mux by Mount.
type mount struct {
	pattern string
	handler http.Handler
	help    string
}

// NewServer builds an introspection server over an observer and a metrics
// registry (either may be nil: endpoints degrade to empty documents).
// component names the process in /statusz ("swatop", "swinfer", ...).
func NewServer(component string, obs *Observer, reg *metrics.Registry) *Server {
	return &Server{obs: obs, reg: reg, component: component, start: time.Now()}
}

// Mount grafts an extra handler onto the introspection surface at pattern
// (e.g. "/tracez" — subtree requests like "/tracez/<id>" are routed too,
// per net/http mux semantics for the registered pattern). help, when given,
// is the one-line description shown on the index page. Must be called
// before Handler/Start; mounted handlers should stay read-only to preserve
// the no-result-changes invariant.
func (s *Server) Mount(pattern string, h http.Handler, help ...string) {
	m := mount{pattern: pattern, handler: h}
	if len(help) > 0 {
		m.help = help[0]
	}
	s.mu.Lock()
	s.mounts = append(s.mounts, m)
	s.mu.Unlock()
}

// Handler returns the server's routing handler — exported so tests can
// drive it through net/http/httptest without binding a port.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/flightz", s.handleFlightz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mu.Lock()
	mounts := append([]mount(nil), s.mounts...)
	s.mu.Unlock()
	for _, m := range mounts {
		mux.Handle(m.pattern, m.handler)
		if m.pattern != "/" && m.pattern[len(m.pattern)-1] != '/' {
			// Route the subtree too, so "/tracez" also answers "/tracez/<id>".
			mux.Handle(m.pattern+"/", m.handler)
		}
	}
	return mux
}

// Start binds addr (":8080", "127.0.0.1:0", ...) and serves in a
// background goroutine, returning the bound address — so ":0" callers
// learn their ephemeral port. Use Close to stop.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obsrv: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.mu.Lock()
	s.ln = ln
	s.http = srv
	s.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the server and unblocks every live /events stream.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.http
	s.http = nil
	s.ln = nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "%s introspection\n\n", s.component)
	for _, ep := range []string{
		"/healthz       liveness probe",
		"/metrics       Prometheus text exposition",
		"/statusz       build info, uptime, active jobs",
		"/events        server-sent events stream of the event log",
		"/flightz       flight-recorder contents as JSON",
		"/debug/pprof/  Go profiling",
	} {
		fmt.Fprintln(w, ep)
	}
	s.mu.Lock()
	mounts := append([]mount(nil), s.mounts...)
	s.mu.Unlock()
	for _, m := range mounts {
		help := m.help
		if help == "" {
			help = "mounted handler"
		}
		fmt.Fprintf(w, "%-14s %s\n", m.pattern, help)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.Snapshot().WritePrometheus(w)
}

// Status is the /statusz document.
type Status struct {
	Component     string      `json:"component"`
	PID           int         `json:"pid"`
	GoVersion     string      `json:"go_version"`
	Revision      string      `json:"revision,omitempty"`
	StartTime     string      `json:"start_time"`
	UptimeSeconds float64     `json:"uptime_seconds"`
	Goroutines    int         `json:"goroutines"`
	Jobs          []JobStatus `json:"jobs"`
	EventsTotal   uint64      `json:"events_total"`
	EventsDropped uint64      `json:"events_dropped"`
	FlightCap     int         `json:"flight_capacity"`
	FlightLen     int         `json:"flight_retained"`
	FlightDumps   uint64      `json:"flight_dumps"`
	Subscribers   int         `json:"subscribers"`
}

// status freezes the current Status document.
func (s *Server) status() Status {
	st := Status{
		Component:     s.component,
		PID:           os.Getpid(),
		GoVersion:     runtime.Version(),
		Revision:      buildRevision(),
		StartTime:     s.start.Format(time.RFC3339),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
		Jobs:          s.obs.Jobs().Snapshot(),
		EventsTotal:   s.obs.Flight().Total(),
		EventsDropped: s.obs.Dropped(),
		FlightCap:     s.obs.Flight().Cap(),
		FlightLen:     s.obs.Flight().Len(),
		FlightDumps:   s.obs.Dumps(),
		Subscribers:   s.obs.Subscribers(),
	}
	if st.Jobs == nil {
		st.Jobs = []JobStatus{}
	}
	return st
}

func buildRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, kv := range info.Settings {
		if kv.Key == "vcs.revision" {
			return kv.Value
		}
	}
	return ""
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.status())
}

func (s *Server) handleFlightz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.obs.WriteFlight(w, "http")
}

// handleEvents streams the structured event log as server-sent events.
// Each event becomes one frame (id/event/data); a comment heartbeat every
// 15 s keeps idle connections alive through proxies. The stream ends when
// the client disconnects or the server closes.
//
// Reconnects resume seamlessly: the frames carry the observer sequence
// number as the SSE id, so a browser EventSource (or any spec-compliant
// client) sends Last-Event-ID on reconnect. Events still retained in the
// flight ring with a higher sequence are replayed first, and the live
// stream is filtered against the highest sequence already written — a
// reconnecting client sees each sequence number at most once, in order.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	var lastID uint64
	replay := false
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			lastID, replay = n, true
		}
	}
	// Subscribe before the banner and before snapshotting the ring so no
	// event falls in a gap: whatever is emitted once the client can read the
	// banner, or appended after the snapshot, is already in the channel, and
	// maxSeq filtering drops the overlap.
	events, cancel := s.obs.Subscribe(512)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": %s event stream\n\n", s.component)
	fl.Flush()

	var buf []byte
	maxSeq := lastID
	if replay {
		for _, e := range s.obs.Flight().Snapshot() {
			if e.Seq <= lastID {
				continue
			}
			buf = e.AppendSSE(buf[:0])
			if _, err := w.Write(buf); err != nil {
				return
			}
			if e.Seq > maxSeq {
				maxSeq = e.Seq
			}
		}
		fl.Flush()
	}

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()

	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case e, open := <-events:
			if !open {
				return // nil observer (closed stub channel) or canceled
			}
			if replay && e.Seq <= maxSeq {
				continue // already replayed from the flight ring
			}
			buf = e.AppendSSE(buf[:0])
			if _, err := w.Write(buf); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
