package tshist

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// DefaultWindow is the window /varz queries use when the request does not
// carry one.
const DefaultWindow = 60 * time.Second

// VarzHelp is the one-line description the servers mounting Handler list
// beside /varz.
const VarzHelp = "time-series history: windowed counter rates, histogram percentiles, fleet utilization (JSON)"

// varzIndex is the GET /varz document.
type varzIndex struct {
	LastScrape  string       `json:"last_scrape,omitempty"`
	Ingests     int64        `json:"ingests"`
	Capacity    int          `json:"capacity"`
	Series      []SeriesInfo `json:"series"`
	Utilization []GroupUtil  `json:"utilization,omitempty"`
}

// Handler serves the time-series history as JSON:
//
//	GET /varz                      index: series list + fleet utilization
//	GET /varz/<metric>?window=60s  windowed samples + derived rate /
//	                               percentiles for one series
//
// Read-only by construction (it only queries the store), so mounting it on
// the introspection server preserves the no-result-changes invariant.
func (s *Store) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		window, err := ParseWindow(r.URL.Query().Get("window"), DefaultWindow)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		name := strings.Trim(strings.TrimPrefix(r.URL.Path, "/varz"), "/")
		if name == "" {
			s.serveIndex(w, window)
			return
		}
		result, ok := s.Query(name, window)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown series %q", name), http.StatusNotFound)
			return
		}
		writeJSON(w, result)
	})
}

func (s *Store) serveIndex(w http.ResponseWriter, window time.Duration) {
	last, ingests := s.LastIngest()
	doc := varzIndex{
		Ingests:     ingests,
		Capacity:    s.Capacity(),
		Series:      s.Series(),
		Utilization: s.FleetUtilization(window),
	}
	if !last.IsZero() {
		doc.LastScrape = last.UTC().Format(time.RFC3339Nano)
	}
	if doc.Series == nil {
		doc.Series = []SeriesInfo{}
	}
	writeJSON(w, doc)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// ParseWindow parses a /varz window parameter: a Go duration string
// ("60s", "5m"); empty yields the fallback.
func ParseWindow(s string, fallback time.Duration) (time.Duration, error) {
	if s == "" {
		return fallback, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("tshist: bad duration %q: %w", s, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("tshist: negative duration %q", s)
	}
	return d, nil
}
