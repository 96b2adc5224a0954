// Package tshist is the in-process time-series history behind /varz: a
// dependency-free, bounded store of metrics.Registry snapshots, and the
// derived queries a point-in-time snapshot cannot answer — rate-over-window
// for counters, windowed nearest-rank percentiles for histograms, and
// per-core-group utilization (compute vs stall vs comm seconds) for the
// fleet.
//
// Design rules, inherited from the rest of the observability stack:
//
//   - Bounded by construction: the store is one fixed-capacity ring of
//     (time, snapshot) pairs, one per scrape. Memory is O(series x capacity)
//     forever, and retention is capacity x scrape interval: 6 minutes at the
//     default 1 s, 6 hours at -scrape-interval 60s. A window longer than
//     what is retained is answered from what is retained.
//   - Observers never change results: the scraper only calls
//     Registry.Snapshot (a read), so simulated machine seconds and selected
//     schedules are bit-identical with history enabled or disabled — the
//     invariant `make obs-check` gates.
//   - Every metric is cumulative or instantaneous, so a windowed answer is
//     a difference between (or a fold over) the snapshots inside the window;
//     nothing is pre-aggregated per series.
//
// Timestamps are supplied by the caller (the Scraper's clock, or a test's
// synthetic clock) — the store itself never reads the wall clock, which is
// what makes windowed queries unit-testable against synthetic series.
package tshist

import (
	"sort"
	"strings"
	"sync"
	"time"

	"swatop/internal/metrics"
)

// DefaultCapacity is the number of snapshots the ring retains.
const DefaultCapacity = 360

// Options configure a Store.
type Options struct {
	// Capacity is the number of snapshots retained (DefaultCapacity when
	// not positive).
	Capacity int
}

// sample is one scrape: the registry's state at unix millisecond ms.
type sample struct {
	ms   int64
	snap metrics.Snapshot
}

// Series kinds, mirroring the registry's metric types.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Store is the bounded time-series history. All methods are safe for
// concurrent use; Ingest is typically called by one Scraper goroutine
// while HTTP handlers query.
type Store struct {
	mu      sync.RWMutex
	ring    []sample // circular; the oldest of the n retained is at head
	head, n int
	ingests int64
}

// New creates a store.
func New(opts Options) *Store {
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{ring: make([]sample, capacity)}
}

// Capacity reports how many snapshots the store retains.
func (s *Store) Capacity() int { return len(s.ring) }

// at returns the i-th retained sample, oldest first. Caller holds s.mu.
func (s *Store) at(i int) *sample { return &s.ring[(s.head+i)%len(s.ring)] }

// Ingest records one registry snapshot taken at time t, evicting the
// oldest when the ring is full. The store keeps snap's maps, so the caller
// must not write to them afterwards (Registry.Snapshot returns fresh ones).
// A timestamp older than the newest retained one is dropped: the ring stays
// in time order, which the window search relies on (the scraper's clock is
// monotonic in practice). Nil-safe on the store.
func (s *Store) Ingest(t time.Time, snap metrics.Snapshot) {
	if s == nil {
		return
	}
	ms := t.UnixMilli()
	snap.Help = nil // descriptive text, not data: not worth a copy per scrape
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ingests++
	if s.n > 0 && ms < s.at(s.n-1).ms {
		return
	}
	if s.n < len(s.ring) {
		s.n++
	} else {
		s.head = (s.head + 1) % len(s.ring)
	}
	*s.at(s.n - 1) = sample{ms: ms, snap: snap}
}

// LastIngest reports the newest retained timestamp (zero time when empty)
// and the total number of ingests.
func (s *Store) LastIngest() (time.Time, int64) {
	if s == nil {
		return time.Time{}, 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.n == 0 {
		return time.Time{}, s.ingests
	}
	return time.UnixMilli(s.at(s.n - 1).ms), s.ingests
}

// SeriesInfo is the /varz index entry for one series.
type SeriesInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Last is the newest scalar value (counters/gauges); for histograms
	// it is the cumulative observation count.
	Last float64 `json:"last"`
}

// Series lists every series of the newest snapshot, sorted by name (a
// registry never forgets a metric, so the newest snapshot names them all).
func (s *Store) Series() []SeriesInfo {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.n == 0 {
		return nil
	}
	snap := s.at(s.n - 1).snap
	out := make([]SeriesInfo, 0, len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms))
	for name, v := range snap.Counters {
		out = append(out, SeriesInfo{Name: name, Kind: KindCounter, Last: float64(v)})
	}
	for name, v := range snap.Gauges {
		out = append(out, SeriesInfo{Name: name, Kind: KindGauge, Last: v})
	}
	for name, h := range snap.Histograms {
		out = append(out, SeriesInfo{Name: name, Kind: KindHistogram, Last: float64(h.Count)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// splitGroupPrefix splits "group3_machine_compute_seconds" into its group
// prefix ("group3_") and rest; a name with no group prefix returns ("",
// name).
func splitGroupPrefix(name string) (prefix, rest string) {
	if !strings.HasPrefix(name, "group") {
		return "", name
	}
	i := len("group")
	j := i
	for j < len(name) && name[j] >= '0' && name[j] <= '9' {
		j++
	}
	if j == i || j >= len(name) || name[j] != '_' {
		return "", name
	}
	return name[:j+1], name[j+1:]
}
