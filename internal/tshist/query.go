package tshist

import (
	"sort"
	"time"

	"swatop/internal/metrics"
)

// Point is one retained sample of a series: the counter or gauge value at
// unix millisecond T, or a histogram's cumulative observation count.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// QueryResult is the answer to one windowed series query — what
// /varz/<metric> serves: the samples inside the window and the fields
// derived from them according to the series kind.
type QueryResult struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind"`
	WindowMs int64   `json:"window_ms"`
	Points   []Point `json:"points,omitempty"`

	// Counter derivations: Delta is the increase over the window, Rate is
	// Delta per second. A counter reset inside the window clamps the delta
	// to the final value (everything since the reset).
	Delta float64 `json:"delta,omitempty"`
	Rate  float64 `json:"rate,omitempty"`

	// Scalar derivations over the window.
	Min  float64 `json:"min,omitempty"`
	Max  float64 `json:"max,omitempty"`
	Mean float64 `json:"mean,omitempty"`
	Last float64 `json:"last,omitempty"`

	// Histogram derivations: bounds plus windowed count/sum deltas and
	// nearest-rank percentiles estimated from bucket deltas (each
	// percentile reports the upper bound of the bucket its rank lands in;
	// ranks in the +Inf overflow bucket clamp to the largest finite
	// bound).
	Bounds []float64 `json:"bounds,omitempty"`
	Count  int64     `json:"count,omitempty"`
	Sum    float64   `json:"sum,omitempty"`
	P50    float64   `json:"p50,omitempty"`
	P90    float64   `json:"p90,omitempty"`
	P99    float64   `json:"p99,omitempty"`
}

// windowFrom is the index of the oldest retained sample inside the window,
// which is anchored at the newest ingest (not the wall clock, so replayed
// synthetic series query deterministically). window <= 0, or one longer
// than what is retained, starts at the oldest sample. Caller holds s.mu.
func (s *Store) windowFrom(window time.Duration) int {
	if window <= 0 || s.n == 0 {
		return 0
	}
	start := s.at(s.n-1).ms - window.Milliseconds()
	return sort.Search(s.n, func(i int) bool { return s.at(i).ms >= start })
}

// scalar reads a counter or gauge out of one snapshot.
func scalar(snap metrics.Snapshot, name string) (v float64, kind string) {
	if c, ok := snap.Counters[name]; ok {
		return float64(c), KindCounter
	}
	if g, ok := snap.Gauges[name]; ok {
		return g, KindGauge
	}
	return 0, ""
}

// Query answers a windowed read of one series. window <= 0 means "all
// retained history". ok is false for a series the newest snapshot does not
// hold.
func (s *Store) Query(name string, window time.Duration) (QueryResult, bool) {
	if s == nil {
		return QueryResult{}, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.n == 0 {
		return QueryResult{}, false
	}
	q := QueryResult{Name: name, WindowMs: window.Milliseconds()}
	from := s.windowFrom(window)
	// window <= 0 asks for the series' lifetime: deltas are taken from
	// zero (cumulative series start at zero at process birth), not from
	// the first retained sample.
	lifetime := window <= 0
	newest := s.at(s.n - 1).snap
	if h, ok := newest.Histograms[name]; ok {
		q.Kind = KindHistogram
		q.Bounds = append([]float64(nil), h.Bounds...)
		s.summarizeHist(&q, from, lifetime)
		return q, true
	}
	if _, q.Kind = scalar(newest, name); q.Kind == "" {
		return QueryResult{}, false
	}
	s.summarizeScalar(&q, from, lifetime)
	return q, true
}

// summarizeScalar fills the points and the counter/gauge derivations from
// the samples at index from onwards that hold the series (nothing when
// none does).
func (s *Store) summarizeScalar(q *QueryResult, from int, lifetime bool) {
	var sum float64
	for i := from; i < s.n; i++ {
		sm := s.at(i)
		v, kind := scalar(sm.snap, q.Name)
		if kind == "" {
			continue // the series was born later
		}
		if len(q.Points) == 0 || v < q.Min {
			q.Min = v
		}
		if len(q.Points) == 0 || v > q.Max {
			q.Max = v
		}
		sum += v
		q.Points = append(q.Points, Point{T: sm.ms, V: v})
	}
	if len(q.Points) == 0 {
		return
	}
	first, last := q.Points[0], q.Points[len(q.Points)-1]
	q.Last = last.V
	q.Mean = sum / float64(len(q.Points))
	if q.Kind != KindCounter {
		return
	}
	// Rate over window: the increase between the first and last sample
	// divided by the time between them. One sample yields no rate — a
	// window needs two observations to witness change.
	q.Delta = last.V - first.V
	if lifetime || q.Delta < 0 {
		// Lifetime view, or a counter reset inside the window: the final
		// cumulative value is the honest delta.
		q.Delta = last.V
	}
	if dtMs := last.T - first.T; dtMs > 0 {
		q.Rate = q.Delta / (float64(dtMs) / 1e3)
	}
}

// summarizeHist fills the windowed count/sum deltas and percentiles.
// Because snapshots are cumulative, the windowed distribution is the newest
// sample minus the first one in the window holding the series; a single
// sample (or a lifetime query) is a delta from zero.
func (s *Store) summarizeHist(q *QueryResult, from int, lifetime bool) {
	var base metrics.HistogramSnapshot
	for i := from; i < s.n; i++ {
		sm := s.at(i)
		h, ok := sm.snap.Histograms[q.Name]
		if !ok {
			continue
		}
		if len(q.Points) == 0 && i < s.n-1 && !lifetime {
			base = h
		}
		q.Points = append(q.Points, Point{T: sm.ms, V: float64(h.Count)})
	}
	last := s.at(s.n - 1).snap.Histograms[q.Name]
	q.Count = last.Count - base.Count
	q.Sum = last.Sum - base.Sum
	if q.Count < 0 { // reset: fall back to the cumulative state
		q.Count, q.Sum = last.Count, last.Sum
		base = metrics.HistogramSnapshot{}
	}
	delta := make([]int64, len(last.Counts))
	for i := range delta {
		d := last.Counts[i]
		if i < len(base.Counts) {
			d -= base.Counts[i]
		}
		if d < 0 {
			d = last.Counts[i]
		}
		delta[i] = d
	}
	q.P50 = bucketPercentile(q.Bounds, delta, q.Count, 50)
	q.P90 = bucketPercentile(q.Bounds, delta, q.Count, 90)
	q.P99 = bucketPercentile(q.Bounds, delta, q.Count, 99)
}

// bucketPercentile is the nearest-rank percentile over a windowed bucket
// distribution: the value reported is the upper bound of the bucket the
// rank lands in. Ranks landing in the +Inf overflow bucket clamp to the
// largest finite bound (the best knowable upper estimate). Zero
// observations yield 0.
func bucketPercentile(bounds []float64, delta []int64, total int64, p float64) float64 {
	if total <= 0 || len(bounds) == 0 {
		return 0
	}
	rank := int64(metrics.PercentileIndex(int(total), p)) // 0-based
	var cum int64
	for i, d := range delta {
		cum += d
		if cum > rank {
			if i < len(bounds) {
				return bounds[i]
			}
			return bounds[len(bounds)-1] // overflow bucket
		}
	}
	return bounds[len(bounds)-1]
}

// GroupUtil is one core group's utilization over a window: the increase
// in simulated compute, stall and cross-group communication seconds. The
// aggregate entry (Group "fleet") sums the unprefixed machine gauges and
// the fleet's modeled comm seconds.
type GroupUtil struct {
	Group          string  `json:"group"`
	ComputeSeconds float64 `json:"compute_seconds"`
	StallSeconds   float64 `json:"stall_seconds"`
	CommSeconds    float64 `json:"comm_seconds"`
	// Utilization is compute / (compute + stall + comm), 0 when idle.
	Utilization float64 `json:"utilization"`
}

// scalarDelta is the windowed increase of a cumulative gauge: a counter's
// delta, reset rule included (0 when fewer than two samples hold the
// series). Caller holds s.mu (read).
func (s *Store) scalarDelta(name string, from int) float64 {
	q := QueryResult{Name: name, Kind: KindCounter}
	s.summarizeScalar(&q, from, false)
	return q.Delta
}

// FleetUtilization reports per-group and aggregate utilization over the
// window: how the fleet split its simulated seconds between computing,
// stalling on DMA, and cross-group communication. Groups are discovered
// from group<N>_machine_* gauge prefixes; the aggregate "fleet" row uses
// the unprefixed machine gauges plus infer_comm_seconds.
func (s *Store) FleetUtilization(window time.Duration) []GroupUtil {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	from := s.windowFrom(window)
	prefixes := []string{""}
	if s.n > 0 {
		for name := range s.at(s.n - 1).snap.Gauges {
			if p, rest := splitGroupPrefix(name); p != "" && rest == "machine_compute_seconds" {
				prefixes = append(prefixes, p)
			}
		}
		sort.Strings(prefixes)
	}

	out := make([]GroupUtil, 0, len(prefixes))
	for _, p := range prefixes {
		u := GroupUtil{
			Group:          "fleet",
			ComputeSeconds: s.scalarDelta(p+"machine_compute_seconds", from),
			StallSeconds:   s.scalarDelta(p+"machine_stall_seconds", from),
		}
		if p == "" {
			// Modeled cross-group communication is accounted at the fleet
			// level (it is time on the shared DDR3 path, not one group's).
			u.CommSeconds = s.scalarDelta("infer_comm_seconds", from)
		} else {
			u.Group = p[:len(p)-1] // "group0_" -> "group0"
		}
		if busy := u.ComputeSeconds + u.StallSeconds + u.CommSeconds; busy > 0 {
			u.Utilization = u.ComputeSeconds / busy
		}
		out = append(out, u)
	}
	return out
}
