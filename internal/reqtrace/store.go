package reqtrace

import (
	"hash/fnv"
	"net/http"
	"sort"
	"sync"
)

// Store retains finished traces in a bounded in-memory buffer with
// tail-based sampling: the retention decision is made after the request
// finishes, when its outcome is known. Slow, shed, expired, degraded and
// failed requests are always kept (those are the traces someone will ask
// for); ordinary fast 200s are kept with a deterministic per-trace-ID
// probability. When the buffer is full, probabilistically sampled traces
// are evicted before always-keep ones, oldest first within each class.
type Store struct {
	capacity   int
	slowMs     float64
	sampleRate float64

	mu     sync.Mutex
	traces map[string]*Trace
	// order tracks insertion order per class for eviction.
	sampled   []string
	important []string
	added     uint64
	dropped   uint64
	evicted   uint64
}

// StoreOptions shape a Store.
type StoreOptions struct {
	// Capacity bounds the retained trace count (default 256).
	Capacity int
	// SlowMs is the latency above which a 200 is always kept
	// (default 100ms).
	SlowMs float64
	// SampleRate is the keep probability for ordinary fast 200s, in
	// [0, 1] (default 0.1). The decision hashes the trace ID, so the same
	// request is sampled identically on every replica.
	SampleRate float64
}

// NewStore builds a trace store.
func NewStore(opts StoreOptions) *Store {
	if opts.Capacity < 1 {
		opts.Capacity = 256
	}
	if opts.SlowMs <= 0 {
		opts.SlowMs = 100
	}
	if opts.SampleRate < 0 {
		opts.SampleRate = 0
	}
	if opts.SampleRate == 0 {
		opts.SampleRate = 0.1
	}
	if opts.SampleRate > 1 {
		opts.SampleRate = 1
	}
	return &Store{
		capacity:   opts.Capacity,
		slowMs:     opts.SlowMs,
		sampleRate: opts.SampleRate,
		traces:     map[string]*Trace{},
	}
}

// keepReason classifies a finished trace: a non-empty reason other than
// "sampled" means always-keep; "" means drop.
func (st *Store) keepReason(tr *Trace) string {
	switch {
	case tr.Status == http.StatusTooManyRequests:
		return "shed"
	case tr.Status == http.StatusRequestTimeout:
		return "deadline"
	case tr.Status != http.StatusOK:
		return "error"
	case tr.Degraded:
		return "degraded"
	case tr.LatencyMs >= st.slowMs:
		return "slow"
	case sampleHash(tr.ID) < st.sampleRate:
		return "sampled"
	}
	return ""
}

// sampleHash maps a trace ID to [0, 1) deterministically. FNV-1a's low
// bits avalanche much better than its high bits on short inputs, so the
// fraction comes from the low 53 bits.
func sampleHash(id string) float64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return float64(h.Sum64()&(1<<53-1)) / float64(1<<53)
}

// Add applies the tail-sampling decision and retains the trace if it
// qualifies. Returns the keep reason ("" when dropped). Nil-safe.
func (st *Store) Add(tr Trace) string {
	if st == nil || tr.ID == "" {
		return ""
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	reason := st.keepReason(&tr)
	if reason == "" {
		st.dropped++
		return ""
	}
	tr.Keep = reason
	if old, ok := st.traces[tr.ID]; ok {
		// Trace ID collision (client reused a traceparent): keep the
		// newest occurrence, queued for eviction with its own class — a
		// sampled 200 replaced by its shed retry is an always-keep trace.
		st.traces[tr.ID] = &tr
		if from, to := st.classList(old.Keep), st.classList(reason); from != to {
			for i, id := range *from {
				if id == tr.ID {
					*from = append((*from)[:i], (*from)[i+1:]...)
					break
				}
			}
			*to = append(*to, tr.ID)
		}
		return reason
	}
	for len(st.traces) >= st.capacity {
		st.evictLocked()
	}
	st.traces[tr.ID] = &tr
	*st.classList(reason) = append(*st.classList(reason), tr.ID)
	st.added++
	return reason
}

// classList is the eviction list a keep reason queues in.
func (st *Store) classList(reason string) *[]string {
	if reason == "sampled" {
		return &st.sampled
	}
	return &st.important
}

// evictLocked removes one trace: the oldest probabilistically sampled one
// if any exist, otherwise the oldest always-keep one.
func (st *Store) evictLocked() {
	lists := []*[]string{&st.sampled, &st.important}
	for _, l := range lists {
		for len(*l) > 0 {
			id := (*l)[0]
			*l = (*l)[1:]
			if _, ok := st.traces[id]; ok {
				delete(st.traces, id)
				st.evicted++
				return
			}
		}
	}
	// Both lists empty but the map is full: cannot happen (every map
	// entry is in exactly one list), but never loop forever.
	for id := range st.traces {
		delete(st.traces, id)
		st.evicted++
		return
	}
}

// Get returns the retained trace for an ID, or nil.
func (st *Store) Get(id string) *Trace {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.traces[id]
}

// Len is the retained trace count.
func (st *Store) Len() int {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.traces)
}

// Stats is the store's summary block for /tracez.
type Stats struct {
	Capacity int     `json:"capacity"`
	Retained int     `json:"retained"`
	Added    uint64  `json:"added_total"`
	Dropped  uint64  `json:"dropped_total"`
	Evicted  uint64  `json:"evicted_total"`
	SlowMs   float64 `json:"slow_ms"`
	Sample   float64 `json:"sample_rate"`
}

// Stats freezes the store counters.
func (st *Store) Stats() Stats {
	if st == nil {
		return Stats{}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return Stats{
		Capacity: st.capacity,
		Retained: len(st.traces),
		Added:    st.added,
		Dropped:  st.dropped,
		Evicted:  st.evicted,
		SlowMs:   st.slowMs,
		Sample:   st.sampleRate,
	}
}

// Traces returns the retained traces, newest first (by admission time,
// trace ID as tie-break so the order is total).
func (st *Store) Traces() []*Trace {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	out := make([]*Trace, 0, len(st.traces))
	for _, tr := range st.traces {
		out = append(out, tr)
	}
	st.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.After(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}
