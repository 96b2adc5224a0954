// Package metrics is the repo's observability substrate: a dependency-free,
// concurrency-safe registry of named counters, gauges and fixed-bucket
// histograms. Every layer of the system — the simulated machine, the
// executor, the autotuner, the schedule cache and the inference runtime —
// publishes into a registry, and CLIs expose the snapshot as JSON, a
// Prometheus-style text page or a human-readable table.
//
// Design rules:
//
//   - Nil receivers are inert, like the faults.Injector: instrumentation is
//     written unconditionally (reg.Counter("x").Inc()) and costs one nil
//     check when no registry is attached, so production hot paths carry no
//     branching around every metric site.
//   - Values that must stay deterministic across host parallelism (machine
//     counters, simulated seconds) are only ever recorded from deterministic
//     call sequences; wall-clock metrics (autotune_*_wall_seconds) are
//     expected to differ run to run.
//   - Snapshot is a point-in-time copy, not a linearizable cut: concurrent
//     writers may land between reads of different metrics. Within one metric
//     the read is atomic.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n (negative n is ignored: counters never go
// backwards).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value reads the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can be set, added to, or raised to a maximum.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds v.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Max atomically raises the gauge to v if v is larger.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value reads the gauge (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (ascending upper
// bounds, with an implicit +Inf overflow bucket) and tracks count and sum.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= bounds[idx]
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count is the total number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum is the sum of all observed values (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// TimeBuckets are the default upper bounds (seconds) for duration
// histograms, spanning the microsecond-to-tens-of-seconds range simulated
// operators and tuning runs occupy.
var TimeBuckets = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. A nil *Registry is inert: every lookup returns a nil metric
// whose methods are no-ops.
//
// A Registry value is either a root (owning the metric maps) or a scoped
// view created by Scope: the view shares the root's storage but prepends a
// fixed prefix to every metric name it touches. Scopes are how concurrent
// producers — e.g. the simulated core groups of a fleet — write into one
// registry without colliding: disjoint prefixes mean disjoint names, so
// each producer's deterministic write sequence stays deterministic in the
// merged snapshot regardless of goroutine interleaving.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string

	// root points at the registry owning the maps when this value is a
	// scoped view (nil on a root); prefix is prepended to every name the
	// view touches.
	root   *Registry
	prefix string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		help:     map[string]string{},
	}
}

// base returns the registry owning the storage: the receiver itself for a
// root, the root for a scoped view.
func (r *Registry) base() *Registry {
	if r.root != nil {
		return r.root
	}
	return r
}

// Scope returns a view of the registry that prepends prefix to every
// metric name: Scope("group0_").Counter("dma_ops") is the root's
// "group0_dma_ops" counter. Views share the root's storage (scoping an
// existing view concatenates prefixes) and are as concurrency-safe as the
// root. Nil-safe: a nil registry scopes to nil, and an empty prefix
// returns the receiver unchanged.
func (r *Registry) Scope(prefix string) *Registry {
	if r == nil || prefix == "" {
		return r
	}
	return &Registry{root: r.base(), prefix: r.prefix + prefix}
}

// SetHelp attaches Prometheus exposition help text to a metric name,
// overriding the built-in description table. Nil-safe.
func (r *Registry) SetHelp(name, text string) {
	if r == nil {
		return
	}
	b := r.base()
	b.mu.Lock()
	b.help[r.prefix+name] = text
	b.mu.Unlock()
}

// Counter returns the named counter, creating it on first use. Nil-safe.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	b := r.base()
	name = r.prefix + name
	b.mu.RLock()
	c := b.counters[name]
	b.mu.RUnlock()
	if c != nil {
		return c
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if c = b.counters[name]; c == nil {
		c = &Counter{}
		b.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	b := r.base()
	name = r.prefix + name
	b.mu.RLock()
	g := b.gauges[name]
	b.mu.RUnlock()
	if g != nil {
		return g
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if g = b.gauges[name]; g == nil {
		g = &Gauge{}
		b.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (TimeBuckets when none are given). Later calls
// return the existing histogram regardless of the bounds argument. Nil-safe.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	b := r.base()
	name = r.prefix + name
	b.mu.RLock()
	h := b.hists[name]
	b.mu.RUnlock()
	if h != nil {
		return h
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if h = b.hists[name]; h == nil {
		if len(bounds) == 0 {
			bounds = TimeBuckets
		}
		bb := append([]float64(nil), bounds...)
		sort.Float64s(bb)
		h = &Histogram{bounds: bb, counts: make([]atomic.Int64, len(bb)+1)}
		b.hists[name] = h
	}
	return h
}
